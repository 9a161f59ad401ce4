"""One graphsl CLI command in a fresh process, timed from the inside.

    python3 child.py SPEC.json

SPEC names the CLI arguments, the spectral entry point the command calls,
whether to trace, and where to write the side-channel record.  The record
holds the entry point's start and end on the system-wide monotonic clock
(so the parent can measure set-up from its own spawn time), the library
versions, and, when tracing, every span.

Tracing wraps public functions at the names their callers look them up
under: ``graphsl.cli`` and ``graphsl.spectral`` bind their imports at import
time, so wrapping ``graphsl.fem.assemble`` alone would time nothing.  A
span is ``[name, start, end, parent index, run id, counts]``; counts come
from the wrapped call's return value (or its arguments).
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time

clock = time.monotonic


class Tracer:
    """Appends spans to a list it owns; nesting comes from a call stack."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out, args)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1, self.run_id, None])


def _eig_counts(out, args):
    return {
        "dofs": int(out.vector.shape[0]),
        "nnz": int(args[0].nnz),
        "applies": int(out.iterations),
        "shift": float(out.shift),
        "value": float(out.value),
        "residual": float(out.residual),
    }


def instrument(tracer: Tracer, meshed_edges: set) -> None:
    """Wrap every hot-path layer boundary (see the module docstring)."""
    import graphsl._kernels as kernels
    import graphsl.cli as cli
    import graphsl.coeff as coeff
    import graphsl.eig as eig
    import graphsl.spectral as spectral

    def mesh_counts(out, args):
        meshed_edges.update(out.edge_ids)
        return {"edges": len(out.edge_ids), "dofs": int(out.n_free)}

    wrap = tracer.wrap
    wrap(cli, "load_graph", "graph.load", lambda g, a: {"vertices": len(g.vertices), "edges": len(g.edges)})
    wrap(cli, "build_exhaustion", "graph.exhaustion")
    wrap(cli, "load_coefficients", "coeff.load")
    wrap(cli, "validate_hypotheses", "coeff.validate")
    wrap(cli, "_emit", "cli.output")
    wrap(coeff.CoefficientField, "evaluate", "coeff.evaluate", lambda v, a: {"samples": int(v.size)})
    wrap(spectral, "build_mesh", "fem.mesh", mesh_counts)
    wrap(spectral, "assemble", "fem.assemble")
    wrap(spectral, "kirchhoff_residual", "fem.kirchhoff")
    wrap(spectral, "splu", "spectral.cert_factor")
    wrap(kernels, "accumulate", "fem.kernel", lambda acc, a: {"cells": int(acc[0].shape[0])})
    wrap(kernels, "triplets", "fem.kernel")
    wrap(eig, "solve_pencil", "eig.solve", _eig_counts)
    wrap(eig, "pencil_lower_bound", "eig.lower_bound")
    wrap(eig, "splu", "eig.factor", lambda lu, a: {"lu_nnz": int(lu.L.nnz + lu.U.nnz), "a_nnz": int(a[0].nnz)})
    wrap(eig, "eigsh", "eig.lanczos")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"])
    t0 = clock()
    import graphsl.cli as cli

    tracer.span("cli.import", t0, clock())
    import graphsl
    import numpy
    import scipy

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(graphsl.__file__).startswith(src + os.sep):
        print(f"graphsl imported from {graphsl.__file__}, not from {src}", file=sys.stderr)
        return 2
    meshed_edges: set = set()
    if spec["trace"]:
        instrument(tracer, meshed_edges)
        tracer.wrap(cli, "main", "cli.main")
    entry = f"spectral.{spec['entry']}"
    tracer.wrap(cli, spec["entry"], entry)
    code = cli.main(spec["argv"])
    entry_spans = [s for s in tracer.spans if s[0] == entry]
    record = {
        "exit": code,
        "entry": entry_spans[0][1:3] if len(entry_spans) == 1 else None,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "kernel_backend": graphsl._kernels.backend(),
        },
    }
    if spec["trace"]:
        record["spans"] = tracer.spans
        record["distinct_edges_meshed"] = len(meshed_edges)
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
