"""Command-line surface: document loading, run orchestration, CSV emission.

Artifacts are CSV tables (RFC-4180 quoting) preceded by a ``#`` comment
block carrying the tool version, a config echo sufficient to reproduce the
run, the hypothesis-check summary, and the seed.  No timestamps: identical
config and seed give byte-identical output at a fixed BLAS thread count.
Machine output goes to the ``--out`` path or standard output; progress and
warnings go to standard error.

Exit codes: 0 success; 2 usage errors, unreadable inputs, and hypothesis
failures without ``--override``; 3 solver failures (non-convergence,
monotonicity aborts); 1 failed ``verify`` checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

from . import __version__
from .coeff import load_coefficients, validate_hypotheses
from .errors import GraphslError, SolverError
from .graph import build_exhaustion, load_graph
from .spectral import (
    BC_DIRICHLET,
    BC_FREE,
    ap_check,
    inf_spectrum,
    persson_limit,
    positive_solution,
    sobolev_constant,
)
from .verify import run_suite

_COMMANDS = (
    "spectrum",
    "persson",
    "ap-check",
    "positive-solution",
    "sobolev",
    "validate",
    "verify",
)

# hypothesis clauses each command insists on (see coeff.HypothesisReport)
_GATED_CLAUSES = {
    "spectrum": (1, 3),
    "ap-check": (1, 3),
    "positive-solution": (1, 3),
    "sobolev": (1, 2, 3),
    "persson": (1, 2, 3, 4),
}


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="path to a graph document (JSON)")
    common.add_argument("--coeffs", help="path to a coefficient document (JSON)")
    common.add_argument("--h", type=float, default=0.05, help="target mesh cell size")
    common.add_argument("--tol", type=float, default=1e-6, help="solver tolerance")
    common.add_argument("--root", help="exhaustion root vertex (default: document root)")
    common.add_argument(
        "--levels", type=_int_list, help="comma-separated exhaustion levels (inner levels for persson)"
    )
    common.add_argument(
        "--outer", type=_int_list, help="comma-separated outer levels (persson only)"
    )
    common.add_argument(
        "--no-boundary-dirichlet",
        action="store_true",
        help="leave the host graph boundary unconstrained",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument("--out", help="output path (default: standard output)")
    common.add_argument(
        "--override",
        action="store_true",
        help="proceed despite hypothesis-validation failures",
    )

    parser = argparse.ArgumentParser(
        prog="graphsl",
        description="Spectral bounds for Sturm-Liouville operators on metric graphs.",
    )
    parser.add_argument("--version", action="version", version=f"graphsl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common], help="Dirichlet-truncation trace of the spectral bottom")
    sub.add_parser("persson", parents=[common], help="annulus exhaustion of the essential-spectrum bottom")
    p_ap = sub.add_parser("ap-check", parents=[common], help="positive-solution test of a trial value")
    p_ps = sub.add_parser("positive-solution", parents=[common], help="construct a positive solution certificate")
    for p in (p_ap, p_ps):
        p.add_argument("--lambda", dest="lam", type=float, required=True, help="trial spectral value")
        p.add_argument("--level", type=int, required=True, help="exhaustion level")
    p_sob = sub.add_parser("sobolev", parents=[common], help="edgewise sup-bound constants")
    p_sob.add_argument(
        "--epsilon", type=_float_list, required=True, help="comma-separated epsilon values"
    )
    sub.add_parser("validate", parents=[common], help="structural hypothesis report")
    sub.add_parser("verify", parents=[common], help="seeded self-check suite")
    return parser


@dataclass
class RunConfig:
    command: str
    graph: str | None
    coeffs: str | None
    h: float
    tol: float
    root: str | None
    levels: list | None
    outer: list | None
    boundary_dirichlet: bool
    seed: int
    out: str | None
    override: bool
    lam: float | None = None
    level: int | None = None
    epsilon: list | None = None

    @staticmethod
    def from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> "RunConfig":
        cfg = RunConfig(
            command=args.command,
            graph=args.graph,
            coeffs=args.coeffs,
            h=args.h,
            tol=args.tol,
            root=args.root,
            levels=args.levels,
            outer=args.outer,
            boundary_dirichlet=not args.no_boundary_dirichlet,
            seed=args.seed,
            out=args.out,
            override=args.override,
            lam=getattr(args, "lam", None),
            level=getattr(args, "level", None),
            epsilon=getattr(args, "epsilon", None),
        )
        if cfg.h <= 0:
            parser.error("--h must be positive")
        if cfg.tol <= 0:
            parser.error("--tol must be positive")
        if cfg.seed < 0:
            parser.error("--seed must be nonnegative")
        for name, values in (("--levels", cfg.levels), ("--outer", cfg.outer)):
            if values is not None:
                if any(v < 0 for v in values):
                    parser.error(f"{name} entries must be nonnegative")
                if any(b <= a for a, b in zip(values, values[1:])):
                    parser.error(f"{name} must be strictly increasing")
        if cfg.command != "verify" and cfg.graph is None:
            parser.error("--graph is required")
        if cfg.command == "persson":
            if not cfg.levels or not cfg.outer:
                parser.error("persson requires --levels and --outer")
            if max(cfg.outer) <= max(cfg.levels):
                parser.error("--outer must reach past every --levels entry")
        if cfg.command == "sobolev" and any(e <= 0 for e in cfg.epsilon):
            parser.error("--epsilon values must be positive")
        if cfg.level is not None and cfg.level < 0:
            parser.error("--level must be nonnegative")
        return cfg

    def echo(self) -> str:
        parts = [
            f"graph={self.graph}",
            f"coeffs={self.coeffs}",
            f"h={self.h!r}",
            f"tol={self.tol!r}",
            f"root={self.root}",
        ]
        if self.levels is not None:
            parts.append("levels=" + ",".join(map(str, self.levels)))
        if self.outer is not None:
            parts.append("outer=" + ",".join(map(str, self.outer)))
        parts.append(f"boundary-dirichlet={str(self.boundary_dirichlet).lower()}")
        if self.lam is not None:
            parts.append(f"lambda={self.lam!r}")
        if self.level is not None:
            parts.append(f"level={self.level}")
        if self.epsilon is not None:
            parts.append("epsilon=" + ",".join(repr(e) for e in self.epsilon))
        parts.append(f"override={str(self.override).lower()}")
        return " ".join(parts)


# --- input loading and the hypothesis gate --------------------------------------


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _Exit(2, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _Exit(2, f"{path} is not valid JSON: {exc}") from exc


def _load_inputs(cfg: RunConfig):
    g = load_graph(_read_json(cfg.graph))
    coeff_doc = _read_json(cfg.coeffs) if cfg.coeffs else {}
    config = {}
    if isinstance(coeff_doc, dict) and "eta" in coeff_doc:
        raw = coeff_doc.pop("eta")
        config["eta"] = math.inf if raw == "inf" else float(raw)
    field = load_coefficients(coeff_doc, g, **config)
    root = cfg.root if cfg.root is not None else g.root
    if root is None:
        raise _Exit(2, "no exhaustion root: pass --root or set one in the graph document")
    cfg.root = root
    return g, field


def _default_radius(g, root: str) -> int:
    reach = max(g.vertex_distances(root).values())
    return max(1, int(math.ceil(reach - 1e-12)))


def _gate(cfg: RunConfig, g, field, exhaustion) -> str:
    """Run the structural checks; block (exit 2) or warn per --override."""
    report = validate_hypotheses(g, field, exhaustion=exhaustion)
    gated = _GATED_CLAUSES.get(cfg.command, ())
    failing = [c for c in report.failures() if c in gated]
    if not failing:
        return "pass"
    clause_list = ",".join(map(str, failing))
    if not cfg.override:
        raise _Exit(
            2,
            f"hypothesis validation failed: clause(s) {clause_list}; "
            "rerun with --override to proceed anyway",
        )
    print(
        f"warning: proceeding despite failed hypothesis clause(s) {clause_list}",
        file=sys.stderr,
    )
    return f"FAIL clauses {clause_list} (overridden)"


# --- output ----------------------------------------------------------------------


def _open_out(cfg: RunConfig):
    if cfg.out:
        return open(cfg.out, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout)


def _emit(cfg: RunConfig, hyp_summary: str, extra_comments, header, rows, text=()) -> None:
    """Write the comment block, the header and ``rows``, then the CSV strings in ``text``."""
    with _open_out(cfg) as fh:
        fh.write(f"# graphsl {__version__}\n")
        fh.write(f"# command: {cfg.command}\n")
        fh.write(f"# config: {cfg.echo()}\n")
        fh.write(f"# hypotheses: {hyp_summary}\n")
        fh.write(f"# seed: {cfg.seed}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(text)


def _warn_touched(report) -> None:
    if report.touched_host_boundary:
        print(
            "warning: the requested levels reach the host graph boundary; "
            "results reflect the truncated host, not an infinite graph",
            file=sys.stderr,
        )


# --- commands ----------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig) -> int:
    g, field = _load_inputs(cfg)
    radius = max(cfg.levels) if cfg.levels else _default_radius(g, cfg.root)
    exhaustion = build_exhaustion(g, cfg.root, radius)
    hyp = _gate(cfg, g, field, exhaustion)
    bc = BC_DIRICHLET if cfg.boundary_dirichlet else BC_FREE
    report = inf_spectrum(
        g, field, exhaustion, bc=bc, h=cfg.h, tol=cfg.tol, levels=cfg.levels
    )
    _warn_touched(report)
    comments = [
        f"estimate: {report.estimate!r}",
        f"error-proxy: {report.error_proxy!r}",
        f"bc: {report.bc}",
    ]
    rows = [(row.level, repr(row.value)) for row in report.rows]
    _emit(cfg, hyp, comments, ["n", "lambda"], rows)
    return 0


def cmd_persson(cfg: RunConfig) -> int:
    g, field = _load_inputs(cfg)
    exhaustion = build_exhaustion(g, cfg.root, max(cfg.outer))
    hyp = _gate(cfg, g, field, exhaustion)
    bc = BC_DIRICHLET if cfg.boundary_dirichlet else BC_FREE
    trace = persson_limit(
        g,
        field,
        exhaustion,
        cfg.levels,
        cfg.outer,
        bc=bc,
        h=cfg.h,
        tol=cfg.tol,
    )
    _warn_touched(trace)
    comments = [
        f"estimate: {trace.estimate!r}",
        f"bracket: {trace.bracket[0]!r},{trace.bracket[1]!r}",
        f"bc: {trace.bc}",
    ]
    rows = [
        (row.inner, row.outer, repr(row.value), repr(row.residual)) for row in trace.rows
    ]
    _emit(cfg, hyp, comments, ["n", "N", "lambda", "residual"], rows)
    return 0


def cmd_ap_check(cfg: RunConfig) -> int:
    g, field = _load_inputs(cfg)
    exhaustion = build_exhaustion(g, cfg.root, max(cfg.level, 1))
    hyp = _gate(cfg, g, field, exhaustion)
    result = ap_check(g, field, exhaustion, cfg.lam, cfg.level, h=cfg.h, tol=cfg.tol)
    min_value = repr(result.cert.min_value) if result.cert else ""
    max_value = repr(result.cert.max_value) if result.cert else ""
    print(
        f"{result.kind}: lambda={result.lam!r} level={result.level} "
        f"bottom={result.dirichlet_bottom!r} margin={result.margin!r}"
        + (f" min={min_value} max={max_value}" if result.cert else ""),
        file=sys.stderr,
    )
    rows = [
        (
            result.kind,
            repr(result.lam),
            result.level,
            repr(result.dirichlet_bottom),
            repr(result.margin),
            min_value,
            max_value,
        )
    ]
    _emit(
        cfg,
        hyp,
        [],
        ["kind", "lambda", "level", "bottom", "margin", "min_value", "max_value"],
        rows,
    )
    return 0


def cmd_positive_solution(cfg: RunConfig) -> int:
    g, field = _load_inputs(cfg)
    exhaustion = build_exhaustion(g, cfg.root, max(cfg.level, 1))
    hyp = _gate(cfg, g, field, exhaustion)
    cert = positive_solution(
        g, field, exhaustion, cfg.lam, cfg.level, h=cfg.h, tol=cfg.tol
    )
    worst_flux = max(cert.kirchhoff_residuals.values(), default=0.0)
    comments = [
        f"lambda: {cert.lam!r}",
        f"level: {cert.level}",
        f"dirichlet-bottom: {cert.dirichlet_bottom!r}",
        f"min: {cert.min_value!r}",
        f"max: {cert.max_value!r}",
        f"max-kirchhoff-residual: {worst_flux!r}",
        f"root: {cert.root}",
    ]
    print(
        f"certificate: min={cert.min_value!r} max={cert.max_value!r} "
        f"max-kirchhoff-residual={worst_flux!r}",
        file=sys.stderr,
    )
    _emit(
        cfg,
        hyp,
        comments,
        ["kind", "id", "offset", "value"],
        _certificate_rows(cert),
        _certificate_edge_text(cert),
    )
    return 0


def _certificate_rows(cert):
    """One CSV row per free vertex, in dof order; the interior nodes follow them."""
    mesh, values = cert.mesh, cert.values
    for d, v in sorted((d, v) for v, d in mesh.vertex_dof.items() if d >= 0):
        yield ("vertex", v, "", repr(float(values[d])))


def _certificate_edge_text(cert):
    """The interior-node rows as one CSV string per edge, in dof order.

    Each edge id is quoted once through ``csv.writer``; offsets and values
    are float reprs, which never need quoting, so every row is the edge's
    prefix plus ``x!r,v!r``, the bytes ``csv.writer`` would write for it.
    """
    mesh, values = cert.mesh, cert.values
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for k, eid in enumerate(mesh.edge_ids):
        buf.seek(0)
        buf.truncate()
        writer.writerow(("edge", eid, ""))
        prefix = buf.getvalue()[:-1]  # "edge,<quoted id>," without the line end
        inner = slice(mesh.start[k] + 1, mesh.start[k + 1] - 1)
        yield "".join(
            f"{prefix}{x!r},{v!r}\n"
            for x, v in zip(mesh.x[inner].tolist(), values[mesh.dof[inner]].tolist())
        )


def cmd_sobolev(cfg: RunConfig) -> int:
    g, field = _load_inputs(cfg)
    exhaustion = build_exhaustion(g, cfg.root, _default_radius(g, cfg.root))
    hyp = _gate(cfg, g, field, exhaustion)
    rows = []
    for eps in cfg.epsilon:
        est = sobolev_constant(g, field, eps)
        rows.append(
            (repr(est.epsilon), repr(est.delta), repr(est.window_mass), repr(est.constant))
        )
    _emit(cfg, hyp, [], ["epsilon", "delta", "c", "C"], rows)
    return 0


_CLAUSE_TEXT = {
    1: "local integrability (1/p power, q, w)",
    2: "weight bounded below outside a compact subgraph",
    3: "edge lengths bounded below",
    4: "negative part of q uniformly integrable over edges",
}


def cmd_validate(cfg: RunConfig) -> int:
    g, field = _load_inputs(cfg)
    exhaustion = build_exhaustion(g, cfg.root, _default_radius(g, cfg.root))
    report = validate_hypotheses(g, field, exhaustion=exhaustion)
    measured = {
        1: f"total int (1/p)^eta = {report.inv_p_power_total!r} (eta={report.eta!r})",
        2: f"essinf w outside compact = {report.essinf_w_outside!r} "
        f"(compact: {sorted(report.compact) if report.compact else '[]'})",
        3: f"d_* = {report.min_edge_length!r}",
        4: f"sup_e int q_- = {report.sup_edge_neg_q!r}",
    }
    with _open_out(cfg) as fh:
        fh.write(f"# graphsl {__version__}\n")
        fh.write(f"# command: validate\n")
        fh.write(f"# config: {cfg.echo()}\n")
        fh.write(f"# seed: {cfg.seed}\n")
        for clause in sorted(report.flags):
            status = "PASS" if report.flags[clause] else "FAIL"
            fh.write(f"clause {clause} ({_CLAUSE_TEXT[clause]}): {status}  {measured[clause]}\n")
        fh.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
    if not report.passed:
        failing = ",".join(map(str, report.failures()))
        print(f"hypothesis validation failed: clause(s) {failing}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    buffer = io.StringIO()
    buffer.write(f"# graphsl {__version__}\n")
    buffer.write(f"# command: verify\n")
    buffer.write(f"# seed: {cfg.seed}\n")
    failures = run_suite(cfg.seed, stream=buffer)
    text = buffer.getvalue()
    sys.stdout.write(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if failures else 0


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "persson": cmd_persson,
    "ap-check": cmd_ap_check,
    "positive-solution": cmd_positive_solution,
    "sobolev": cmd_sobolev,
    "validate": cmd_validate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(parser, args)
        return _DISPATCH[cfg.command](cfg)
    except _Exit as stop:
        print(f"graphsl: {stop}", file=sys.stderr)
        return stop.code
    except SolverError as exc:
        print(f"graphsl: solver failure: {exc}", file=sys.stderr)
        return 3
    except GraphslError as exc:
        print(f"graphsl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
