"""Command-line surface: document loading, run orchestration, CSV emission.

The parsed ``argparse.Namespace`` is the run's config.  Each command
accepts exactly the options it reads (``_COMMANDS``); ``_checked`` rejects
values argparse cannot.  Every solving command (``spectrum``, ``persson``,
``ap-check``, ``positive-solution``, ``sobolev``) starts with ``_setup``:
load the documents, build the exhaustion, run the hypothesis gate.
``validate`` shares its input half and reports the checks instead of gating.

Artifacts are CSV tables (RFC-4180 quoting) preceded by a ``#`` comment
block from ``_preamble``: the tool version and the command, then an echo
of the command's options sufficient to reproduce the run and the
hypothesis-check summary.  ``validate`` has no hypothesis line; ``verify``
has only the seed of its suite.  No timestamps: identical options give
byte-identical output at a fixed BLAS thread count.  Machine output goes
to the ``--out`` path or standard output; progress and warnings go to
standard error.

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

from . import __version__
from .coeff import load_coefficients, validate_hypotheses
from .errors import GraphslError, SolverError
from .graph import build_exhaustion, load_graph
from .spectral import (
    ap_check,
    inf_spectrum,
    persson_limit,
    positive_solution,
    sobolev_constant,
)
from .verify import run_suite

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


# every option a command can take, with its argparse settings; each command
# lists the ones it reads, and the parser adds them in this order
_OPTIONS = {
    "--graph": dict(help="path to a graph document (JSON)"),
    "--coeffs": dict(help="path to a coefficient document (JSON)"),
    "--h": dict(type=float, default=0.05, help="target mesh cell size"),
    "--tol": dict(type=float, default=1e-6, help="solver tolerance"),
    "--root": dict(help="exhaustion root vertex (default: document root)"),
    "--levels": dict(type=_int_list, help="comma-separated exhaustion levels (inner levels for persson)"),
    "--outer": dict(type=_int_list, help="comma-separated outer levels"),
    "--no-boundary-dirichlet": dict(action="store_true", help="leave the host graph boundary unconstrained"),
    "--lambda": dict(dest="lam", type=float, required=True, help="trial spectral value"),
    "--level": dict(type=int, required=True, help="exhaustion level"),
    "--epsilon": dict(type=_float_list, required=True, help="comma-separated epsilon values"),
    "--seed": dict(type=int, default=0, help="seed of the self-check suite"),
    "--out": dict(help="output path (default: standard output)"),
    "--override": dict(action="store_true", help="proceed despite hypothesis-validation failures"),
}
_LISTS = ("--levels", "--outer", "--epsilon")
# the options every solving command reads, and those of the two kinds of solve
_SOLVING = ("--graph", "--coeffs", "--root", "--override", "--out")
_SWEEP = _SOLVING + ("--h", "--tol", "--levels", "--no-boundary-dirichlet")
_TRIAL = _SOLVING + ("--h", "--tol", "--lambda", "--level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsl",
        description="Spectral bounds for Sturm-Liouville operators on metric graphs.",
    )
    parser.add_argument("--version", action="version", version=f"graphsl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, options) in _COMMANDS.items():
        # no abbreviations: spectrum would otherwise read --level as --levels
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag, settings in _OPTIONS.items():
            if flag in options:
                p.add_argument(flag, **settings)
    return parser


def _attached(argv: list[str]) -> list[str]:
    """``argv`` with each list value that starts with a minus joined to its flag.

    argparse reads ``-1,2`` as an option, so ``--levels -1,2`` would stop
    at "expected one argument"; as ``--levels=-1,2`` it reaches ``_checked``.
    """
    out = []
    for token in argv:
        if out and out[-1] in _LISTS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _checked(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.Namespace:
    """Reject values of the command's options that argparse does not check itself."""
    for name, flag in (("h", "--h"), ("tol", "--tol"), ("lam", "--lambda")):
        if name in args and not math.isfinite(getattr(args, name)):
            parser.error(f"{flag} must be finite")
    if "epsilon" in args and not all(map(math.isfinite, args.epsilon)):
        parser.error("--epsilon values must be finite")
    if "h" in args and args.h <= 0:
        parser.error("--h must be positive")
    if "tol" in args and args.tol <= 0:
        parser.error("--tol must be positive")
    if "seed" in args and args.seed < 0:
        parser.error("--seed must be nonnegative")
    for name in ("levels", "outer"):
        values = getattr(args, name, None)
        if values is not None:
            if any(v < 0 for v in values):
                parser.error(f"--{name} entries must be nonnegative")
            if any(b <= a for a, b in zip(values, values[1:])):
                parser.error(f"--{name} must be strictly increasing")
    if "graph" in args and args.graph is None:
        parser.error("--graph is required")
    if args.command == "persson":
        if not args.levels or not args.outer:
            parser.error("persson requires --levels and --outer")
        if max(args.outer) <= max(args.levels):
            parser.error("--outer must reach past every --levels entry")
    if "epsilon" in args and any(e <= 0 for e in args.epsilon):
        parser.error("--epsilon values must be positive")
    if "level" in args and args.level < 0:
        parser.error("--level must be nonnegative")
    return args


def _echo(args: argparse.Namespace) -> str:
    """The command's options, enough to reproduce the run."""
    parts = [f"graph={args.graph}", f"coeffs={args.coeffs}"]
    if "h" in args:
        parts += [f"h={args.h!r}", f"tol={args.tol!r}"]
    parts.append(f"root={args.root}")
    for name in ("levels", "outer"):
        values = getattr(args, name, None)
        if values is not None:
            parts.append(f"{name}=" + ",".join(map(str, values)))
    if "no_boundary_dirichlet" in args:
        parts.append(f"boundary-dirichlet={str(not args.no_boundary_dirichlet).lower()}")
    if "lam" in args:
        parts += [f"lambda={args.lam!r}", f"level={args.level}"]
    if "epsilon" in args:
        parts.append("epsilon=" + ",".join(repr(e) for e in args.epsilon))
    if "override" in args:
        parts.append(f"override={str(args.override).lower()}")
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


def _inputs(args: argparse.Namespace, radius: int | None = None):
    """The graph, the coefficient field and an exhaustion ``radius`` deep.

    Resolves ``args.root`` to the exhaustion root.  With ``radius`` None the
    exhaustion reaches every vertex.
    """
    g = load_graph(_read_json(args.graph))
    field = load_coefficients(_read_json(args.coeffs) if args.coeffs else {}, g)
    if args.root is None:
        args.root = g.root
    if args.root is None:
        raise _Exit(2, "no exhaustion root: pass --root or set one in the graph document")
    if radius is None:
        reach = max(g.vertex_distances(args.root).values())
        radius = max(1, int(math.ceil(reach - 1e-12)))
    return g, field, build_exhaustion(g, args.root, radius)


def _setup(args: argparse.Namespace, radius: int | None = None):
    """Inputs, exhaustion and hypothesis gate of a solving command.

    Returns ``(g, field, exhaustion, hyp)`` with ``hyp`` the summary for the
    ``# hypotheses:`` line.  A failing clause the command insists on exits 2,
    or only warns under ``--override``.
    """
    g, field, exhaustion = _inputs(args, radius)
    report = validate_hypotheses(g, field, exhaustion=exhaustion)
    failing = [c for c in report.failures() if c in _GATED_CLAUSES[args.command]]
    if not failing:
        return g, field, exhaustion, "pass"
    clause_list = ",".join(map(str, failing))
    if not args.override:
        raise _Exit(
            2,
            f"hypothesis validation failed: clause(s) {clause_list}; "
            "rerun with --override to proceed anyway",
        )
    print(
        f"warning: proceeding despite failed hypothesis clause(s) {clause_list}",
        file=sys.stderr,
    )
    return g, field, exhaustion, f"FAIL clauses {clause_list} (overridden)"


# --- output ----------------------------------------------------------------------


def _open_out(args: argparse.Namespace):
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout)


def _preamble(args: argparse.Namespace, *lines: str) -> str:
    """The ``#`` block: tool version and command, then ``lines``."""
    head = (f"graphsl {__version__}", f"command: {args.command}")
    return "".join(f"# {line}\n" for line in head + lines)


def _emit(args: argparse.Namespace, hyp: str, comments, header, rows, text=()) -> None:
    """Write the ``#`` block, the header and ``rows``, then the CSV strings in ``text``."""
    with _open_out(args) as fh:
        run = (f"config: {_echo(args)}", f"hypotheses: {hyp}")
        fh.write(_preamble(args, *run, *comments))
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


def cmd_spectrum(args: argparse.Namespace) -> int:
    g, field, exhaustion, hyp = _setup(args, max(args.levels) if args.levels else None)
    host_boundary = not args.no_boundary_dirichlet
    report = inf_spectrum(
        g, field, exhaustion, host_boundary=host_boundary, h=args.h, tol=args.tol, levels=args.levels
    )
    _warn_touched(report)
    comments = [
        f"estimate: {report.estimate!r}",
        f"error-proxy: {report.error_proxy!r}",
        f"bc: {'dirichlet' if host_boundary else 'free'}",
    ]
    rows = [(row.level, repr(row.value)) for row in report.rows]
    _emit(args, hyp, comments, ["n", "lambda"], rows)
    return 0


def cmd_persson(args: argparse.Namespace) -> int:
    g, field, exhaustion, hyp = _setup(args, max(args.outer))
    host_boundary = not args.no_boundary_dirichlet
    trace = persson_limit(
        g, field, exhaustion, args.levels, args.outer, host_boundary=host_boundary, h=args.h, tol=args.tol
    )
    _warn_touched(trace)
    comments = [
        f"estimate: {trace.estimate!r}",
        f"bracket: {trace.bracket[0]!r},{trace.bracket[1]!r}",
        f"bc: {'dirichlet' if host_boundary else 'free'}",
    ]
    rows = [
        (row.inner, row.outer, repr(row.value), repr(row.residual)) for row in trace.rows
    ]
    _emit(args, hyp, comments, ["n", "N", "lambda", "residual"], rows)
    return 0


def cmd_ap_check(args: argparse.Namespace) -> int:
    g, field, exhaustion, hyp = _setup(args, max(args.level, 1))
    result = ap_check(g, field, exhaustion, args.lam, args.level, h=args.h, tol=args.tol)
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
        args,
        hyp,
        [],
        ["kind", "lambda", "level", "bottom", "margin", "min_value", "max_value"],
        rows,
    )
    return 0


def cmd_positive_solution(args: argparse.Namespace) -> int:
    g, field, exhaustion, hyp = _setup(args, max(args.level, 1))
    cert = positive_solution(
        g, field, exhaustion, args.lam, args.level, h=args.h, tol=args.tol
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
        args,
        hyp,
        comments,
        ["kind", "id", "offset", "value"],
        _certificate_rows(cert),
        _certificate_edge_text(cert),
    )
    return 0


def _certificate_rows(cert):
    """One CSV row per vertex, in dof order (sorted vertex order); the interior nodes follow them."""
    mesh, values = cert.mesh, cert.values
    for v, d in mesh.vertex_dof.items():
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


def cmd_sobolev(args: argparse.Namespace) -> int:
    g, field, exhaustion, hyp = _setup(args)
    rows = []
    for eps in args.epsilon:
        est = sobolev_constant(g, field, eps)
        rows.append(
            (repr(est.epsilon), repr(est.delta), repr(est.window_mass), repr(est.constant))
        )
    _emit(args, hyp, [], ["epsilon", "delta", "c", "C"], rows)
    return 0


_CLAUSE_TEXT = {
    1: "local integrability (1/p power, q, w)",
    2: "weight bounded below outside a compact subgraph",
    3: "edge lengths bounded below",
    4: "negative part of q uniformly integrable over edges",
}


def cmd_validate(args: argparse.Namespace) -> int:
    g, field, exhaustion = _inputs(args)
    report = validate_hypotheses(g, field, exhaustion=exhaustion)
    measured = {
        1: f"total int (1/p)^eta = {report.inv_p_power_total!r} (eta={report.eta!r})",
        2: f"essinf w outside compact = {report.essinf_w_outside!r} "
        f"(compact: {sorted(report.compact) if report.compact else '[]'})",
        3: f"d_* = {report.min_edge_length!r}",
        4: f"sup_e int q_- = {report.sup_edge_neg_q!r}",
    }
    with _open_out(args) as fh:
        fh.write(_preamble(args, f"config: {_echo(args)}"))
        for clause in sorted(report.flags):
            status = "PASS" if report.flags[clause] else "FAIL"
            fh.write(f"clause {clause} ({_CLAUSE_TEXT[clause]}): {status}  {measured[clause]}\n")
            if not report.flags[clause]:
                fh.writelines(f"  {line}\n" for line in report.details.get(clause, ()))
        fh.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
    if not report.passed:
        failing = ",".join(map(str, report.failures()))
        print(f"hypothesis validation failed: clause(s) {failing}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    buffer = io.StringIO()
    buffer.write(_preamble(args, f"seed: {args.seed}"))
    failures = run_suite(args.seed, stream=buffer)
    text = buffer.getvalue()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if failures else 0


# each command: its function, its help line and the options it reads
_COMMANDS = {
    "spectrum": (cmd_spectrum, "Dirichlet-truncation trace of the spectral bottom", _SWEEP),
    "persson": (cmd_persson, "annulus exhaustion of the essential-spectrum bottom", _SWEEP + ("--outer",)),
    "ap-check": (cmd_ap_check, "positive-solution test of a trial value", _TRIAL),
    "positive-solution": (cmd_positive_solution, "construct a positive solution certificate", _TRIAL),
    "sobolev": (cmd_sobolev, "edgewise sup-bound constants", _SOLVING + ("--epsilon",)),
    "validate": (cmd_validate, "structural hypothesis report", ("--graph", "--coeffs", "--root", "--out")),
    "verify": (cmd_verify, "seeded self-check suite", ("--seed", "--out")),
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args, unknown = parser.parse_known_args(_attached(argv))
    # an unrecognized option or a value error prints the command's usage, as
    # argparse's own errors do
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if unknown:
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    args = _checked(commands[args.command], args)
    try:
        return _COMMANDS[args.command][0](args)
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
