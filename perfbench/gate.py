"""Correctness gate for one CSV the CLI wrote.

Every run is checked against invariants of its command:

* ``spectrum``: the requested levels in order, and a truncation trace that
  does not increase;
* ``persson``: annulus rows that do not increase in the outer level, final
  values that do not decrease in the inner level, residuals within --tol;
* ``positive-solution``: one row per mesh node of the whole graph, in the
  CLI's order, and every value strictly positive (the certificate).

On the reference seed each number must also match the recorded reference
within a tolerance derived from --tol, never bitwise: refactors that
reorder floating-point sums legitimately move the last bits.

The ``max-kirchhoff-residual`` comment is not parsed.  Under numpy 2 the
CLI prints it as ``np.float64(...)``; that is a known program defect.
"""

from __future__ import annotations

import csv
import io
import math

from workloads import TOL, cell_count

# Outputs of one command: {"comments": {key: text}, "header": [...], "rows": [[...]]}.


def parse_csv(text: str) -> dict:
    comments = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if sep:
                comments[key] = value
        else:
            body.append(line)
    table = list(csv.reader(io.StringIO("\n".join(body))))
    return {"comments": comments, "header": table[0] if table else [], "rows": table[1:]}


def value_tol(ref: float) -> float:
    """Allowed distance of a solver result from its reference."""
    return TOL * max(1.0, abs(ref))


def _number(text: str, what: str, problems: list) -> float:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: {text!r} is not a number")
        return math.nan
    if not math.isfinite(value):
        problems.append(f"{what}: {text!r} is not finite")
    return value


def _option(options: list, flag: str) -> str:
    return options[options.index(flag) + 1]


def _levels(options: list, flag: str) -> list[int]:
    return [int(part) for part in _option(options, flag).split(",")]


def _close(problems: list, what: str, got: float, ref: float, tol: float) -> None:
    if not abs(got - ref) <= tol:
        problems.append(f"{what}: {got!r} differs from reference {ref!r} by more than {tol:.1e}")


def _check_spectrum(out, options, problems):
    if out["header"] != ["n", "lambda"]:
        problems.append(f"header {out['header']}")
        return
    levels = [int(row[0]) for row in out["rows"]]
    if levels != _levels(options, "--levels"):
        problems.append(f"levels {levels} differ from the requested ones")
    values = [_number(row[1], f"level {row[0]}", problems) for row in out["rows"]]
    for (n, prev), value in zip(zip(levels, values), values[1:]):
        if value > prev + value_tol(prev):
            problems.append(f"truncation trace increases after level {n}: {prev!r} -> {value!r}")
    estimate = _number(out["comments"].get("estimate", "nan"), "estimate", problems)
    if values and estimate != values[-1]:
        problems.append(f"estimate {estimate!r} is not the last level's value {values[-1]!r}")


def _check_persson(out, options, problems):
    if out["header"] != ["n", "N", "lambda", "residual"]:
        problems.append(f"header {out['header']}")
        return
    inner = _levels(options, "--levels")
    outer = _levels(options, "--outer")
    finals = {}
    prev_pair, prev_value = None, None
    for row in out["rows"]:
        n, big_n = int(row[0]), int(row[1])
        value = _number(row[2], f"annulus ({n},{big_n})", problems)
        residual = _number(row[3], f"residual ({n},{big_n})", problems)
        if n not in inner or big_n not in outer or big_n <= n:
            problems.append(f"annulus ({n},{big_n}) was not requested")
        if not residual <= TOL:
            problems.append(f"annulus ({n},{big_n}) residual {residual!r} above --tol")
        if prev_pair is not None and prev_pair[0] == n:
            if big_n <= prev_pair[1]:
                problems.append(f"outer levels out of order at ({n},{big_n})")
            if value > prev_value + value_tol(prev_value):
                problems.append(f"annulus values increase in the outer level at ({n},{big_n})")
        elif prev_pair is not None and n <= prev_pair[0]:
            problems.append(f"inner levels out of order at ({n},{big_n})")
        prev_pair, prev_value = (n, big_n), value
        finals[n] = value
    if sorted(finals) != inner:
        problems.append(f"inner levels {sorted(finals)} differ from the requested {inner}")
    ordered = [finals[n] for n in sorted(finals)]
    for prev, value in zip(ordered, ordered[1:]):
        if value < prev - value_tol(prev):
            problems.append(f"per-level values decrease in the inner level: {prev!r} -> {value!r}")
    estimate = _number(out["comments"].get("estimate", "nan"), "estimate", problems)
    lower, _, upper = out["comments"].get("bracket", "nan,nan").partition(",")
    lower = _number(lower, "bracket lower end", problems)
    upper = _number(upper, "bracket upper end", problems)
    if ordered and not (lower <= upper == estimate == ordered[-1]):
        problems.append(f"bracket [{lower!r}, {upper!r}] does not end at the estimate {estimate!r}")


def _check_certificate(out, options, graph, problems):
    if out["header"] != ["kind", "id", "offset", "value"]:
        problems.append(f"header {out['header']}")
        return
    h = float(_option(options, "--h"))
    lam = float(_option(options, "--lambda"))
    expected = [("vertex", v, None) for v in sorted(graph["vertices"])]
    for edge in sorted(graph["edges"], key=lambda e: e["id"]):
        m = cell_count(edge["length"], h)
        expected += [("edge", edge["id"], edge["length"] * j / m) for j in range(1, m)]
    rows = out["rows"]
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, the mesh has {len(expected)} nodes")
        return
    values = []
    for i, (row, (kind, ident, offset)) in enumerate(zip(rows, expected)):
        if row[0] != kind or row[1] != ident:
            problems.append(f"row {i}: {row[0]} {row[1]} where the mesh has {kind} {ident}")
            return
        if offset is None:
            if row[2] != "":
                problems.append(f"row {i}: vertex {ident} carries an offset")
        elif not abs(_number(row[2], f"row {i} offset", problems) - offset) <= 1e-9:
            problems.append(f"row {i}: offset {row[2]} on edge {ident}, mesh node at {offset!r}")
        values.append(_number(row[3], f"row {i} value", problems))
    low = min(values)
    if not low > 0:
        problems.append(f"certificate is not positive: minimum value {low!r}")
    comments = out["comments"]
    for key, got in (("min", low), ("max", max(values))):
        if _number(comments.get(key, "nan"), key, problems) != got:
            problems.append(f"{key} comment {comments.get(key)} does not match the rows ({got!r})")
    if values[sorted(graph["vertices"]).index(graph["root"])] != 1.0:
        problems.append("certificate is not normalized to one at the root")
    if _number(comments.get("lambda", "nan"), "lambda", problems) != lam:
        problems.append(f"lambda comment {comments.get('lambda')} is not the trial value {lam!r}")
    bottom = _number(comments.get("dirichlet-bottom", "nan"), "dirichlet-bottom", problems)
    if not lam < bottom - TOL:
        problems.append(f"trial value {lam!r} is not below the Dirichlet bottom {bottom!r}")


def reference_values(command: str, out: dict) -> list[float]:
    """The numbers a reference records for one output, in a fixed order."""
    comments = out["comments"]
    if command == "spectrum":
        return [float(row[1]) for row in out["rows"]] + [float(comments["error-proxy"])]
    if command == "persson":
        return [float(row[2]) for row in out["rows"]] + [
            float(x) for x in comments["bracket"].split(",")
        ]
    return [float(row[3]) for row in out["rows"]] + [float(comments["dirichlet-bottom"])]


def check(workload, text: str, graph: dict, reference: list | None = None) -> list[str]:
    """Problems found in one CSV; an empty list passes the gate."""
    problems: list[str] = []
    try:
        out = parse_csv(text)
        if workload.command == "spectrum":
            _check_spectrum(out, workload.options, problems)
        elif workload.command == "persson":
            _check_persson(out, workload.options, problems)
        else:
            _check_certificate(out, workload.options, graph, problems)
        if reference is not None and not problems:
            got = reference_values(workload.command, out)
            if len(got) != len(reference):
                problems.append(f"{len(got)} numbers, the reference has {len(reference)}")
            for i, (value, ref) in enumerate(zip(got, reference)):
                # an error proxy or bracket end is a difference of two values
                _close(problems, f"number {i}", value, ref, 2.0 * value_tol(ref))
    except (IndexError, KeyError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems[:20]
