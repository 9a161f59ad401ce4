"""Arithmetic on samples and spans: order statistics, self time, per-layer metrics."""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("graph", "coeff", "fem", "eig", "spectral", "cli")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """Highest percentile with at least ``beyond`` samples above it, and its value.

    None while there are too few samples for that percentile to lie above
    the median.
    """
    n = len(values)
    if n <= 2 * beyond:
        return None
    return 100.0 * (n - beyond) / n, sorted(values)[n - beyond - 1]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    A span is ``[name, start, end, parent index, run id, counts]``; children
    are merged as intervals, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def coverage_problems(spans: list[list], expected: frozenset) -> list[str]:
    """Spans that fired but should not have, and spans that should have fired."""
    fired = {span[0] for span in spans} - {"cli.import"}
    problems = [f"span {name} never fired" for name in sorted(expected - fired)]
    problems += [f"span {name} fired unexpectedly" for name in sorted(fired - expected)]
    return problems


def layer_metrics(record: dict, wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced child run."""
    spans = record["spans"]
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    entry_self = 0.0
    for span, own in zip(spans, selfs):
        name = span[0]
        total[name] += span[2] - span[1]
        calls[name] += 1
        if span[5]:
            counts[name].append(span[5])
        layer_self[name.split(".")[0]] += own
        if name.startswith("spectral.") and name != "spectral.cert_factor":
            entry_self += own

    def summed(name, key):
        return sum(c.get(key, 0) for c in counts[name])

    vertices = summed("graph.load", "vertices")
    cells = summed("fem.kernel", "cells")
    solves = counts["eig.solve"]
    m = {
        "graph.load_s": total["graph.load"],
        "graph.exhaustion_s": total["graph.exhaustion"],
        "graph.distance_matrix_mb": vertices * vertices * 8 / 1e6,
        "coeff.load_s": total["coeff.load"],
        "coeff.validate_s": total["coeff.validate"],
        "coeff.evaluate_s": total["coeff.evaluate"],
        "coeff.evaluate_calls": calls["coeff.evaluate"],
        "coeff.samples": summed("coeff.evaluate", "samples"),
        "fem.mesh_s": total["fem.mesh"],
        "fem.meshes": calls["fem.mesh"],
        "fem.remesh_ratio": summed("fem.mesh", "edges") / max(1, record["distinct_edges_meshed"]),
        "fem.assemble_s": total["fem.assemble"],
        "fem.assemblies": calls["fem.assemble"],
        "fem.cells": cells,
        "fem.cells_per_s": cells / total["fem.assemble"] if total["fem.assemble"] else 0.0,
        "fem.kernel_s": total["fem.kernel"],
        "fem.kirchhoff_s": total["fem.kirchhoff"],
        "fem.kirchhoff_calls": calls["fem.kirchhoff"],
        "eig.lower_bound_s": total["eig.lower_bound"],
        "eig.solves": len(solves),
        "eig.dofs": sum(c["dofs"] for c in solves),
        "eig.nnz": sum(c["nnz"] for c in solves),
        "eig.factor_s": total["eig.factor"],
        "eig.lu_fill": summed("eig.factor", "lu_nnz") / max(1, summed("eig.factor", "a_nnz")),
        "eig.lanczos_s": total["eig.lanczos"],
        "eig.lanczos_applies": sum(c["applies"] for c in solves),
        "eig.shift_gap": max(
            ((c["value"] - c["shift"]) / max(1.0, abs(c["value"])) for c in solves), default=0.0
        ),
        "eig.residual_max": max((c["residual"] for c in solves), default=0.0),
        "spectral.self_s": entry_self,
        "spectral.cert_factor_s": total["spectral.cert_factor"],
        "cli.import_s": total["cli.import"],
        "cli.output_s": total["cli.output"],
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = layer_self[layer]
    m["layer.unassigned_s"] = wall_s - sum(layer_self.values())
    return m
