"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# --- order statistics and self time ---------------------------------------------


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert analysis.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert analysis.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_tail_needs_ten_samples_beyond_it():
    assert analysis.tail([float(i) for i in range(20)]) is None
    pct, value = analysis.tail([float(i) for i in range(1, 31)])
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert value == 20.0  # 21..30 lie beyond it


def _span(name, start, end, parent=-1, counts=None):
    return [name, start, end, parent, 0, counts]


def test_self_time_subtracts_merged_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("fem.assemble", 1.0, 3.0, 0),
        _span("fem.kernel", 1.5, 2.0, 1),
        _span("eig.solve", 2.0, 5.0, 0),  # overlaps its sibling by one second
        _span("cli.output", 9.0, 12.0, 0),  # sticks out of its parent
    ]
    assert analysis.self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 3.0, 3.0])


def test_layer_metrics_assign_the_whole_wall_time():
    spans = [
        _span("cli.import", 0.0, 0.5),
        _span("cli.main", 0.5, 4.0),
        _span("graph.load", 0.6, 0.8, 1, {"vertices": 10, "edges": 9}),
        _span("spectral.inf_spectrum", 1.0, 3.5, 1),
        _span("fem.mesh", 1.0, 1.2, 3, {"edges": 9, "dofs": 50}),
        _span("fem.mesh", 1.2, 1.3, 3, {"edges": 3, "dofs": 20}),
        _span("eig.solve", 1.5, 3.0, 3, {"dofs": 50, "nnz": 148, "applies": 7,
                                          "shift": -3.0, "value": 2.0, "residual": 1e-11}),
        _span("eig.factor", 1.6, 1.7, 6, {"lu_nnz": 200, "a_nnz": 148}),
    ]
    record = {"spans": spans, "distinct_edges_meshed": 9}
    m = analysis.layer_metrics(record, wall_s=4.5, output_bytes=123)
    assert m["graph.distance_matrix_mb"] == pytest.approx(10 * 10 * 8 / 1e6)
    assert m["fem.remesh_ratio"] == pytest.approx(12 / 9)
    assert m["eig.shift_gap"] == pytest.approx(2.5)
    assert m["eig.lu_fill"] == pytest.approx(200 / 148)
    assert m["spectral.self_s"] == pytest.approx(2.5 - 0.3 - 1.5)
    assert m["layer.cli_s"] == pytest.approx(0.5 + 3.5 - 0.2 - 2.5)
    layers = sum(m[f"layer.{layer}_s"] for layer in analysis.LAYERS)
    assert layers + m["layer.unassigned_s"] == pytest.approx(4.5)
    assert m["layer.unassigned_s"] == pytest.approx(0.5)


def test_coverage_reports_missing_and_unexpected_spans():
    spans = [_span("cli.import", 0, 1), _span("cli.main", 0, 1), _span("fem.kirchhoff", 0, 1)]
    problems = analysis.coverage_problems(spans, frozenset({"cli.main", "fem.assemble"}))
    assert problems == ["span fem.assemble never fired", "span fem.kirchhoff fired unexpectedly"]


# --- correctness gate -------------------------------------------------------------


def _spectrum_csv(values):
    lines = [f"# estimate: {values[-1]!r}", f"# error-proxy: {abs(values[-2] - values[-1])!r}"]
    lines.append("n,lambda")
    lines += [f"{n},{v!r}" for n, v in zip(range(2, 13, 2), values)]
    return "\n".join(lines) + "\n"


SPECTRUM = [0.95, 0.39, 0.26, 0.21, 0.18, 0.16]


def test_gate_passes_a_monotone_spectrum_and_its_reference():
    workload = WORKLOADS["spectrum-bigtree"]
    text = _spectrum_csv(SPECTRUM)
    reference = gate.reference_values("spectrum", gate.parse_csv(text))
    assert gate.check(workload, text, {}, reference) == []


def test_gate_rejects_a_perturbed_eigenvalue():
    workload = WORKLOADS["spectrum-bigtree"]
    reference = gate.reference_values("spectrum", gate.parse_csv(_spectrum_csv(SPECTRUM)))
    perturbed = list(SPECTRUM)
    perturbed[3] += 1e-4  # still monotone: only the reference catches it
    problems = gate.check(workload, _spectrum_csv(perturbed), {}, reference)
    assert len(problems) == 1 and "number 3" in problems[0]
    # within --tol of the reference is not a failure
    perturbed[3] = SPECTRUM[3] + 1e-8
    assert gate.check(workload, _spectrum_csv(perturbed), {}, reference) == []


def test_gate_rejects_an_increasing_truncation_trace():
    workload = WORKLOADS["spectrum-bigtree"]
    values = list(SPECTRUM)
    values[4] = 0.25
    problems = gate.check(workload, _spectrum_csv(values), {})
    assert any("increases after level 8" in p for p in problems)


def _persson_csv(bump=0.0):
    rows = []
    for n in (1, 2, 4, 8):
        for big_n in range(10, 61, 10):
            rows.append((n, big_n, 0.6 + 0.01 * n + 0.1 / big_n))
    rows[2] = (rows[2][0], rows[2][1], rows[2][2] + bump)
    last = rows[-1][2]
    lines = [f"# estimate: {last!r}", f"# bracket: {last - 0.01!r},{last!r}", "n,N,lambda,residual"]
    lines += [f"{n},{big_n},{v!r},1e-11" for n, big_n, v in rows]
    return "\n".join(lines) + "\n"


def test_gate_checks_annulus_monotonicity():
    workload = WORKLOADS["persson-path"]
    assert gate.check(workload, _persson_csv(), {}) == []
    problems = gate.check(workload, _persson_csv(bump=0.1), {})
    assert any("increase in the outer level at (1,30)" in p for p in problems)


GRAPH = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "e1", "from": "a", "to": "b", "length": 0.04},
        {"id": "e2", "from": "b", "to": "c", "length": 0.04},
    ],
    "root": "b",
}


def _certificate_csv(rows):
    values = [float(r[3]) for r in rows]
    lines = [
        "# lambda: -1.0",
        "# dirichlet-bottom: -0.5",
        f"# min: {min(values)!r}",
        f"# max: {max(values)!r}",
        "# max-kirchhoff-residual: np.float64(0.0)",
        "kind,id,offset,value",
    ]
    return "\n".join(lines + [",".join(r) for r in rows]) + "\n"


CERT_ROWS = [
    ("vertex", "a", "", "0.5"),
    ("vertex", "b", "", "1.0"),
    ("vertex", "c", "", "0.5"),
    ("edge", "e1", "0.02", "0.8"),
    ("edge", "e2", "0.02", "0.8"),
]


def test_gate_passes_a_positive_certificate():
    assert gate.check(WORKLOADS["certificate-tree"], _certificate_csv(CERT_ROWS), GRAPH) == []


def test_gate_rejects_a_flipped_certificate_kind():
    rows = list(CERT_ROWS)
    rows[3] = ("vertex", "e1", "0.02", "0.8")
    problems = gate.check(WORKLOADS["certificate-tree"], _certificate_csv(rows), GRAPH)
    assert problems == ["row 3: vertex e1 where the mesh has edge e1"]


def test_gate_rejects_a_nonpositive_certificate():
    rows = list(CERT_ROWS)
    rows[4] = ("edge", "e2", "0.02", "-0.1")
    problems = gate.check(WORKLOADS["certificate-tree"], _certificate_csv(rows), GRAPH)
    assert any("not positive" in p for p in problems)


def test_gate_reports_malformed_output():
    problems = gate.check(WORKLOADS["spectrum-bigtree"], "n,lambda\n2\n", {})
    assert any("malformed" in p for p in problems)


# --- workloads and the benchmark description ---------------------------------------


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert workload.inputs(4) == workload.inputs(4)
        assert workload.inputs(4) != workload.inputs(5)
        graph, _ = workload.inputs(4)
        assert all(0.97 <= e["length"] <= 1.0 for e in graph["edges"])


def test_benchmark_json_matches_the_code():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in benchmark["workloads"]} <= set(WORKLOADS)
    for spec in benchmark["end_to_end"]:
        assert spec["unit"] == run.unit(spec["name"])
        assert hasattr(run.Sample(1.0, 1.0, 1.0, 1.0, 0, None, []), spec["name"])
    record = {"spans": [], "distinct_edges_meshed": 0}
    produced = set(analysis.layer_metrics(record, 1.0, 0)) | {"trace.overhead_s"}
    for spec in benchmark["per_layer"]:
        assert spec["name"] in produced
        assert spec["unit"] == run.unit(spec["name"])
