"""Acceptance gate: one test per primary contract, one printed line each.

The contracts are the analytic oracles on the interval and the star, the
positive-solution consistency sweep, the annulus exhaustion, the exact
pencil identities, the Sobolev inequality and the dense-oracle gate.  Each
test exercises a full pipeline (load, mesh, assemble, solve, report)
against an analytic oracle, an exact identity or a proved inequality,
measures its own runtime against the stated budget, and prints a single
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
lines while the suite runs.
"""

import math
import time

import numpy as np
from oracles import dirichlet_vertices, mesh_samples

from graphsl.coeff import load_coefficients
from graphsl.eig import dense_reference, smallest_eigenpair, solve_pencil
from graphsl.families import ladder, path, star, tree
from graphsl.fem import (
    assemble,
    build_mesh,
    kirchhoff_residual,
)
from graphsl.graph import build_exhaustion, load_graph
from graphsl.spectral import (
    ap_check,
    inf_spectrum,
    persson_limit,
    sobolev_constant,
)


def _finish(name: str, start: float, budget: float, checks: list):
    """Print the one-line verdict, then fail loudly on any broken check."""
    elapsed = time.perf_counter() - start
    bad = [msg for ok, msg in checks if not ok]
    timed_out = elapsed >= budget
    status = "FAIL" if bad or timed_out else "PASS"
    budget_note = f", budget {budget:g}s" if math.isfinite(budget) else ""
    print(f"{status} {name} ({elapsed:.2f}s{budget_note})")
    assert not bad, f"{name}: " + "; ".join(bad)
    assert not timed_out, f"{name}: {elapsed:.2f}s exceeded {budget:g}s budget"


def _dirichlet_piece(g, doc, h):
    """The mesh of ``g`` and its Dirichlet pencil, cut at the leaves."""
    mesh = build_mesh(g, h)
    return mesh, assemble(mesh, load_coefficients(doc, g)).restrict(mesh.edge_ids, host_boundary=True)


def _dirichlet_bottom(g, doc, h):
    """The Dirichlet eigenpair, with the eigenvector lifted to every dof of the mesh."""
    mesh, piece = _dirichlet_piece(g, doc, h)
    res = smallest_eigenpair(piece, tol=1e-10)
    vector = np.zeros(mesh.n_free)
    vector[mesh.free_dofs(mesh.edge_ids, host_boundary=True)] = res.vector
    return res, mesh, vector


def test_interval_oracle():
    start = time.perf_counter()
    g = load_graph(path(1))
    res_h, _, _ = _dirichlet_bottom(g, {}, 1.0 / 200.0)
    res_h2, _, _ = _dirichlet_bottom(g, {}, 1.0 / 400.0)
    err_h = res_h.value - math.pi**2
    err_h2 = res_h2.value - math.pi**2
    ratio = err_h / err_h2
    _finish(
        "interval-oracle",
        start,
        1.0,
        [
            (abs(err_h) <= 1e-3, f"|lambda - pi^2| = {abs(err_h):.3e} > 1e-3"),
            (3.6 <= ratio <= 4.4, f"h->h/2 error ratio {ratio:.3f} outside [3.6, 4.4]"),
        ],
    )


def test_star_oracle():
    start = time.perf_counter()
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    exact = (math.pi / 2.0) ** 2
    values = {}
    fluxes = {}
    for h in (0.02, 0.01):
        res, mesh, vector = _dirichlet_bottom(g, {}, h)
        values[h] = res.value
        fluxes[h] = kirchhoff_residual(mesh, field, vector, ["c"])["c"]
    err = abs(values[0.02] - exact)
    _finish(
        "star-oracle",
        start,
        2.0,
        [
            (err <= 1e-3, f"|lambda - (pi/2)^2| = {err:.3e} > 1e-3"),
            (
                fluxes[0.01] < fluxes[0.02],
                f"center flux imbalance did not decrease: {fluxes[0.02]:.3e} -> {fluxes[0.01]:.3e}",
            ),
        ],
    )


def test_ap_consistency_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    # the ladder has no degree-one vertices, so probe a proper truncation there
    fixtures = [(path(1), 1), (star(3), 1), (path(8), 8), (tree(2), 2), (ladder(3), 2)]
    tol = 1e-6
    h = 0.05
    contradictions = []
    nonpositive = []
    total = 0
    for doc, level in fixtures:
        g = load_graph(doc)
        radius = max(1, int(math.ceil(max(g.vertex_distances(g.root).values()) - 1e-12)))
        ex = build_exhaustion(g, g.root, radius)
        field = load_coefficients({}, g)
        bottom = ap_check(g, field, ex, 0.0, level, h=h, tol=tol).dirichlet_bottom
        for lam in rng.uniform(bottom - 3.0, bottom + 3.0, size=20):
            res = ap_check(g, field, ex, float(lam), level, h=h, tol=tol)
            total += 1
            want_cert = lam < res.dirichlet_bottom - tol
            want_refu = lam > res.dirichlet_bottom + tol
            if (res.kind == "certificate") != want_cert or (res.kind == "refutation") != want_refu:
                contradictions.append((g.root, float(lam), res.kind))
            if res.cert is not None and not res.cert.min_value > 0:
                nonpositive.append((g.root, float(lam), res.cert.min_value))
    _finish(
        "ap-consistency-suite",
        start,
        30.0,
        [
            (total == 100, f"expected 100 trials, ran {total}"),
            (not contradictions, f"kind/threshold contradictions: {contradictions[:3]}"),
            (not nonpositive, f"certificates with nonpositive minimum: {nonpositive[:3]}"),
        ],
    )


def test_persson_suite():
    start = time.perf_counter()
    g = load_graph(path(40))
    ex = build_exhaustion(g, "v00", 40)
    free = load_coefficients({}, g)
    well = load_coefficients({"e01": {"q": -5.0}}, g)
    h = 0.02
    inner = [1, 2, 4]
    outer = [10, 15, 20, 25, 30]
    checks = []

    trace = persson_limit(g, free, ex, inner, outer, h=h, tol=1e-8)
    cap = 10.0 * (math.pi / (max(outer) - max(inner))) ** 2
    checks.append(
        (trace.estimate <= cap, f"estimate {trace.estimate:.5f} above 10x oracle {cap:.5f}")
    )
    by_inner = {}
    for row in trace.rows:
        by_inner.setdefault(row.inner, []).append(row.value)
    down_in_outer = all(
        all(a > b for a, b in zip(vals, vals[1:])) for vals in by_inner.values()
    )
    finals = [vals[-1] for _, vals in sorted(by_inner.items())]
    up_in_inner = all(a <= b for a, b in zip(finals, finals[1:]))
    checks.append((down_in_outer, "annulus values not strictly decreasing in N"))
    checks.append((up_in_inner, "per-level values not nondecreasing in n"))

    # a compactly supported well flips the spectral bottom negative ...
    bottom_free = inf_spectrum(g, free, ex, h=h, levels=[6]).estimate
    bottom_well = inf_spectrum(g, well, ex, h=h, levels=[6]).estimate
    checks.append(
        (bottom_free > 0 > bottom_well,
         f"expected sign flip, got {bottom_free:.4f} and {bottom_well:.4f}"),
    )

    # ... while every annulus with n >= 1 never samples the well edge
    identical = True
    for n, N in [(1, 10), (2, 15), (4, 30)]:
        edge_ids = ex.annulus(n, N)
        boundary = dirichlet_vertices(g, edge_ids, False)
        mesh = build_mesh(g, h, edges=edge_ids)
        kept = np.setdiff1d(np.arange(mesh.n_free), [mesh.vertex_dof[v] for v in boundary])
        mats = []
        for field in (free, well):
            forms = assemble(mesh, field)
            mats.append((forms.K[kept][:, kept], forms.M[kept][:, kept]))
        for a, b in zip(mats[0], mats[1]):
            same = (
                np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data)
            )
            identical = identical and same
    checks.append((identical, "well run produced different annulus pencils"))

    trace_well = persson_limit(g, well, ex, inner, outer, h=h, tol=1e-8)
    rows_match = [(r.inner, r.outer, r.value) for r in trace.rows] == [
        (r.inner, r.outer, r.value) for r in trace_well.rows
    ]
    checks.append((rows_match, "well run changed persson rows"))
    _finish("persson-suite", start, 60.0, checks)


def test_exact_pencil_identities():
    start = time.perf_counter()
    g = load_graph(path(6))
    ex = build_exhaustion(g, "v00", 6)
    h = 0.05
    levels = [2, 4, 6]
    c = 0.7
    base = inf_spectrum(g, load_coefficients({}, g), ex, h=h, levels=levels, tol=1e-10)
    shifted = inf_spectrum(
        g, load_coefficients({"default": {"q": c}}, g), ex, h=h, levels=levels, tol=1e-10
    )
    scaled = inf_spectrum(
        g,
        load_coefficients({"default": {"p": 0.3, "q": 0.0, "w": 0.3}}, g),
        ex,
        h=h,
        levels=levels,
        tol=1e-10,
    )
    checks = []
    for b, s in zip(base.rows, shifted.rows):
        drift = abs((s.value - b.value) - c)
        checks.append(
            (drift <= 1e-12, f"level {b.level}: shift drift {drift:.2e} > 1e-12")
        )
    for b, s in zip(base.rows, scaled.rows):
        rel = abs(s.value - b.value) / max(1.0, abs(b.value))
        checks.append(
            (rel <= 1e-12, f"level {b.level}: scaling drift {rel:.2e} > 1e-12")
        )
    _finish("exact-pencil-identities", start, math.inf, checks)


def test_sobolev_suite():
    start = time.perf_counter()
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    epsilons = [0.25, 0.5, 1.0, 2.0]
    estimates = [sobolev_constant(g, field, eps) for eps in epsilons]
    constants = [est.constant for est in estimates]
    monotone = all(a >= b for a, b in zip(constants, constants[1:]))

    s = mesh_samples(build_mesh(g, 0.05), field)
    rng = np.random.default_rng(271828)
    violations = 0
    for _ in range(200):
        f = rng.normal(size=s.mesh.n_free)
        value, slope = s.p1(f)
        grad = s.edge_sums(s.wq * s.p * slope**2)
        mass = s.edge_sums(s.wq * s.w * value**2)
        sup2 = s.edge_sup(f) ** 2
        for est in estimates:
            violations += int(
                np.count_nonzero(sup2 > (est.epsilon * grad + est.constant * mass) * (1 + 1e-12))
            )
    _finish(
        "sobolev-suite",
        start,
        math.inf,
        [
            (violations == 0, f"{violations} per-edge inequality violations"),
            (monotone, f"constants not nonincreasing in epsilon: {constants}"),
        ],
    )


def test_dense_oracle_gate():
    start = time.perf_counter()
    cases = [
        (path(1), {}, 0.01),
        (star(3), {}, 0.021),
        (path(4), {"default": {"q": {"piecewise": [[0, -2], [0.5, 1]]}}}, 0.05),
        (tree(2), {"default": {"p": {"expr": "1+0.3*x"}, "w": {"expr": "exp(-x)"}}}, 0.1),
        (ladder(3), {"default": {"q": -1.5}}, 0.1),
    ]
    tol = 1e-10
    checks = []
    for doc, coeffs, h in cases:
        _, piece = _dirichlet_piece(load_graph(doc), coeffs, h)
        checks.append(
            (piece.n <= 200, f"case exceeds the 200-dof gate: {piece.n}")
        )
        it = solve_pencil(piece.K, piece.M, tol=tol)
        dv, _ = dense_reference(piece)
        gap = abs(it.value - dv)
        limit = max(tol, 1e-10) * max(1.0, abs(dv))
        checks.append(
            (gap <= limit, f"{piece.n}-dof pencil: |iterative - dense| = {gap:.2e}")
        )
    _finish("dense-oracle-gate", start, math.inf, checks)
