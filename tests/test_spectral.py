import math
import weakref

import numpy as np
import pytest
from oracles import dirichlet_vertices, mesh_samples
from scipy.optimize import brentq

from graphsl.coeff import load_coefficients
from graphsl.errors import SolverError
from graphsl.families import cycle, path, star, tree
from graphsl.graph import build_exhaustion, load_graph
from graphsl.spectral import (
    _window_starts,
    ap_check,
    inf_spectrum,
    persson_limit,
    positive_solution,
    sobolev_constant,
)


@pytest.fixture(scope="module")
def halfline():
    g = load_graph(path(16))
    return g, build_exhaustion(g, "v00", 16)


@pytest.fixture(scope="module")
def star3():
    g = load_graph(star(3))
    return g, build_exhaustion(g, "c", 1)


# --- one mesh and one assembly per entry point -----------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda g, f, ex: inf_spectrum(g, f, ex, h=0.1, levels=[1, 2, 3]),
        lambda g, f, ex: persson_limit(g, f, ex, [1, 2], [4, 6, 8], h=0.1),
        lambda g, f, ex: ap_check(g, f, ex, -1.0, 3, h=0.1),
        lambda g, f, ex: positive_solution(g, f, ex, -1.0, 3, h=0.1),
    ],
    ids=["spectrum", "persson-1", "ap-check", "positive-solution"],
)
def test_entry_builds_one_mesh_and_one_assembly(halfline, monkeypatch, call):
    import graphsl.spectral as spectral

    calls = {"build_mesh": 0, "assemble": 0}

    def counting(name):
        original = getattr(spectral, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(spectral, name, counting(name))
    g, ex = halfline
    call(g, load_coefficients({}, g), ex)
    assert calls == {"build_mesh": 1, "assemble": 1}


# --- truncation sweep ---------------------------------------------------------


def test_interval_bottom_approximates_pi_squared(star3):
    g, ex = star3
    # star with three unit arms, Dirichlet leaves: bottom is pi^2/4 (cosine
    # on each arm, flat at the center)
    report = inf_spectrum(g, load_coefficients({}, g), ex, h=0.01, tol=1e-8)
    assert report.estimate == pytest.approx(math.pi**2 / 4.0, rel=1e-4)
    assert report.touched_host_boundary
    assert report.rows[-1].level == 1


def test_empty_levels_are_skipped(star3):
    g, ex = star3
    assert set(ex.level(0)) == set()
    report = inf_spectrum(g, load_coefficients({}, g), ex, h=0.05)
    assert [row.level for row in report.rows] == [1]
    assert report.error_proxy == math.inf


def test_truncation_values_decrease_along_exhaustion(halfline):
    g, ex = halfline
    report = inf_spectrum(
        g, load_coefficients({}, g), ex, h=0.05, levels=[2, 4, 8, 12]
    )
    values = [row.value for row in report.rows]
    assert values == sorted(values, reverse=True)
    # Dirichlet bottom of a length-n segment is (pi/n)^2
    for row in report.rows:
        assert row.value == pytest.approx((math.pi / row.level) ** 2, rel=5e-3)
    assert not report.touched_host_boundary
    assert report.error_proxy == pytest.approx(values[-2] - values[-1])


def test_inf_spectrum_seeds_each_level_from_the_next_larger(monkeypatch, halfline):
    import graphsl.spectral as spectral

    g, ex = halfline
    field = load_coefficients({"default": {"q": {"expr": "0.3*sin(x)"}}}, g)
    solves = []
    real = spectral.smallest_eigenpair

    def spy(piece, **kwargs):
        result = real(piece, **kwargs)
        solves.append((kwargs["lower"], result))
        return result

    monkeypatch.setattr(spectral, "smallest_eigenpair", spy)
    report = inf_spectrum(g, field, ex, h=0.05, levels=[2, 4, 8, 12])
    assert [row.level for row in report.rows] == [2, 4, 8, 12]
    # solved largest first; a level's pencil is a principal sub-pencil of
    # the next larger one's, so its bottom lies above that level's proof
    assert [result.value for _, result in solves] == [row.value for row in reversed(report.rows)]
    assert solves[0][0] == -math.inf
    for (_, larger), (lower, result) in zip(solves, solves[1:]):
        assert lower == larger.certified_lower
        assert result.value >= lower
    monkeypatch.undo()
    for level, (_, result) in zip((12, 8, 4, 2), solves):
        cold = inf_spectrum(g, field, ex, h=0.05, levels=[level]).estimate
        assert result.value == pytest.approx(cold, rel=1e-12)


def radial_tree_bottom(depth: int) -> float:
    """Dirichlet bottom of the unit binary ``tree(depth)`` with p = w = 1, q = 0.

    The ground state is radial: u(r) with u(0) = 1, u'(0) = 0 solves
    -u'' = lam u on each generation, one 2x2 transfer matrix per unit edge,
    and at an inner vertex the flux of one edge splits evenly over two, so
    u' halves there.  lam is the first root of u(depth) = 0.
    """

    def at_leaves(lam: float) -> float:
        k = math.sqrt(lam)
        c, s = math.cos(k), math.sin(k)
        u, du = 1.0, 0.0
        for generation in range(depth):
            if generation:
                du /= 2.0  # the two child edges share their parent's flux
            u, du = c * u + s / k * du, -k * s * u + c * du
        return u

    # the bottom lies below pi^2/4, the bottom of tree(1), a unit star of two arms
    grid = np.linspace(1e-6, math.pi**2 / 4.0, 2001)
    signs = np.sign([at_leaves(lam) for lam in grid])
    first = int(np.flatnonzero(signs[1:] != signs[:-1])[0])
    return brentq(at_leaves, grid[first], grid[first + 1], xtol=1e-16, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("depth, bottom", [(2, 0.9126298408648494), (8, 0.2015948069404249)])
def test_tree_bottom_converges_to_the_radial_oracle(depth, bottom):
    oracle = radial_tree_bottom(depth)
    assert oracle == pytest.approx(bottom, rel=1e-13)
    g = load_graph(tree(depth))
    field = load_coefficients({}, g)
    ex = build_exhaustion(g, "n0", depth)
    errors = [inf_spectrum(g, field, ex, h=h, tol=1e-12, levels=[depth]).estimate - oracle for h in (0.05, 0.025)]
    # P1 values lie above the bottom and converge at second order
    assert min(errors) >= -1e-12
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.2)


def test_mass_shift_moves_estimate_exactly(halfline):
    g, ex = halfline
    base = inf_spectrum(g, load_coefficients({}, g), ex, h=0.1, levels=[3])
    shifted = inf_spectrum(
        g, load_coefficients({"default": {"q": 2.5}}, g), ex, h=0.1, levels=[3]
    )
    delta = shifted.estimate - base.estimate
    assert delta == pytest.approx(2.5, abs=1e-11)


def test_requested_level_out_of_range(halfline):
    g, ex = halfline
    with pytest.raises(SolverError):
        inf_spectrum(g, load_coefficients({}, g), ex, levels=[99])


def test_host_boundary_is_keyword_only(star3):
    # a positional "free" or vertex set would otherwise read as a true flag
    g, ex = star3
    field = load_coefficients({}, g)
    for positional in ("free", frozenset({"l1"})):
        with pytest.raises(TypeError):
            inf_spectrum(g, field, ex, positional)
        with pytest.raises(TypeError):
            persson_limit(g, field, ex, [0], [1], positional)
    # without the host boundary the star's leaves are free: constants give 0
    assert inf_spectrum(g, field, ex, host_boundary=False, h=0.1).estimate == pytest.approx(0.0, abs=1e-9)


# --- positive solutions and the trial-value test --------------------------------


def test_cosh_profile_on_unit_segment(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    cert = positive_solution(g, field, ex, lam=-1.0, level=1, h=0.01)
    # -y'' - y = 0 with y=1 at both ends of a unit edge: cosh ridge with
    # extremal ratio cosh(1/2)
    assert cert.max_value / cert.min_value == pytest.approx(math.cosh(0.5), rel=1e-5)
    assert cert.max_value == pytest.approx(1.0, abs=1e-12)
    assert cert.boundary_vertices == frozenset({"v00", "v01"})
    assert cert.values[cert.mesh.vertex_dof["v00"]] == pytest.approx(1.0)
    assert cert.min_value > 0
    assert cert.lam == -1.0


def _on_level(cert, ex, m):
    """The certificate's nodal values on the edges of level ``m``."""
    mesh = cert.mesh
    level = set(ex.level(m))
    on_level = np.repeat([eid in level for eid in mesh.edge_ids], np.diff(mesh.start))
    return cert.values[mesh.dof[on_level]]


def test_flat_solutions_give_unit_bounds(halfline, star3):
    """lam = 0 gives y = 1 on every level of the half-line and on the star."""
    g, ex = halfline
    field = load_coefficients({}, g)
    for n in (4, 6, 8):
        cert = positive_solution(g, field, ex, lam=0.0, level=n, h=0.1)
        np.testing.assert_allclose(_on_level(cert, ex, 2), 1.0, rtol=0, atol=1e-12)
    g, ex = star3
    cert = positive_solution(g, load_coefficients({}, g), ex, lam=0.0, level=1, h=0.05)
    np.testing.assert_allclose(cert.values, 1.0, rtol=0, atol=1e-12)


def test_decaying_solutions_match_closed_form(halfline):
    """lam = -1/4 on the half-line gives, at level n, cosh((x - n/2)/2) / cosh(n/4):
    on level 2 its maximum is 1 at the root and its minimum is at x = 2,
    decreasing in n."""
    g, ex = halfline
    field = load_coefficients({}, g)
    minima = []
    for n in (4, 8, 12):
        values = _on_level(positive_solution(g, field, ex, lam=-0.25, level=n, h=0.02), ex, 2)
        assert values.max() == pytest.approx(1.0, abs=1e-10)
        assert values.min() == pytest.approx(math.cosh((n - 4) / 4.0) / math.cosh(n / 4.0), rel=2e-4)
        minima.append(values.min())
    assert minima == sorted(minima, reverse=True)


def test_positive_solution_rejects_value_at_or_above_bottom(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    with pytest.raises(SolverError):
        positive_solution(g, field, ex, lam=20.0, level=1, h=0.05)


def test_kirchhoff_matching_improves_with_mesh(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    residuals = []
    for h in (0.1, 0.05):
        cert = positive_solution(g, field, ex, lam=-0.5, level=3, h=h)
        residuals.append(max(cert.kirchhoff_residuals.values()))
    assert set(positive_solution(g, field, ex, -0.5, 3, h=0.1).kirchhoff_residuals) == {
        "v01",
        "v02",
    }
    assert residuals[1] < residuals[0]


# the root r has degree 1; a loop at a; a and m joined by two parallel
# edges; a degree-1 stub a-l; b at distance 2 has its edge to c outside level 2
CERT_MULTIGRAPH = {
    "vertices": ["r", "a", "m", "b", "l", "c"],
    "edges": [
        {"id": "e1", "from": "r", "to": "a", "length": 1.0},
        {"id": "loop", "from": "a", "to": "a", "length": 1.5},
        {"id": "p1", "from": "a", "to": "m", "length": 0.5},
        {"id": "p2", "from": "m", "to": "a", "length": 0.75},
        {"id": "mb", "from": "m", "to": "b", "length": 0.5},
        {"id": "stub", "from": "a", "to": "l", "length": 0.5},
        {"id": "far", "from": "b", "to": "c", "length": 1.0},
    ],
    "root": "r",
}


def test_certificate_boundary_on_a_multigraph_level():
    g = load_graph(CERT_MULTIGRAPH)
    ex = build_exhaustion(g, "r", 2)
    assert set(ex.level(2)) == {"e1", "loop", "p1", "p2", "mb", "stub"}
    cert = positive_solution(g, load_coefficients({}, g), ex, lam=-1.0, level=2, h=0.05)
    boundary = dirichlet_vertices(g, ex.level(2), True)
    assert boundary == {"r", "l", "b"}
    assert cert.boundary_vertices == boundary
    # the root is a boundary vertex, so the unit data survive the normalization exactly
    assert [cert.values[cert.mesh.vertex_dof[v]] for v in sorted(boundary)] == [1.0, 1.0, 1.0]
    assert list(cert.kirchhoff_residuals) == sorted(set(cert.mesh.vertex_dof) - boundary) == ["a", "m"]
    assert cert.min_value > 0


def test_ap_check_three_outcomes(star3):
    g, ex = star3
    field = load_coefficients({}, g)
    cert = ap_check(g, field, ex, lam=1.0, level=1, h=0.02)
    assert cert.kind == "certificate"
    assert cert.cert is not None and cert.cert.min_value > 0
    assert cert.margin < 0

    refut = ap_check(g, field, ex, lam=3.0, level=1, h=0.02)
    assert refut.kind == "refutation"
    assert refut.cert is None
    assert refut.margin > 0

    # feeding the discrete bottom back lands inside the tolerance band
    mid = ap_check(g, field, ex, lam=cert.dirichlet_bottom, level=1, h=0.02)
    assert mid.kind == "indeterminate"
    assert abs(mid.margin) <= 1e-6


def test_ap_outcomes_agree_with_bottom_ordering(halfline, rng):
    g, ex = halfline
    field = load_coefficients({"default": {"q": {"expr": "-1/(1+x)"}}}, g)
    probe = ap_check(g, field, ex, lam=0.0, level=2, h=0.05)
    bottom = probe.dirichlet_bottom
    for lam in rng.uniform(bottom - 2.0, bottom + 2.0, size=8):
        res = ap_check(g, field, ex, lam=float(lam), level=2, h=0.05)
        assert res.dirichlet_bottom == pytest.approx(bottom, abs=1e-12)
        if lam < bottom - 1e-6:
            assert res.kind == "certificate"
        elif lam > bottom + 1e-6:
            assert res.kind == "refutation"


@pytest.mark.parametrize("lam, kind", [(-1.0, "certificate"), (20.0, "refutation")])
def test_ap_check_frees_the_union_before_the_eigensolve(monkeypatch, lam, kind):
    import graphsl.spectral as spectral

    g = load_graph(tree(4))
    ex = build_exhaustion(g, "n0", 4)
    assembled, alive = [], []
    real_assemble, real_solve = spectral.assemble, spectral.smallest_eigenpair

    def assemble(*args, **kwargs):
        forms = real_assemble(*args, **kwargs)
        assembled.append(weakref.ref(forms))
        return forms

    def solve(*args, **kwargs):
        alive.extend(ref() is not None for ref in assembled)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "assemble", assemble)
    monkeypatch.setattr(spectral, "smallest_eigenpair", solve)
    result = ap_check(g, load_coefficients({}, g), ex, lam, 3, h=0.1)
    assert result.kind == kind
    assert alive == [False]


def test_ap_check_finds_the_level_dofs_once(monkeypatch):
    from graphsl.fem import GraphMesh

    g = load_graph(tree(4))
    calls = []
    real = GraphMesh.free_dofs

    def free_dofs(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(GraphMesh, "free_dofs", free_dofs)
    result = ap_check(g, load_coefficients({}, g), build_exhaustion(g, "n0", 4), -1.0, 3, h=0.1)
    assert result.kind == "certificate"
    assert len(calls) == 1


def test_ap_check_on_a_level_without_boundary():
    """On a closed cycle the whole graph has no Dirichlet vertex: only a certificate needs one."""
    g = load_graph(cycle(4))
    ex = build_exhaustion(g, "v0", 2)
    field = load_coefficients({}, g)
    refut = ap_check(g, field, ex, 1.0, 2, h=0.1)
    assert refut.kind == "refutation"
    # the free problem's bottom is 0, with the constants
    assert refut.dirichlet_bottom == pytest.approx(0.0, abs=1e-9)
    assert ap_check(g, field, ex, refut.dirichlet_bottom, 2, h=0.1).kind == "indeterminate"
    with pytest.raises(SolverError, match="^level has no boundary vertices; the lifted boundary problem is empty$"):
        ap_check(g, field, ex, -1.0, 2, h=0.1)


@pytest.mark.parametrize("lam", [math.nan, -math.inf, math.inf])
def test_ap_check_rejects_a_nonfinite_trial_value_before_any_work(monkeypatch, star3, lam):
    import graphsl.spectral as spectral

    def refuse(*args, **kwargs):
        raise AssertionError("assembled for a non-finite trial value")

    monkeypatch.setattr(spectral, "build_mesh", refuse)
    monkeypatch.setattr(spectral, "assemble", refuse)
    g, ex = star3
    field = load_coefficients({}, g)
    for check in (ap_check, positive_solution):
        with pytest.raises(SolverError, match=f"^trial value must be finite, got {lam!r}$"):
            check(g, field, ex, lam, 1, h=0.1)


# --- essential spectrum via annuli -----------------------------------------------


def test_persson_segments_match_closed_form(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    trace = persson_limit(
        g, field, ex, inner_levels=[1, 2], outer_levels=[5, 9, 13], h=0.02, tol=1e-10
    )
    for row in trace.rows:
        # Dirichlet annulus on the half-line is a segment of length N - n
        assert row.value == pytest.approx(
            (math.pi / (row.outer - row.inner)) ** 2, rel=2e-3
        )
    finals = [trace.per_level[n] for n in sorted(trace.per_level)]
    assert finals == sorted(finals)
    lower, upper = trace.bracket
    assert lower <= upper
    assert upper == trace.estimate
    assert not trace.touched_host_boundary


def test_persson_outer_sweep_stops_early(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    trace = persson_limit(
        g, field, ex, inner_levels=[1], outer_levels=[9, 11, 13, 15], h=0.05, tol=0.05
    )
    outers = [row.outer for row in trace.rows]
    # (pi/8)^2 - (pi/10)^2 < 0.06; the decrement falls under tol quickly
    assert outers[0] == 9
    assert len(outers) < 4


def test_persson_ignores_compact_perturbation_bitwise(halfline):
    """A potential well on the first edge never enters annuli with n >= 1."""
    g, ex = halfline
    free = load_coefficients({}, g)
    well = load_coefficients({"e01": {"q": -5.0}}, g)
    kw = dict(inner_levels=[1, 2], outer_levels=[5, 8], h=0.05, tol=1e-10)
    a = persson_limit(g, free, ex, **kw)
    b = persson_limit(g, well, ex, **kw)
    assert [(r.inner, r.outer) for r in a.rows] == [(r.inner, r.outer) for r in b.rows]
    for ra, rb in zip(a.rows, b.rows):
        assert ra.value == rb.value  # identical pencils, identical solves


def persson_solves(monkeypatch, cold=False):
    """Run the nested-annulus persson case, recording each solve's hint and result."""
    import graphsl.spectral as spectral

    g = load_graph(path(16))
    ex = build_exhaustion(g, "v00", 16)
    field = load_coefficients({"default": {"q": {"expr": "1/(1+x)"}}}, g)
    solves = []
    real = spectral.smallest_eigenpair

    def spy(forms, **kwargs):
        if cold:
            kwargs.pop("lower")
        result = real(forms, **kwargs)
        solves.append((kwargs.get("lower", -math.inf), result))
        return result

    monkeypatch.setattr(spectral, "smallest_eigenpair", spy)
    trace = persson_limit(g, field, ex, [1, 2, 4], [8, 12, 16], h=0.02)
    return trace, solves


def test_persson_seeds_each_annulus_from_its_containers(monkeypatch):
    trace, solves = persson_solves(monkeypatch)
    assert len(solves) == len(trace.rows)   # one row per annulus, in solve order
    proved, sweep = {}, []
    for row, (lower, result) in zip(trace.rows, solves):
        n, N = row.inner, row.outer
        assert row.value == result.value
        sweep = [r for r in sweep if r.inner == n]
        containers = [low for (m, M), low in proved.items() if m <= n and M >= N]
        # a principal sub-pencil: interlacing puts its bottom above each container's proof
        assert all(result.value >= low for low in containers)
        if containers:
            assert lower == max(containers)
        elif sweep:
            # no container: the sweep's last value less its last decrement,
            # or less max(1, |value|) / 8 after one value
            last = sweep[-1].value
            step = sweep[-2].value - last if len(sweep) > 1 else max(1.0, abs(last)) / 8
            assert lower == last - step
        else:
            assert lower == -math.inf
        proved[n, N] = result.certified_lower
        sweep.append(row)
    # only the first annulus starts at the Gershgorin bound; every seed here is below its value
    assert [lower == -math.inf for lower, _ in solves] == [True] + [False] * (len(solves) - 1)
    assert all(lower < result.value for lower, result in solves[1:])
    monkeypatch.undo()
    cold, _ = persson_solves(monkeypatch, cold=True)
    assert [(r.inner, r.outer) for r in trace.rows] == [(r.inner, r.outer) for r in cold.rows]
    for warm_row, cold_row in zip(trace.rows, cold.rows):
        assert warm_row.value == pytest.approx(cold_row.value, rel=1e-12)


def test_persson_applies_budget(monkeypatch):
    _, solves = persson_solves(monkeypatch)
    # 53 applies over 9 annuli; 81 when every loop ran to the 1e-14 floor and
    # the first sweep started at the Gershgorin bound, 103 when every annulus did
    assert sum(result.iterations for _, result in solves) <= 60


def test_persson_analyses_each_piece_once(monkeypatch):
    import scipy.sparse._compressed as compressed

    import graphsl.eig as eig

    analysed, counted, ops = [], [], []
    real_analyse, real_inertia, real_binopt = eig.Pencil._analyse, eig._inertia, compressed._cs_matrix._binopt

    def analyse(self, K, M):
        analysed.append(self)
        real_analyse(self, K, M)

    def inertia(pencil, sigma):
        counted.append(pencil)
        return real_inertia(pencil, sigma)

    def binopt(self, other, op):
        ops.append(op)
        return real_binopt(self, other, op)

    monkeypatch.setattr(eig.Pencil, "_analyse", analyse)
    monkeypatch.setattr(eig, "_inertia", inertia)
    monkeypatch.setattr(compressed._cs_matrix, "_binopt", binopt)
    trace, solves = persson_solves(monkeypatch)
    assert len(solves) == len(trace.rows) == len(analysed) == 9   # one analysis per annulus
    # every piece's analysis serves each of its factorizations: at least the
    # count at its seed and the proof, and a probe where the seed lies far
    # below the value
    per_piece = [sum(p is piece for p in counted) for piece in analysed]
    assert all(2 <= k <= 3 for k in per_piece)
    assert sum(per_piece) == len(counted)
    assert {id(p) for p in counted} == {id(p) for p in analysed}
    # K_p + K_q is added value by value on the one pattern, and no K - sigma*M is formed
    assert ops == []


def test_persson_validates_level_lists(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    with pytest.raises(SolverError):
        persson_limit(g, field, ex, inner_levels=[], outer_levels=[3])
    with pytest.raises(SolverError):
        persson_limit(g, field, ex, inner_levels=[4], outer_levels=[2, 3])
    with pytest.raises(SolverError):
        persson_limit(g, field, ex, inner_levels=[1], outer_levels=[99])


@pytest.mark.parametrize(
    "inner, outer, bad",
    [([-1], [3], -1), ([1], [3, -1], -1), ([1, 17], [3], 17), ([1], [3, 17], 17)],
    ids=["negative-inner", "negative-outer", "inner-past-range", "outer-past-range"],
)
def test_persson_rejects_levels_outside_the_exhaustion(halfline, inner, outer, bad):
    g, ex = halfline
    with pytest.raises(SolverError, match=f"^level {bad} outside exhaustion range 0..16$"):
        persson_limit(g, load_coefficients({}, g), ex, inner_levels=inner, outer_levels=outer)


# --- edgewise sup bound ------------------------------------------------------------


def test_sobolev_unit_coefficients_fixture(star3):
    g, _ = star3
    field = load_coefficients({}, g)
    est = sobolev_constant(g, field, epsilon=1.0)
    # windows of length delta carry integral of 1/p equal to delta, so the
    # bound is half the shortest edge; mass of half-windows is delta/2
    assert est.delta == pytest.approx(0.5, rel=1e-9)
    assert est.delta < 0.5
    assert est.window_mass == pytest.approx(0.25, rel=1e-9)
    assert est.constant == pytest.approx(8.0, rel=1e-9)


def test_sobolev_windows_see_a_jump_of_p():
    # 1/p is 4 past the jump at 0.5, so windows of 1/p-mass below 1/2 are
    # shorter than 1/8; the half-windows then carry w-mass 1/16
    g = load_graph(path(1))
    field = load_coefficients({"default": {"p": {"piecewise": [[0.0, 1.0], [0.5, 0.25]]}}}, g)
    est = sobolev_constant(g, field, epsilon=1.0)
    assert est.delta == pytest.approx(0.125, rel=1e-9)
    assert est.window_mass == pytest.approx(0.0625, rel=1e-9)
    assert est.constant == pytest.approx(32.0, rel=1e-9)
    # windows that end at the jump and windows that start there
    assert {0.375, 0.5} <= set(_window_starts(1.0, 0.125, (0.5,)).tolist())


def test_sobolev_constant_nonincreasing_in_epsilon(star3):
    g, _ = star3
    field = load_coefficients({}, g)
    sweep = [sobolev_constant(g, field, eps) for eps in (0.25, 0.5, 1.0, 2.0)]
    constants = [est.constant for est in sweep]
    np.testing.assert_allclose(constants, [32.0, 16.0, 8.0, 8.0], rtol=1e-9)
    assert all(a >= b for a, b in zip(constants, constants[1:]))
    deltas = [est.delta for est in sweep]
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))


def test_sobolev_inequality_holds_for_nodal_functions(star3, rng):
    from graphsl.fem import build_mesh

    g, _ = star3
    field = load_coefficients(
        {"default": {"p": {"expr": "1+0.5*sin(3*x)"}, "w": {"expr": "exp(-x)"}}}, g
    )
    est = sobolev_constant(g, field, epsilon=0.7)
    s = mesh_samples(build_mesh(g, 0.05), field)
    for _ in range(25):
        f = rng.normal(size=s.mesh.n_free)
        value, slope = s.p1(f)
        grad = s.edge_sums(s.wq * s.p * slope**2)
        mass = s.edge_sums(s.wq * s.w * value**2)
        sup2 = s.edge_sup(f) ** 2
        assert np.all(sup2 <= (est.epsilon * grad + est.constant * mass) * (1 + 1e-12))


def test_sobolev_windows_evaluate_in_one_call(monkeypatch):
    from graphsl import expressions

    calls = []
    original = expressions.evaluate

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(expressions, "evaluate", counted)
    g = load_graph(tree(6))
    field = load_coefficients({"default": {"p": {"expr": "2+cos(x)"}}}, g)
    est = sobolev_constant(g, field, 0.5)
    assert est.delta == pytest.approx(0.5, rel=1e-9)
    assert len(calls) <= 2


def test_sobolev_rejects_bad_epsilon(star3):
    from graphsl.errors import HypothesisError

    g, _ = star3
    field = load_coefficients({}, g)
    for epsilon in (0.0, -1.0, math.nan):
        with pytest.raises(HypothesisError, match="^epsilon must be positive$"):
            sobolev_constant(g, field, epsilon=epsilon)
    # an infinite epsilon admits every window, so delta is half the shortest edge
    assert sobolev_constant(g, field, epsilon=math.inf).constant == pytest.approx(8.0, rel=1e-9)
