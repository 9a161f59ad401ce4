import math

import numpy as np
import pytest
from scipy.optimize import brentq

from graphsl.coeff import CoefficientField, load_coefficients
from graphsl.errors import SolverError
from graphsl.families import path, star, tree
from graphsl.fem import mesh_samples
from graphsl.graph import build_exhaustion, load_graph
from graphsl.spectral import (
    _window_starts,
    ap_check,
    cutoff_build,
    ground_state_transform_check,
    harnack_probe,
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
    assert ex.levels[0] == frozenset()
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
    proved = {}
    for row, (lower, result) in zip(trace.rows, solves):
        n, N = row.inner, row.outer
        assert row.value == result.value
        containers = [low for (m, M), low in proved.items() if m <= n and M >= N]
        # a principal sub-pencil: interlacing puts its bottom above each container's proof
        assert all(result.value >= low for low in containers)
        assert lower == max(containers, default=-math.inf)
        proved[n, N] = result.certified_lower
    assert [lower for lower, _ in solves[:3]] == [-math.inf] * 3   # sweep n = 1 has none
    assert all(lower > -math.inf for lower, _ in solves[3:])
    monkeypatch.undo()
    cold, _ = persson_solves(monkeypatch, cold=True)
    assert [(r.inner, r.outer) for r in trace.rows] == [(r.inner, r.outer) for r in cold.rows]
    for warm_row, cold_row in zip(trace.rows, cold.rows):
        assert warm_row.value == pytest.approx(cold_row.value, rel=1e-12)


def test_persson_applies_budget(monkeypatch):
    _, solves = persson_solves(monkeypatch)
    # 81 applies over 9 annuli; 103 when every annulus starts at the Gershgorin bound
    assert sum(result.iterations for _, result in solves) <= 90


def test_persson_analyses_each_piece_once(monkeypatch):
    import scipy.sparse._compressed as compressed

    import graphsl.eig as eig

    analysed, counted, ops = [], [], []
    real_init, real_inertia, real_binopt = eig.Pencil.__init__, eig._inertia, compressed._cs_matrix._binopt

    def init(self, K, M):
        analysed.append(self)
        real_init(self, K, M)

    def inertia(pencil, sigma):
        counted.append(pencil)
        return real_inertia(pencil, sigma)

    def binopt(self, other, op):
        ops.append(op)
        return real_binopt(self, other, op)

    monkeypatch.setattr(eig.Pencil, "__init__", init)
    monkeypatch.setattr(eig, "_inertia", inertia)
    monkeypatch.setattr(compressed._cs_matrix, "_binopt", binopt)
    trace, solves = persson_solves(monkeypatch)
    assert len(solves) == len(trace.rows) == len(analysed) == 9   # one analysis per annulus
    assert len(counted) > 2 * len(analysed)                       # reused at every shift
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


# --- cutoff profiles --------------------------------------------------------------


def test_cutoff_contract_uniform_coefficients():
    g = load_graph(path(6))
    ex = build_exhaustion(g, "v00", 6)
    field = load_coefficients({"default": {"p": 4.0}}, g)
    cut = cutoff_build(g, field, ex, level=2)
    assert cut.zero_edges == frozenset({"e01", "e02"})
    assert cut.one_edges == frozenset({"e04", "e05", "e06"})
    assert set(cut.profiles) == {"e03"}
    prof = cut.profiles["e03"]
    assert prof.values[0] == 0.0 and prof.values[-1] == 1.0
    assert prof.rises_from_src
    # sqrt(w/p) = 1/2 everywhere, so the climb is linear: phi(x) = x
    np.testing.assert_allclose(prof.values, prof.offsets, atol=1e-14)
    assert cut.sup_weighted_derivative == pytest.approx(2.0, abs=1e-13)
    # each segment's step over the rate is the integral of sqrt(w/p) = 1/2 there
    np.testing.assert_allclose(np.diff(prof.values) / prof.rate, 0.5 * np.diff(prof.offsets), rtol=1e-12)
    assert cut.value("e01", 0.7) == 0.0
    assert cut.value("e05", 0.1) == 1.0
    assert cut.value("e03", 0.25) == pytest.approx(0.25, abs=1e-13)


def test_cutoff_weighted_slope_constant_for_varying_coefficients():
    g = load_graph(path(4))
    ex = build_exhaustion(g, "v00", 4)
    field = load_coefficients({"default": {"p": {"expr": "1+x"}, "w": 2.0}}, g)
    cut = cutoff_build(g, field, ex, level=1)
    prof = cut.profiles["e02"]
    assert np.all(np.diff(prof.values) > 0)
    assert np.all((prof.values >= 0) & (prof.values <= 1))
    # each segment's step over the rate is the integral of sqrt(w/p) = sqrt(2/(1+x)) there
    root = np.sqrt(1.0 + prof.offsets)
    np.testing.assert_allclose(np.diff(prof.values) / prof.rate, 2.0 * math.sqrt(2.0) * np.diff(root), rtol=1e-12)
    assert prof.rate == pytest.approx(cut.sup_weighted_derivative)


def test_cutoff_descends_on_mirrored_halo_edges():
    # rooted at the middle of a path, both halo edges climb away from the root
    g = load_graph(path(4))
    ex = build_exhaustion(g, "v02", 2)
    field = load_coefficients({}, g)
    cut = cutoff_build(g, field, ex, level=1)
    left = cut.profiles["e01"]   # v00 -- v01, root side is dst
    right = cut.profiles["e04"]  # v03 -- v04, root side is src
    assert not left.rises_from_src
    assert right.rises_from_src
    assert left.values[0] == 1.0 and left.values[-1] == 0.0
    assert right.values[0] == 0.0 and right.values[-1] == 1.0


def test_cutoff_profile_takes_a_jump_of_p_off_the_grid():
    # sqrt(w/p) is 1 before the jump at 0.37, which no grid point hits, and 2 after it
    g = load_graph(path(2))
    ex = build_exhaustion(g, "v00", 2)
    field = load_coefficients({"e02": {"p": {"piecewise": [[0.0, 1.0], [0.37, 0.25]]}}}, g)
    cut = cutoff_build(g, field, ex, level=1)
    prof = cut.profiles["e02"]
    assert 0.37 in prof.offsets.tolist()
    total = 0.37 + 2.0 * 0.63
    assert cut.value("e02", 0.37) == pytest.approx(0.37 / total, rel=1e-13)
    assert cut.value("e02", 0.685) == pytest.approx((0.37 + 2.0 * 0.315) / total, rel=1e-13)
    assert prof.values[-1] == pytest.approx(1.0, rel=1e-14)
    assert prof.rate == pytest.approx(1.0 / total, rel=1e-13)


def test_cutoff_samples_each_halo_edge_in_one_evaluate_per_coefficient(monkeypatch):
    g = load_graph(tree(8))
    ex = build_exhaustion(g, "n0", 5)
    field = load_coefficients({"default": {"p": {"expr": "1+x"}, "w": {"expr": "2+x*x"}}}, g)
    calls = []
    original = CoefficientField.evaluate

    def counted(self, edge_id, name, x):
        calls.append((edge_id, name))
        return original(self, edge_id, name, x)

    monkeypatch.setattr(CoefficientField, "evaluate", counted)
    cut = cutoff_build(g, field, ex, level=5)
    halo_edges = len(cut.profiles)
    assert halo_edges == 64
    assert len(calls) <= 4 * halo_edges


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
    with pytest.raises(HypothesisError):
        sobolev_constant(g, load_coefficients({}, g), epsilon=0.0)


# --- ground state transform --------------------------------------------------------


def test_gst_identity_exact_for_flat_solution(star3, rng):
    g, ex = star3
    field = load_coefficients({}, g)
    cert = positive_solution(g, field, ex, lam=0.0, level=1, h=0.05)
    np.testing.assert_allclose(cert.values, 1.0, atol=1e-12)
    trial = rng.normal(size=cert.mesh.n_free)
    for v in cert.boundary_vertices:
        trial[cert.mesh.vertex_dof[v]] = 0.0
    report = ground_state_transform_check(field, cert, trial, lam=0.0)
    assert report.residual <= 1e-12


def test_gst_residual_halves_with_mesh(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    residuals = []
    for h in (0.02, 0.01):
        cert = positive_solution(g, field, ex, lam=-1.0, level=1, h=h)
        mesh = cert.mesh
        trial = np.zeros(mesh.n_free)
        interior = np.ones(len(mesh.x), dtype=bool)  # vertex dofs stay zero
        interior[mesh.start[:-1]] = False
        interior[mesh.start[1:] - 1] = False
        trial[mesh.dof[interior]] = [math.sin(math.pi * x) for x in mesh.x[interior]]
        report = ground_state_transform_check(field, cert, trial, lam=-1.0)
        residuals.append(report.residual)
    assert residuals[0] / residuals[1] >= 1.8


def test_gst_rejects_nonvanishing_trial(star3):
    g, ex = star3
    field = load_coefficients({}, g)
    cert = positive_solution(g, field, ex, lam=0.0, level=1, h=0.1)
    with pytest.raises(SolverError):
        ground_state_transform_check(field, cert, np.ones(cert.mesh.n_free), lam=0.0)


# --- two-sided bounds on a fixed level ----------------------------------------------


def test_flat_solutions_give_unit_bounds(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    certs = [
        positive_solution(g, field, ex, lam=0.0, level=n, h=0.1) for n in (4, 6, 8)
    ]
    bounds = harnack_probe(certs, ex, m=2)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert [lvl for lvl, _, _ in bounds.rows] == [4, 6, 8]


def test_decaying_solutions_match_closed_form(halfline):
    """lam = -1/4 on the half-line: the lifted solution at level n is
    cosh((x - n/2)/2) / cosh(n/4), with minimum over the first two edges at
    x = 2."""
    g, ex = halfline
    field = load_coefficients({}, g)
    certs = [
        positive_solution(g, field, ex, lam=-0.25, level=n, h=0.02) for n in (4, 8, 12)
    ]
    bounds = harnack_probe(certs, ex, m=2)
    assert bounds.upper == pytest.approx(1.0, abs=1e-10)
    for (level, sup, inf), n in zip(bounds.rows, (4, 8, 12)):
        assert level == n
        expected = math.cosh((n - 4) / 4.0) / math.cosh(n / 4.0)
        assert inf == pytest.approx(expected, rel=2e-4)
    infs = [inf for _, _, inf in bounds.rows]
    assert bounds.lower == pytest.approx(min(infs))
    # the two-sided gap keeps tightening toward its limit 1/cosh... slowly
    assert infs == sorted(infs, reverse=True)


def test_harnack_lower_bound_stabilizes_slowly(halfline):
    """Measured stabilization of the two-sided bounds at lam = -1/4, m = 2.

    The upper constant is 1 at every level.  The lower constant keeps the
    closed form cosh((n-4)/4)/cosh(n/4), whose successive relative changes
    for n up to 10 are 6.5%, 4.2% and 2.6% -- still shrinking well above the
    percent mark; sub-1% changes only appear near n = 12.  These frozen
    values document the honest (slow, geometric) approach to exp(-1).
    """
    g, ex = halfline
    field = load_coefficients({}, g)
    lowers = {}
    for n in range(4, 11):
        cert = positive_solution(g, field, ex, lam=-0.25, level=n, h=0.05)
        bounds = harnack_probe([cert], ex, m=2)
        assert bounds.upper == pytest.approx(1.0, abs=1e-9)
        lowers[n] = bounds.lower
    closed = {n: math.cosh((n - 4) / 4.0) / math.cosh(n / 4.0) for n in lowers}
    for n in lowers:
        assert lowers[n] == pytest.approx(closed[n], rel=1e-3)
    changes = {
        n: (lowers[n - 1] - lowers[n]) / lowers[n] for n in range(5, 11)
    }
    assert changes[8] == pytest.approx(0.0649, abs=0.002)
    assert changes[9] == pytest.approx(0.0418, abs=0.002)
    assert changes[10] == pytest.approx(0.0263, abs=0.002)
    # monotone decay toward the limit, but no sub-1% step in this range
    assert all(changes[n] > 0.01 for n in changes)
    assert all(changes[n] > changes[n + 1] for n in range(5, 10))


def test_harnack_probe_rejects_mixed_trial_values(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    a = positive_solution(g, field, ex, lam=0.0, level=3, h=0.1)
    b = positive_solution(g, field, ex, lam=-0.5, level=3, h=0.1)
    with pytest.raises(SolverError):
        harnack_probe([a, b], ex, m=1)


def test_harnack_probe_requires_coverage(halfline):
    g, ex = halfline
    field = load_coefficients({}, g)
    cert = positive_solution(g, field, ex, lam=0.0, level=2, h=0.1)
    with pytest.raises(SolverError):
        harnack_probe([cert], ex, m=5)
