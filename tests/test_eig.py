import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from graphsl import eig
from graphsl.coeff import load_coefficients
from graphsl.eig import (
    dense_reference,
    pencil_lower_bound,
    smallest_eigenpair,
    solve_pencil,
)
from graphsl.errors import ConvergenceError, MeshError, SolverError
from graphsl.families import cycle, ladder, path, star, tree
from graphsl.fem import assemble, build_mesh
from graphsl.graph import build_exhaustion, load_graph


def dirichlet_pencil(g, h, doc=None):
    """The Dirichlet pencil of the whole of ``g``: its assembly cut at the leaves."""
    forms = assemble(build_mesh(g, h), load_coefficients(doc or {}, g))
    return forms.restrict(forms.mesh.edge_ids, host_boundary=True)


def km(pencil):
    """The analysed pencil's K and M, in CSC."""
    return pencil.K, pencil.M


def test_identity_pencil():
    n = 12
    res = solve_pencil(sp.identity(n, format="csr"), sp.identity(n, format="csr"))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-12


def test_laplacian_tridiagonal_known_value():
    # 1D Dirichlet Laplacian on [0,1], n interior nodes: lambda_h has the
    # closed form (6/h^2) * (1-cos(pi h)) / (2+cos(pi h)) for P1 elements.
    n = 99
    h = 1.0 / (n + 1)
    main = 2.0 * np.ones(n)
    offd = -1.0 * np.ones(n - 1)
    K = sp.diags([offd, main, offd], [-1, 0, 1], format="csr") / h
    M = sp.diags(
        [offd * (-h / 6.0), main * h / 3.0, offd * (-h / 6.0)], [-1, 0, 1], format="csr"
    )
    expected = (6.0 / h**2) * (1.0 - math.cos(math.pi * h)) / (2.0 + math.cos(math.pi * h))
    res = solve_pencil(K, M, tol=1e-10)
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_a_pencil_of_scipy_matrices_is_solved_and_referenced():
    # the eigensolver's entry points take any analysed pencil, with no mesh or forms behind it
    n = 29
    h = 1.0 / (n + 1)
    main, offd = np.full(n, 2.0), np.full(n - 1, -1.0)
    K = sp.diags([offd, main, offd], [-1, 0, 1], format="csr") / h
    M = sp.diags([offd * (-h / 6.0), main * h / 3.0, offd * (-h / 6.0)], [-1, 0, 1], format="csr")
    pencil = eig.Pencil(K, M)
    expected = (6.0 / h**2) * (1.0 - math.cos(math.pi * h)) / (2.0 + math.cos(math.pi * h))
    res = smallest_eigenpair(pencil, tol=1e-10)
    value, vector = dense_reference(pencil)
    assert res.value == pytest.approx(expected, rel=1e-10)
    assert value == pytest.approx(expected, rel=1e-12)
    # both M-normalized; the ground state has one sign
    np.testing.assert_allclose(res.vector, vector * np.sign(vector.sum()), atol=1e-8)


def test_interval_converges_to_pi_squared_at_second_order():
    g = load_graph(path(1))
    errors = []
    for h in (0.1, 0.05, 0.025):
        value = smallest_eigenpair(dirichlet_pencil(g, h), tol=1e-10).value
        errors.append(value - math.pi**2)
    assert all(e > 0 for e in errors)          # P1 Rayleigh quotients overshoot
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)


def test_lower_bound_is_below_dense_minimum():
    g = load_graph(star(4))
    pencil = dirichlet_pencil(g, 0.1, {"default": {"q": {"piecewise": [[0, -3], [0.4, 1]]}}})
    lb = pencil_lower_bound(pencil)
    value, _ = dense_reference(pencil)
    assert lb <= value


def test_dense_and_iterative_agree():
    g = load_graph(path(3))
    pencil = dirichlet_pencil(g, 0.1, {"default": {"w": {"expr": "1+0.5*sin(x)"}}})
    it = smallest_eigenpair(pencil, tol=1e-10)
    dv, dvec = dense_reference(pencil)
    assert it.value == pytest.approx(dv, rel=1e-10)
    # same space up to sign and M-normalization
    dvec = dvec / math.sqrt(dvec @ (pencil.M @ dvec))
    if dvec[np.argmax(np.abs(dvec))] < 0:
        dvec = -dvec
    np.testing.assert_allclose(it.vector, dvec, atol=1e-7)


def test_result_contract():
    g = load_graph(star(3))
    pencil = dirichlet_pencil(g, 0.1)
    res = smallest_eigenpair(pencil, tol=1e-9)
    K, M = km(pencil)
    mx = M @ res.vector
    assert res.vector @ mx == pytest.approx(1.0, abs=1e-12)      # M-normalized
    assert res.vector[np.argmax(np.abs(res.vector))] > 0          # sign fixed
    recomputed = np.linalg.norm(K @ res.vector - res.value * mx) / np.linalg.norm(mx)
    assert res.residual == pytest.approx(recomputed, rel=1e-12, abs=1e-15)
    scale = abs(K).sum(axis=0).max() + abs(res.value) * abs(M).sum(axis=0).max()  # 1-norms
    backward = np.linalg.norm(K @ res.vector - res.value * mx) / (scale * np.linalg.norm(res.vector))
    assert res.backward_error == pytest.approx(backward, rel=1e-12, abs=1e-18)
    assert res.backward_error <= 1e-15
    delta = max(1e-9, 1e-12) * max(1.0, abs(res.value))
    assert res.certified_lower == res.value - delta
    assert res.converged
    assert res.iterations > 0


def tiny_pencil():
    """One unit edge, Dirichlet at both ends, h = 1/2: a single hat at the midpoint."""
    return dirichlet_pencil(load_graph(path(1)), 0.5)


def three_dof_pencil():
    """Dirichlet path(2) at h = 1/2: the middle vertex and one hat on each edge."""
    return dirichlet_pencil(load_graph(path(2)), 0.5, {"default": {"q": {"expr": "-1+0.3*sin(2*x)"}}})


def test_tiny_pencil_goes_through_lanczos():
    pencil = tiny_pencil()
    assert pencil.n == 1
    res = smallest_eigenpair(pencil)
    # single hat at the midpoint: Rayleigh quotient (2/h) / (2h/3) with h=1/2
    assert res.value == pytest.approx(12.0, abs=1e-10)
    assert res.certified_lower == res.value - 1e-8 * res.value
    assert eig._inertia(pencil, res.shift)[0] == 0
    assert len(res.history) == res.iterations > 0


@pytest.mark.parametrize(
    "n, ridge",
    [pytest.param(n, 0.1, id=str(n)) for n in (1, 2, 3)]
    + [pytest.param(n, 0.01, id=f"{n}-ill-conditioned-mass") for n in (1, 2, 3, 4, 5)],
)
def test_random_small_pencils_match_lapack(n, ridge):
    # a Krylov space of n steps is the whole space: the loop converges
    # within n steps, often on the Gershgorin factor with the window open;
    # the smaller ridge makes M ill-conditioned
    rng = np.random.default_rng(n)
    for _ in range(40):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        K = sp.csr_matrix(A + A.T)
        M = sp.csr_matrix(B @ B.T + ridge * np.eye(n))
        res = solve_pencil(K, M, tol=1e-10)
        vals = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        assert abs(res.value - vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))
        assert np.count_nonzero(vals < res.certified_lower) == 0
        pencil = eig.Pencil(K, M)
        assert eig._inertia(pencil, res.shift)[0] == 0
        assert eig._inertia(pencil, res.certified_lower)[0] == 0
        assert len(res.history) == res.iterations
        # a loop that converged with the window open was not accepted there:
        # the window was closed by counts first
        lb = pencil_lower_bound(pencil)
        start = lb - 0.01 * max(1.0, abs(lb))
        scale = 0.25 * max(1.0, abs(res.value))
        if res.value - start > scale:
            assert res.value - res.shift <= scale


def test_mass_shift_identity():
    g = load_graph(star(3))
    K, M = km(dirichlet_pencil(g, 0.1))
    base = solve_pencil(K, M, tol=1e-10).value
    shifted = solve_pencil((K + 5.0 * M).tocsr(), M, tol=1e-10).value
    assert shifted - base == pytest.approx(5.0, abs=1e-11 * max(1.0, abs(base)))


def test_history_tracks_ritz_values():
    g = load_graph(path(2))
    res = smallest_eigenpair(dirichlet_pencil(g, 0.05), tol=1e-10)
    assert len(res.history) == res.iterations
    assert [idx for idx, _ in res.history] == list(range(1, res.iterations + 1))
    values = [value for _, value in res.history]
    # every Ritz value sits above the minimum; the best one gets close to it
    assert all(value >= res.value - 1e-9 for value in values)
    assert min(values) == pytest.approx(res.value, rel=1e-2)
    assert values[-1] == res.value   # the polish's Rayleigh quotient


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    # the loop's stop and the proof's delta both read tol
    identity = sp.identity(3, format="csr")
    with pytest.raises(SolverError, match="tolerance must be positive and finite"):
        solve_pencil(identity, identity, tol=tol)


def test_shape_mismatch_rejected():
    with pytest.raises(SolverError):
        solve_pencil(sp.identity(3, format="csr"), sp.identity(4, format="csr"))


def test_negative_spectrum_found_without_hints():
    g = load_graph(path(4))
    pencil = dirichlet_pencil(g, 0.05, {"default": {"q": -7.0}})
    res = smallest_eigenpair(pencil, tol=1e-10)
    dv, _ = dense_reference(pencil)
    assert res.value < 0
    assert res.value == pytest.approx(dv, rel=1e-10)


# --- inertia certificate ---------------------------------------------------------


def star_pencil():
    """star(3) Dirichlet pencil and its dense spectrum (lambda_1 = 2.47, lambda_2 = 9.89)."""
    K, M = km(dirichlet_pencil(load_graph(star(3)), 0.1))
    vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
    return K, M, vals, vecs


def test_certificate_rejects_a_non_smallest_pair(monkeypatch):
    K, M, vals, vecs = star_pencil()
    real_measured, real_eigsh = eig._measured, eig.eigsh
    stops = []

    def measured(pencil, value, vector, *args, **kwargs):
        return real_measured(pencil, vals[1], vecs[:, 1], *args, **kwargs)   # the loop's pair swapped for lambda_2's

    def eigsh(pencil, seed, loop, *args, **kwargs):
        stops.append(loop.stop)
        return real_eigsh(pencil, seed, loop, *args, **kwargs)

    monkeypatch.setattr(eig, "_measured", measured)
    monkeypatch.setattr(eig, "eigsh", eigsh)
    with pytest.raises(SolverError, match="1 nonpositive pivot"):
        solve_pencil(K, M)
    # each start vector's loop goes on to the floor before the error path runs
    assert stops == [eig._MARGIN * 1e-8, eig._STOP] * 2


def refusing_splu(monkeypatch, refusing):
    """SuperLU that leaves the diagonal while ``refusing[0]``; returns the refusal flag of every call."""
    calls = []
    real = eig.splu

    def splu(A, **kwargs):
        calls.append(refusing[0])
        lu = real(A, **kwargs)
        if not refusing[0]:
            return lu
        return SimpleNamespace(perm_r=lu.perm_r, perm_c=np.roll(lu.perm_c, 1), U=lu.U)

    monkeypatch.setattr(eig, "splu", splu)
    return calls


def test_certificate_raises_when_symmetric_pivoting_is_refused(monkeypatch):
    K, M = km(tree5_level())   # its vertex Schur complement has 31 rows, so the roll moves perm_c
    refusing = [False]
    calls = refusing_splu(monkeypatch, refusing)
    real_eigsh = eig.eigsh

    def eigsh(*args, **kwargs):
        out = real_eigsh(*args, **kwargs)
        refusing[0] = True                         # from here on: the proof at value - delta
        return out

    monkeypatch.setattr(eig, "eigsh", eigsh)
    with pytest.raises(SolverError, match="symmetric pivoting was refused"):
        solve_pencil(K, M)
    assert calls[-1] and calls.count(True) == 1


def test_refused_pivoting_at_the_gershgorin_seed_raises(monkeypatch):
    K, M = km(tree5_level())
    calls = refusing_splu(monkeypatch, [True])
    with pytest.raises(SolverError, match="symmetric pivoting was refused"):
        solve_pencil(K, M)
    assert calls == [True]                        # no other factorization is tried


def star_piecewise_q():
    g = load_graph(star(4))
    return dirichlet_pencil(g, 0.1, {"default": {"q": {"piecewise": [[0, -3], [0.4, 1]]}}})


def tree_negative_q_level():
    g = load_graph(tree(3))
    level = build_exhaustion(g, "n0", 3).level(2)
    field = load_coefficients({"default": {"q": {"expr": "-4+0.3*sin(2*x)"}}}, g)
    return assemble(build_mesh(g, 0.05, edges=level), field).restrict(level, host_boundary=True)


def restricted_annulus():
    g = load_graph(path(8))
    ex = build_exhaustion(g, "v00", 6)
    field = load_coefficients({"default": {"q": {"expr": "1/(1+x)"}}}, g)
    parent = assemble(build_mesh(g, 0.05, edges=ex.level(5)), field)
    annulus = ex.annulus(2, 5)
    return parent.restrict(annulus, host_boundary=True)


Q_SIN = {"default": {"q": {"expr": "-1+0.3*sin(2*x)"}}}


def ball_level(doc, root, depth, h, coeffs=Q_SIN):
    """Dirichlet pencil of the level-``depth`` ball of ``doc`` around ``root``."""
    g = load_graph(doc)
    level = build_exhaustion(g, root, depth).level(depth)
    field = load_coefficients(coeffs, g)
    return assemble(build_mesh(g, h, edges=level), field).restrict(level, host_boundary=True)


def tree_level(depth, h):
    """Dirichlet pencil of the whole of tree(depth) with q = -1 + 0.3 sin 2x."""
    return ball_level(tree(depth), "n0", depth, h)


def tree5_level():
    return tree_level(5, 0.1)   # 589 dofs; Gershgorin shift -5.24 against lambda_1 = -0.51


def tree8_level():
    return tree_level(8, 0.1)   # 4845 dofs


def leaf_well_level():
    """tree(8) with q = -300 on the leaf edge t510 only (1785 dofs).

    Gershgorin shift -1173 against lambda_1 = -290; the all-ones vector
    puts almost none of its mass in the well.
    """
    return ball_level(tree(8), "n0", 8, 0.25, {"t510": {"q": -300.0}})


def ladder6_level():
    """Cyclic: the radius-4 ball of ladder(6) with q = -1 + 0.3 sin 2x (216 dofs)."""
    return ball_level(ladder(6), "u0", 4, 0.05)


def test_a_failed_factorization_names_the_shift():
    # K - 0*M = diag(1, 0) is exactly singular, which SuperLU reports by RuntimeError
    pencil = eig.Pencil(sp.csr_matrix(np.diag([1.0, 0.0])), sp.identity(2, format="csr"))
    for call in (lambda: eig.Condensed(pencil, 0.0, scipy.sparse.linalg.splu), lambda: eig._inertia(pencil, 0.0)):
        with pytest.raises(SolverError, match=r"factorization of K - 0\.0\*M failed: .*singular"):
            call()


@pytest.mark.parametrize(
    "make_pencil",
    [star_piecewise_q, tree_negative_q_level, restricted_annulus, tree5_level, leaf_well_level, ladder6_level],
)
def test_inertia_agrees_with_lapack(make_pencil):
    pencil = make_pencil()
    res = smallest_eigenpair(pencil, tol=1e-10)
    K, M = km(pencil)
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    delta = res.value - res.certified_lower
    assert delta > 0
    assert np.count_nonzero(dense < res.certified_lower) == 0
    assert np.count_nonzero(dense < res.value + delta) == 1
    # the placed shift is a lower bound, and within a quarter of the scale
    # of the value whenever the Gershgorin start was further away
    assert np.count_nonzero(dense < res.shift) == 0
    lb = pencil_lower_bound(pencil)
    start = lb - 0.01 * max(1.0, abs(lb))
    assert res.shift >= start
    scale = 0.25 * max(1.0, abs(res.value))
    if res.value - start > scale:
        assert res.value - res.shift <= scale


class Counted:
    """Proxy of a SuperLU factor that counts live factors and solves.

    SuperLU objects take no weakrefs, so the proxy's lifetime stands in for
    the factor's.
    """

    def __init__(self, lu, live, solves):
        self._lu = lu
        self._live = live
        self._solves = solves
        live[0] += 1

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, b):
        self._solves[0] += 1
        return self._lu.solve(b)

    def __del__(self):
        self._live[0] -= 1


def test_one_factorization_alive_at_a_time(monkeypatch):
    live = [0]
    alive_at_call = []
    real = eig.splu

    def splu(A, **kwargs):
        alive_at_call.append(live[0])
        return Counted(real(A, **kwargs), live, [0])

    monkeypatch.setattr(eig, "splu", splu)
    pencil = tree8_level()
    lb = pencil_lower_bound(pencil)
    res = smallest_eigenpair(pencil, tol=1e-10)
    assert res.shift > lb + 0.25 * max(1.0, abs(res.value))   # the shift was raised
    assert len(alive_at_call) == 3                  # Gershgorin, first probe, proof
    assert alive_at_call == [0] * len(alive_at_call)

    # a first probe that counts above 0 sends placement into bisection
    alive_at_call.clear()
    real_inertia = eig._inertia
    calls = []

    def inertia(pencil, sigma):
        count, lu = real_inertia(pencil, sigma)
        calls.append(sigma)
        return (count + 1 if len(calls) == 2 else count), lu

    monkeypatch.setattr(eig, "_inertia", inertia)
    bisected = smallest_eigenpair(pencil, tol=1e-10)
    assert bisected.value == pytest.approx(res.value, rel=1e-10)
    assert len(alive_at_call) >= 4
    assert alive_at_call == [0] * len(alive_at_call)


@pytest.mark.parametrize("make_pencil", [tree5_level, restricted_annulus])
def test_one_triangular_solve_per_apply(monkeypatch, make_pencil):
    solves = [0]
    during_eigsh = [None]
    real_splu, real_eigsh = eig.splu, eig.eigsh

    def splu(A, **kwargs):
        return Counted(real_splu(A, **kwargs), [0], solves)

    def eigsh(*args, **kwargs):
        before = solves[0]
        out = real_eigsh(*args, **kwargs)
        during_eigsh[0] = solves[0] - before
        return out

    monkeypatch.setattr(eig, "splu", splu)
    monkeypatch.setattr(eig, "eigsh", eigsh)
    res = smallest_eigenpair(make_pencil(), tol=1e-10)
    # placement steps, the loop and the polish all apply inside eigsh
    assert during_eigsh[0] == res.iterations == solves[0]


@pytest.mark.parametrize("make_pencil", [tree5_level, tree8_level, leaf_well_level])
def test_placement_budget(monkeypatch, make_pencil):
    pencil = make_pencil()
    counts = []
    real = eig._inertia

    def inertia(pencil, sigma):
        counts.append(sigma)
        return real(pencil, sigma)

    monkeypatch.setattr(eig, "_inertia", inertia)
    res = smallest_eigenpair(pencil, tol=1e-10)
    # the Gershgorin count, one probe below the Krylov upper end, the proof
    assert len(counts) <= 3
    assert counts[-1] == res.certified_lower


# --- the Lanczos loop ------------------------------------------------------------


def test_apply_budget_caps_the_applies(monkeypatch):
    K, M = km(tree5_level())
    monkeypatch.setattr(eig, "_MAX_APPLIES", 5)
    with pytest.raises(ConvergenceError, match="within 5 applications"):
        solve_pencil(K, M)


@pytest.mark.parametrize("hinted", [False, True], ids=["gershgorin", "hint"])
def test_spent_budget_during_placement_factors_no_more(monkeypatch, hinted):
    K, M = km(tree5_level())
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    lb = pencil_lower_bound(eig.Pencil(K, M))
    seed = lb - 0.01 * max(1.0, abs(lb))
    factors, spent = [], []
    real = eig.splu

    def splu(A, **kwargs):
        factors.append(A.shape)
        return real(A, **kwargs)

    class Recorded(eig._Lanczos):
        def apply(self, b):
            try:
                return super().apply(b)
            except ConvergenceError:
                spent.append(len(factors))
                raise

    monkeypatch.setattr(eig, "splu", splu)
    monkeypatch.setattr(eig, "_Lanczos", Recorded)
    monkeypatch.setattr(eig, "_MAX_APPLIES", 5)
    # a proved hint halfway up from the seed leaves the placement window open past 5 steps
    lower = 0.5 * (seed + dense[0]) if hinted else -np.inf
    with pytest.raises(ConvergenceError, match="within 5 applications"):
        solve_pencil(K, M, lower=lower)
    # one factorization (the hint's or the seed's), and none once the budget ran out
    assert spent == [1] and len(factors) == 1


def far_shift(monkeypatch):
    """Keep the shift at the seed below a Gershgorin bound of -20: the placement window is always closed."""
    monkeypatch.setattr(eig, "pencil_lower_bound", lambda pencil: -20.0)
    monkeypatch.setattr(eig, "_window", lambda lo, hi: False)


def test_loop_restarts_past_the_basis_cap(monkeypatch):
    K, M = km(tree5_level())
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    rows = []

    class Recorded(eig._Lanczos):
        def step(self):
            converged = super().step()
            rows.append(len(self.Q))
            return converged

    monkeypatch.setattr(eig, "_Lanczos", Recorded)
    # far below lambda_1 = -0.51 the loop needs more steps than one basis holds
    far_shift(monkeypatch)
    res = solve_pencil(K, M, tol=1e-10)
    assert res.shift == -20.2
    assert len(rows) > eig._BASIS_ROWS
    assert rows[: eig._BASIS_ROWS] == list(range(1, eig._BASIS_ROWS + 1))   # one row appended per step
    assert max(rows) == eig._BASIS_ROWS == 20                              # never more rows than the cap
    assert rows[eig._BASIS_ROWS] == 1                     # a new basis: the Ritz vector alone
    assert res.value == pytest.approx(dense[0], rel=1e-10)
    assert np.count_nonzero(dense < res.certified_lower) == 0


class MassProducts:
    """M behind ``@``, counting the products."""

    def __init__(self, M, products):
        self._M, self._products = M, products

    def __matmul__(self, x):
        self._products[0] += 1
        return self._M @ x


def test_lanczos_basis_stays_m_orthonormal(monkeypatch):
    worst, steps, products, restarts = [], [0], [0], [0]

    class Recorded(eig._Lanczos):
        def __init__(self, K, M, *args):
            super().__init__(K, MassProducts(M, products), *args)
            self.plain_M = M

        def _restart(self, x):
            restarts[0] += 1   # one product with M
            super()._restart(x)

        def step(self):
            converged = super().step()
            steps[0] += 1
            Q = np.stack(self.Q)
            worst.append(np.linalg.norm(Q @ (self.plain_M @ Q.T) - np.eye(len(self.Q))))
            return converged

    monkeypatch.setattr(eig, "_Lanczos", Recorded)

    def second_passes():
        # two products with M per step and one per restart; the rest are second passes
        return products[0] - restarts[0] - 2 * steps[0]

    for make_pencil, far in ((tree5_level, False), (tree5_level, True), (restricted_annulus, False), (ladder6_level, False)):
        K, M = km(make_pencil())
        with monkeypatch.context() as patch:
            if far:
                far_shift(patch)
            res = solve_pencil(K, M, tol=1e-10)
        dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
        assert res.value == pytest.approx(dense[0], rel=1e-10)
    # the restarts past the basis cap included
    assert steps[0] > 2 * eig._BASIS_ROWS
    assert second_passes() < steps[0]
    # from all-ones, the 6x6 pencil's Krylov space is invariant after three
    # steps: the first pass cancels w, and a second one is made
    before = second_passes()
    solve_pencil(*sign_changing_ground_state(), tol=1e-10)
    assert second_passes() > before
    assert max(worst) <= 1e-12


def test_solve_allocates_only_the_basis_rows_it_fills():
    # 25,245 dofs, 14 applications: a basis allocated as one block of
    # _BASIS_ROWS rows peaks at 33 vectors of the pencil's size, rows
    # appended as they fill at 19
    piece = tree_level(8, 0.02)
    tracemalloc.start()
    try:
        smallest_eigenpair(piece, tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * 8 * piece.n


def sign_changing_ground_state():
    """6x6 pencil whose ground state is odd under reversal, so M-orthogonal to the all-ones vector.

    K = tridiag(1, 2, 1), M = I: eigenvalues 2 + 2 cos(k pi / 7), and the
    smallest, k = 6, has an alternating eigenvector.
    """
    n = 6
    K = sp.diags([np.ones(n - 1), 2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")
    return K, sp.identity(n, format="csr")


def odd_ground_state_next_to_an_even_one():
    """2x2 pencil whose ground state (1, -1) lies 1e-3 below the all-ones eigenvector (1, 1).

    K = [[1, b], [b, 1]] with b = 5e-4, M = I.  The all-ones start vector
    is an eigenvector, and every shift lies at least 0.01 below both
    eigenvalues, so the rounding of a solve grows the ground state's share
    by at most about 10 % per step: no loop from all-ones finds it.
    """
    b = 5e-4
    return sp.csr_matrix(np.array([[1.0, b], [b, 1.0]])), sp.identity(2, format="csr")


def test_start_vector_that_misses_the_ground_state_is_rerun(monkeypatch):
    K, M = odd_ground_state_next_to_an_even_one()
    vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
    assert abs(vecs[:, 0] @ np.ones(2)) < 1e-15
    runs = []
    real = eig.eigsh

    def eigsh(pencil, seed, loop, *args, **kwargs):
        stop = loop.stop
        out = real(pencil, seed, loop, *args, **kwargs)
        runs.append((stop, out.value, len(loop.history)))   # and the solve's history rows so far
        return out

    monkeypatch.setattr(eig, "eigsh", eigsh)
    res = solve_pencil(K, M, tol=1e-10)
    # from all-ones the loop finds lambda_2; the proof catches it, the same
    # loop goes on to the floor and still has lambda_2, and the seeded start
    # vector finds lambda_1
    loose = eig._MARGIN * 1e-10
    assert [(stop, value) for stop, value, _ in runs] == [
        (loose, pytest.approx(vals[1], rel=1e-12)),
        (eig._STOP, pytest.approx(vals[1], rel=1e-12)),
        (loose, pytest.approx(vals[0], rel=1e-12)),
    ]
    assert res.value == pytest.approx(vals[0], rel=1e-12)
    assert np.count_nonzero(vals < res.certified_lower) == 0
    rows = [rows for *_, rows in runs]
    assert 0 < rows[0] < rows[1] < rows[2] == res.iterations   # every run's applications count
    assert [idx for idx, _ in res.history] == list(range(1, res.iterations + 1))


def test_restricted_annulus_applies_budget():
    # every apply counts: the placement steps, the loop and the polish
    res = smallest_eigenpair(restricted_annulus(), tol=1e-10)
    assert res.iterations <= 14


def interval_400():
    """Dirichlet path(1) at h = 1/400 (399 dofs), whose residual floor lies near 3e-11."""
    return dirichlet_pencil(load_graph(path(1)), 1.0 / 400)


@pytest.mark.parametrize(
    "make_pencil, misses", [(interval_400, 0), (leaf_well_level, 1)], ids=["interval-400", "leaf-well"]
)
def test_a_pair_that_misses_the_residual_check_steps_on_to_the_floor(monkeypatch, make_pencil, misses):
    pencil = make_pencil()
    events = []
    real_measured, real_inertia = eig._measured, eig._inertia

    def measured(*args, **kwargs):
        out = real_measured(*args, **kwargs)
        events.append(("pair", out.residual))
        return out

    def inertia(pencil, sigma):
        events.append(("count", sigma))
        return real_inertia(pencil, sigma)

    monkeypatch.setattr(eig, "_measured", measured)
    monkeypatch.setattr(eig, "_inertia", inertia)
    res = smallest_eigenpair(pencil, tol=1e-10)
    assert res.residual <= 1e-10
    dense = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray(), eigvals_only=True)
    assert res.value == pytest.approx(dense[0], rel=1e-10)
    assert np.count_nonzero(dense < res.certified_lower) == 0
    # a polished pair above tol sends the same loop on, on the same factor:
    # no count comes between it and the next pair, and only the last pair is proved
    pairs = [i for i, (kind, _) in enumerate(events) if kind == "pair"]
    assert [events[i][1] > 1e-10 for i in pairs] == [True] * misses + [False]
    assert pairs == list(range(pairs[0], pairs[0] + misses + 1))
    assert events[pairs[-1] + 1 :] == [("count", res.certified_lower)]


@pytest.mark.parametrize("make_pencil", [restricted_annulus, tree5_level, leaf_well_level])
def test_a_candidate_above_lambda_1_costs_one_factorization(monkeypatch, make_pencil):
    pencil = make_pencil()
    counts = recorded_inertia(monkeypatch)
    cold = smallest_eigenpair(pencil, tol=1e-6)
    cold_counts = counts[:]
    candidate = cold.value + 1e-3 * max(1.0, abs(cold.value))
    del counts[:]
    res = smallest_eigenpair(pencil, tol=1e-6, lower=candidate)
    # the candidate's count, then the cold solve, count for count
    assert counts[0][0] == candidate and counts[0][1] >= 1
    assert counts[1:] == cold_counts
    assert res.value == cold.value and res.iterations == cold.iterations


def test_mass_bound_proved_by_inertia_when_gershgorin_fails(monkeypatch):
    n = 6
    # eigenvalues 0.7 (five times) and 2.5; scaled Gershgorin margin 1 - 5 * 0.3 < 0
    M = sp.csr_matrix(np.full((n, n), 0.3) + 0.7 * np.eye(n))
    K = sp.diags([-np.ones(n - 1), 1.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")
    counts = []
    real = eig._inertia

    def inertia(pencil, sigma):
        count, lu = real(pencil, sigma)
        counts.append((sigma, count))
        return count, lu

    monkeypatch.setattr(eig, "_inertia", inertia)
    mu = eig._mass_lower_bound(M)
    assert 0 < mu <= 0.7
    assert counts[-1] == (mu, 0)                          # the returned bound is proved
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    assert pencil_lower_bound(eig.Pencil(K, M)) <= dense[0]
    assert solve_pencil(K, M, tol=1e-10).value == pytest.approx(dense[0], rel=1e-10)


# --- a candidate lower bound ------------------------------------------------------


def recorded_inertia(monkeypatch, refuse=None):
    """Record (sigma, count) of every inertia count; refuse symmetric pivoting at ``refuse``."""
    counts = []
    real = eig._inertia

    def inertia(pencil, sigma):
        if sigma == refuse:
            counts.append((sigma, None))
            raise SolverError("symmetric pivoting was refused")
        count, lu = real(pencil, sigma)
        counts.append((sigma, count))
        return count, lu

    monkeypatch.setattr(eig, "_inertia", inertia)
    return counts


@pytest.mark.parametrize("refused", [False, True], ids=["counts-above-0", "pivoting-refused"])
def test_wrong_lower_bound_falls_back_to_gershgorin(monkeypatch, refused):
    K, M, vals, _ = star_pencil()
    cold = solve_pencil(K, M, tol=1e-10)
    lb = pencil_lower_bound(eig.Pencil(K, M))
    seed = lb - 0.01 * max(1.0, abs(lb))
    # lambda_2 counts 1 eigenvalue below it; a hint below lambda_1 can fail to factor
    hint = 0.5 * (vals[0] + seed) if refused else vals[1]
    counts = recorded_inertia(monkeypatch, refuse=hint if refused else None)
    res = solve_pencil(K, M, tol=1e-10, lower=hint)
    assert counts[0] == (hint, None if refused else 1)   # the hint is checked first
    assert counts[1] == (seed, 0)                        # then placement starts over
    assert res.value == pytest.approx(cold.value, rel=1e-12)
    assert np.count_nonzero(vals < res.certified_lower) == 0


def test_proved_lower_bound_starts_the_shift(monkeypatch):
    pencil = restricted_annulus()
    K, M = km(pencil)
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    cold = smallest_eigenpair(pencil, tol=1e-10)
    hint = dense[0] - 1e-3 * max(1.0, abs(dense[0]))
    counts = recorded_inertia(monkeypatch)
    res = smallest_eigenpair(pencil, tol=1e-10, lower=hint)
    # one count proves the hint and the window is closed there: no probe
    assert counts == [(hint, 0), (res.certified_lower, 0)]
    assert res.shift == hint
    assert res.iterations < cold.iterations
    assert res.value == pytest.approx(cold.value, rel=1e-12)


# --- the condensed factorization ---------------------------------------------------


def with_lengths(doc, lengths):
    """``doc`` with its edges' lengths taken in turn from ``lengths``."""
    for edge, length in zip(doc["edges"], lengths * len(doc["edges"])):
        edge["length"] = length
    return doc


def free_pencil(doc, h, coeffs=Q_SIN):
    g = load_graph(doc)
    forms = assemble(build_mesh(g, h), load_coefficients(coeffs, g))
    return eig.Pencil(forms.K, forms.M)


def ladder_free():
    return free_pencil(with_lengths(ladder(3), [1.0, 0.8, 0.65, 0.9]), 0.1)


def cycle_free():
    return free_pencil(with_lengths(cycle(5), [0.7, 1.0, 0.85]), 0.1)


def star_short_arms():
    """Free star whose arms have 1, 2, 9 and 17 cells: no chain, a one-row chain, long chains."""
    return free_pencil(with_lengths(star(4), [0.05, 0.1, 0.45, 0.85]), 0.05)


def path_short_free():
    """Free path(2) with a one-cell edge: vertex columns 1 and 2 reach exactly two rows below."""
    return free_pencil(with_lengths(path(2), [0.18, 0.77]), 0.3)


def between_eigenvalues(vals, count=5):
    """A shift below the spectrum and one between each pair of the first distinct eigenvalues."""
    distinct = vals[np.diff(vals, prepend=-np.inf) > 1e-8][:count]
    return [vals[0] - 1.0] + list(0.5 * (distinct[:-1] + distinct[1:]))


def check_against_lapack(pencil, sigma, vals):
    """The count equals LAPACK's, and solves match SuperLU's; returns the counting factor.

    ``pencil`` is one analysis, reused at every shift a test passes.  The
    counting factor (diagonal pivots only) is checked as a solver where
    K - sigma*M is positive definite, the only place a solve uses it.
    """
    count, factor = eig._inertia(pencil, sigma)
    assert count == np.count_nonzero(vals <= sigma)
    if count == 0:
        A = (pencil.K - sigma * pencil.M).tocsc()
        b = np.random.default_rng(0).normal(size=A.shape[0])
        want = scipy.sparse.linalg.splu(A).solve(b)
        np.testing.assert_allclose(factor.solve(b), want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
    return factor


def lapack_shifts(K, M, count=5):
    """One analysis of (K, M), its dense spectrum and the shifts of ``between_eigenvalues``."""
    vals = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    return eig.Pencil(K, M), vals, between_eigenvalues(vals, count)


@pytest.mark.parametrize(
    "make_pencil",
    [
        ladder_free,
        cycle_free,
        star_short_arms,
        path_short_free,
        star_piecewise_q,
        tree_negative_q_level,
        restricted_annulus,
        tree5_level,
        leaf_well_level,
        ladder6_level,
    ],
)
def test_condensed_count_and_solve_agree_with_lapack(make_pencil):
    K, M = km(make_pencil())
    pencil, vals, shifts = lapack_shifts(K, M)
    assert len(shifts) == 5
    heads = [check_against_lapack(pencil, sigma, vals).m for sigma in shifts]
    # below lambda_1 the chains are positive definite by interlacing, so the split is taken
    assert heads[0] < K.shape[0]


def looped_multigraph():
    """A loop at a, two parallel edges from a to b and a tail from b to c."""
    return {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "loop", "from": "a", "to": "a", "length": 1.0},
            {"id": "p1", "from": "a", "to": "b", "length": 1.0},
            {"id": "p2", "from": "b", "to": "a", "length": 1.0},
            {"id": "tail", "from": "b", "to": "c", "length": 1.0},
        ],
        "root": "a",
    }


def test_condensed_agrees_with_lapack_on_random_small_graphs():
    # short edges put a vertex's coupling right below the vertex rows and
    # leave one-row or no chains; each pencil is a random piece of a random
    # graph, cut at its interface and, half the time, at the host's leaves;
    # some shifts lie above an edge's Dirichlet bottom
    rng = np.random.default_rng(1)
    split = pieces = 0
    for _ in range(40):
        doc = [path(3), star(3), tree(2), ladder(2), cycle(3), looped_multigraph()][rng.integers(6)]
        g = load_graph(with_lengths(doc, list(rng.uniform(0.05, 1.2, len(doc["edges"])))))
        mesh = build_mesh(g, rng.uniform(0.05, 0.4))
        assert mesh.dof.min() >= 0
        forms = assemble(mesh, load_coefficients(Q_SIN, g))
        ids = [e.id for e in g.edges]
        piece = [eid for eid in ids if rng.random() < 0.7] or [ids[rng.integers(len(ids))]]
        try:
            K, M = km(forms.restrict(piece, host_boundary=bool(rng.random() < 0.5)))
        except MeshError as exc:  # a piece of one-cell edges, cut at every vertex
            assert "no free degrees of freedom" in str(exc)
            continue
        pieces += 1
        pencil, vals, shifts = lapack_shifts(K, M, count=8)
        for sigma in shifts:
            split += check_against_lapack(pencil, sigma, vals).m < K.shape[0]
    assert split > 0 and pieces >= 30


def test_one_analysis_factors_like_a_fresh_one_at_every_shift():
    K, M = km(tree5_level())
    pencil, vals, shifts = lapack_shifts(K, M)
    b = np.random.default_rng(2).normal(size=K.shape[0])
    for sigma in shifts:
        reused, fresh = eig.Condensed(pencil, sigma, eig.splu), eig.Condensed(eig.Pencil(K, M), sigma, eig.splu)
        assert reused.m == fresh.m
        assert np.array_equal(reused.solve(b), fresh.solve(b))
        # the factored values are scipy's K - sigma*M entry for entry
        assert (pencil.K - sigma * pencil.M != (K - sigma * M).tocsc()).nnz == 0


def differing_patterns():
    """(K, M) pairs on different patterns, from the ladder: K with an exact zero dropped, and a lumped M."""
    K, M = km(ladder_free())
    m = eig._head_size(K.tocsc())
    dropped = K.tolil()
    dropped[m + 1, m + 2] = dropped[m + 2, m + 1] = 0.0   # inside the first edge chain
    lumped = sp.diags(np.asarray(M.sum(axis=1)).ravel(), format="csr")
    return [(dropped.tocsr(), M), (K, lumped), (dropped.tocsr(), lumped)]


@pytest.mark.parametrize("case", range(3), ids=["dropped-zero", "lumped-mass", "both"])
def test_union_pattern_agrees_with_lapack(case):
    K, M = differing_patterns()[case]
    K.eliminate_zeros()
    assert K.nnz != M.nnz
    pencil, vals, shifts = lapack_shifts(K, M)
    assert np.array_equal(pencil.K.indptr, pencil.M.indptr) and np.array_equal(pencil.K.indices, pencil.M.indices)
    assert pencil.K.nnz == max(K.nnz, M.nnz)
    assert (pencil.K != K).nnz == 0 and (pencil.M != M).nnz == 0   # the union only adds zeros
    heads = [check_against_lapack(pencil, sigma, vals).m for sigma in shifts]
    assert heads[0] < K.shape[0]
    solved = solve_pencil(K, M, tol=1e-10)
    assert solved.value == pytest.approx(vals[0], rel=1e-10)
    assert np.count_nonzero(vals < solved.certified_lower) == 0


def test_condensed_refuses_an_indefinite_tail():
    K, M = km(restricted_annulus())
    vals = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    m = eig._head_size(K.tocsc())
    # the smallest Dirichlet eigenvalue of the edge interiors
    edge_bottom = scipy.linalg.eigh(K[m:, m:].toarray(), M[m:, m:].toarray(), eigvals_only=True)[0]
    above = vals[vals > edge_bottom]
    pencil = eig.Pencil(K, M)
    factor = check_against_lapack(pencil, 0.5 * (above[0] + above[1]), vals)
    assert factor.m == K.shape[0] and factor.lu.shape == K.shape
    # the same analysis splits again below the edge bottom
    assert check_against_lapack(pencil, vals[0] - 1.0, vals).m == m


def test_condensed_refuses_a_coupling_to_an_inner_chain_row():
    n = 8
    K = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="lil")
    K[0, 5] = K[5, 0] = -0.5   # the head row 0 reaches the middle of the chain 1..7
    K, M = K.tocsr(), sp.identity(n, format="csr")
    assert eig._head_size(K.tocsc()) == 1
    pencil, vals, shifts = lapack_shifts(K, M)
    assert pencil.m == n
    for sigma in shifts:
        factor = check_against_lapack(pencil, sigma, vals)
        assert factor.m == n and factor.lu.shape == (n, n)


def test_superlu_sees_one_row_per_free_vertex(monkeypatch):
    shapes = []
    real = eig.splu

    def splu(A, **kwargs):
        shapes.append(A.shape)
        return real(A, **kwargs)

    monkeypatch.setattr(eig, "splu", splu)
    pencil = tree8_level()
    smallest_eigenpair(pencil, tol=1e-10)
    g = load_graph(tree(8))
    vertices = len(g.vertices) - len(g.boundary)   # the leaves are Dirichlet
    assert vertices == 255 and pencil.n == 4845
    assert shapes and all(shape == (vertices, vertices) for shape in shapes)


# --- every shift is proved --------------------------------------------------------


def star3_fine():
    return dirichlet_pencil(load_graph(star(3)), 0.05)


@pytest.mark.parametrize(
    "make_pencil",
    [
        star3_fine,
        star_piecewise_q,
        tree_negative_q_level,
        restricted_annulus,
        tree5_level,
        leaf_well_level,
        ladder6_level,
        ladder_free,
        cycle_free,
        star_short_arms,
        path_short_free,
        tiny_pencil,
        three_dof_pencil,
    ],
)
def test_every_lanczos_shift_counts_zero(make_pencil):
    pencil = make_pencil()
    res = smallest_eigenpair(pencil, tol=1e-10)
    assert eig._inertia(pencil, res.shift)[0] == 0   # the shift is proved
    # and no bisection step came within delta of lambda_1
    assert res.shift < res.certified_lower < res.value
