"""Seeded self-check suite: one named check per library invariant.

Each check builds its own small fixture, measures the quantity the
invariant constrains, and reports pass/fail with the measured value.  The
suite is deterministic for a fixed seed and is exposed through the command
line as ``verify``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import expressions
from .coeff import load_coefficients
from .eig import Pencil, _inertia, dense_reference, smallest_eigenpair
from .errors import EvaluationError
from .families import ladder, path, star
from .fem import assemble, build_mesh, mesh_samples
from .graph import build_exhaustion, load_graph
from .spectral import (
    ap_check,
    cutoff_build,
    dirichlet_vertices,
    persson_limit,
    sobolev_constant,
)


def _star_setup(coeff_doc=None, h=0.05):
    g = load_graph(star(3))
    field = load_coefficients(coeff_doc or {}, g)
    mesh = build_mesh(g, h, dirichlet_vertices=g.boundary)
    return g, field, assemble(mesh, field)


# --- individual checks ----------------------------------------------------------


def check_expression_round_trip(rng) -> tuple[bool, str]:
    """pretty -> parse -> pretty is stable and preserves evaluation."""

    def random_ast(depth: int):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return expressions.Coord()
            return expressions.Const(float(np.round(rng.uniform(0.25, 4.0), 3)))
        roll = rng.random()
        if roll < 0.55:
            op = ["+", "-", "*", "/", "^"][int(rng.integers(0, 5))]
            left = random_ast(depth - 1)
            right = random_ast(depth - 1)
            if op == "^":
                right = expressions.Const(float(rng.integers(1, 4)))
            return expressions.Binary(op, left, right)
        if roll < 0.7:
            return expressions.Neg(random_ast(depth - 1))
        name = ["sin", "cos", "exp", "sqrt", "abs"][int(rng.integers(0, 5))]
        return expressions.Call(name, random_ast(depth - 1))

    trees = 40
    compared = 0
    for _ in range(trees):
        ast = random_ast(4)
        text = expressions.pretty(ast)
        reparsed = expressions.parse_expression(text)
        if expressions.pretty(reparsed) != text:
            return False, f"printer not stable on {text!r}"
        for x in rng.uniform(0.1, 2.0, size=8):
            try:
                a = expressions.evaluate(ast, float(x))
            except EvaluationError:
                continue
            b = expressions.evaluate(reparsed, float(x))
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                return False, f"evaluation changed on {text!r} at x={x}"
            compared += 1
    return True, f"{trees} trees stable, {compared} point evaluations identical"


def check_pencil_shift(rng) -> tuple[bool, str]:
    """q -> q + c*w moves the lowest eigenvalue by exactly c (c = 7)."""
    _, _, base = _star_setup()
    _, _, shifted = _star_setup({"default": {"q": 7.0}})
    a = smallest_eigenpair(base).value
    b = smallest_eigenpair(shifted).value
    err = abs((b - a) - 7.0)
    return err <= 1e-12 * max(1.0, abs(a) + 7.0), f"measured shift {b - a!r}, error {err:.3e}"


def check_pencil_scaling(rng) -> tuple[bool, str]:
    """(p, q, w) -> (cp, cq, cw) leaves eigenvalues unchanged (c = 0.3)."""
    _, _, base = _star_setup({"default": {"q": 2.0}})
    _, _, scaled = _star_setup({"default": {"p": 0.3, "q": 0.6, "w": 0.3}})
    a = smallest_eigenpair(base).value
    b = smallest_eigenpair(scaled).value
    rel = abs(b - a) / max(1.0, abs(a))
    return rel <= 1e-12, f"relative change {rel:.3e}"


def check_dense_iterative_agreement(rng) -> tuple[bool, str]:
    """Iterative and dense eigensolves agree on small pencils."""
    worst = 0.0
    for doc, h in [({}, 1.0 / 40), ({"default": {"q": -1.5}}, 0.05)]:
        _, _, forms = _star_setup(doc, h=h)
        it = smallest_eigenpair(forms, tol=1e-10)
        dv, _ = dense_reference(forms)
        worst = max(worst, abs(it.value - dv))
    return worst <= 1e-10, f"max |iterative - dense| = {worst:.3e}"


def check_ap_consistency(rng) -> tuple[bool, str]:
    """ap_check outcomes match the sign of lam - bottom on random trials."""
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    ex = build_exhaustion(g, "c", 1)
    tol = 1e-3
    lams = list(rng.uniform(-1.0, 6.0, size=20))
    counts = {"certificate": 0, "refutation": 0, "indeterminate": 0}
    for lam in lams:
        res = ap_check(g, field, ex, float(lam), 1, h=0.05, tol=tol)
        counts[res.kind] += 1
        expected = (
            "certificate"
            if lam < res.dirichlet_bottom - tol
            else "refutation"
            if lam > res.dirichlet_bottom + tol
            else "indeterminate"
        )
        if res.kind != expected:
            return False, f"lam={lam}: got {res.kind}, expected {expected}"
        if res.kind == "certificate" and not res.cert.min_value > 0:
            return False, f"lam={lam}: certificate with min {res.cert.min_value}"
    exact = ap_check(g, field, ex, 2.4674, 1, h=0.05, tol=tol)
    counts[exact.kind] += 1
    return True, f"21 trials consistent: {counts}"


def check_cutoff_contract(rng) -> tuple[bool, str]:
    """Cutoff profile: range [0,1], exact endpoints, constant weighted slope."""
    g = load_graph(path(6))
    field = load_coefficients({"default": {"p": 4.0}}, g)
    ex = build_exhaustion(g, "v00", 3)
    cut = cutoff_build(g, field, ex, 2)
    if not cut.profiles:
        return False, "no halo profile built"
    for prof in cut.profiles.values():
        inside = prof.values if prof.rises_from_src else prof.values[::-1]
        if not (inside[0] == 0.0 and inside[-1] == 1.0):
            return False, f"endpoints {inside[0]}, {inside[-1]} on {prof.edge_id}"
        if np.min(prof.values) < 0 or np.max(prof.values) > 1:
            return False, f"range violation on {prof.edge_id}"
        spread = float(np.max(prof.check_values) - np.min(prof.check_values))
        if spread > 1e-12:
            return False, f"weighted slope varies by {spread:.3e} on {prof.edge_id}"
    want = 2.0
    err = abs(cut.sup_weighted_derivative - want)
    return err <= 1e-12, f"sup weighted slope {cut.sup_weighted_derivative} (expected {want})"


def check_sobolev_inequality(rng) -> tuple[bool, str]:
    """Computed (eps, C) bounds sup_e |f|^2 on random nodal functions."""
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    est = sobolev_constant(g, field, 1.0)
    s = mesh_samples(build_mesh(g, 0.1), field)
    worst = 0.0
    for _ in range(50):
        f = rng.normal(size=s.mesh.n_free)
        value, slope = s.p1(f)
        grad = s.edge_sums(s.wq * s.p * slope**2)
        mass = s.edge_sums(s.wq * s.w * value**2)
        bound = est.epsilon * grad + est.constant * mass
        ratio = np.divide(s.edge_sup(f) ** 2, bound, out=np.full_like(bound, math.inf), where=bound > 0)
        worst = max(worst, float(ratio.max()))
    return worst <= 1.0 + 1e-12, f"max sup^2/bound = {worst:.6f} over 150 edge checks"


def check_persson_monotone(rng) -> tuple[bool, str]:
    """Annulus eigenvalues fall in N and their limits rise in n."""
    g = load_graph(path(12))
    field = load_coefficients({}, g)
    ex = build_exhaustion(g, "v00", 10)
    trace = persson_limit(g, field, ex, [1, 2], [4, 6, 8], h=0.1, tol=1e-9)
    by_inner: dict[int, list[float]] = {}
    for row in trace.rows:
        by_inner.setdefault(row.inner, []).append(row.value)
    for n, seq in by_inner.items():
        if any(b > a + 1e-8 for a, b in zip(seq, seq[1:])):
            return False, f"values increased in N at inner level {n}: {seq}"
    finals = [trace.per_level[n] for n in sorted(trace.per_level)]
    if any(b < a - 1e-8 for a, b in zip(finals, finals[1:])):
        return False, f"per-level values decreased: {finals}"
    return True, f"rows={len(trace.rows)}, estimate={trace.estimate:.6f}"


def check_matrix_symmetry(rng) -> tuple[bool, str]:
    """Assembled forms are bitwise symmetric, even with jumping q."""
    doc = {"default": {"q": {"piecewise": [[0.0, -1.0], [0.4, 2.5]]}}}
    _, _, forms = _star_setup(doc, h=0.07)
    worst = 0
    for mat in (forms.stiffness, forms.potential, forms.mass):
        a = mat.tocsr()
        a.sort_indices()
        b = mat.T.tocsr()
        b.sort_indices()
        same = (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )
        if not same:
            worst += 1
    return worst == 0, f"{worst} of 3 matrices asymmetric"


def check_compact_perturbation(rng) -> tuple[bool, str]:
    """q supported on the first edge leaves outer annulus pencils bitwise equal."""
    g = load_graph(path(8))
    free = load_coefficients({}, g)
    well = load_coefficients({"e01": {"q": -5.0}}, g)
    ex = build_exhaustion(g, "v00", 6)
    annulus = ex.levels[4] - ex.levels[1]
    mesh = build_mesh(g, 0.1, edges=annulus, dirichlet_vertices=dirichlet_vertices(g, annulus, True))
    fa = assemble(mesh, free, domain="q0")
    fb = assemble(mesh, well, domain="well")
    for ma, mb in ((fa.stiffness, fb.stiffness), (fa.potential, fb.potential), (fa.mass, fb.mass)):
        a, b = ma.tocsr(), mb.tocsr()
        a.sort_indices()
        b.sort_indices()
        if not (np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data)):
            return False, "pencil entries differ on an annulus avoiding the well"
    lam_a = smallest_eigenpair(fa).value
    lam_b = smallest_eigenpair(fb).value
    return lam_a == lam_b, f"annulus eigenvalue {lam_a!r} == {lam_b!r}"


def check_pencil_inertia(rng) -> tuple[bool, str]:
    """LAPACK finds no eigenvalue below the certified bound and one within delta above it."""
    _, _, forms = _star_setup({"default": {"q": -1.5}})
    res = smallest_eigenpair(forms, tol=1e-10)
    K, M = forms.pencil()
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    delta = res.value - res.certified_lower
    below = int(np.count_nonzero(dense < res.certified_lower))
    within = int(np.count_nonzero(dense < res.value + delta))
    return (below, within) == (0, 1), (
        f"dense eigenvalues below value - delta: {below}, below value + delta: {within} "
        f"(delta {delta:.3e})"
    )


def check_condensed_inertia(rng) -> tuple[bool, str]:
    """One analysis, reused across shifts, counts as LAPACK does and factors as a fresh one would.

    On a graph with cycles; at every shift the reused analysis's count must
    equal LAPACK's, and its solve must equal, bit for bit, that of an
    analysis built afresh for that shift alone.
    """
    g = load_graph(ladder(3))
    field = load_coefficients({"default": {"q": {"expr": "-1+0.3*sin(2*x)"}}}, g)
    h = float(rng.uniform(0.05, 0.2))
    K, M = assemble(build_mesh(g, h), field).pencil()
    vals = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    distinct = vals[np.diff(vals, prepend=-np.inf) > 1e-8][:6]
    gaps = rng.integers(0, len(distinct) - 1, size=11)
    shifts = [vals[0] - 0.5] + list(distinct[gaps] + rng.uniform(0.05, 0.95, 11) * np.diff(distinct)[gaps])
    b = rng.normal(size=K.shape[0])
    pencil = Pencil(K, M)
    taken = []
    for sigma in shifts:
        count, factor = _inertia(pencil, float(sigma))
        want = int(np.count_nonzero(vals <= sigma))
        if count != want:
            return False, f"h={h:.4f}: {count} nonpositive pivots at {sigma!r}, LAPACK counts {want}"
        fresh_count, fresh = _inertia(Pencil(K, M), float(sigma))
        if fresh_count != count or fresh.m != factor.m or not np.array_equal(fresh.solve(b), factor.solve(b)):
            return False, f"h={h:.4f}: the reused analysis and a fresh one differ at {sigma!r}"
        taken.append(factor.m < K.shape[0])
    # below lambda_1 the chains are positive definite by interlacing, so the split is taken there
    return taken[0], (
        f"h={h:.4f}, {K.shape[0]} dofs: {len(shifts)} shifts through one analysis, counts equal "
        f"LAPACK's and solves a fresh analysis's, {sum(taken)} of them through the vertex Schur complement"
    )


CHECKS = [
    ("expression-round-trip", check_expression_round_trip),
    ("pencil-shift", check_pencil_shift),
    ("pencil-scaling", check_pencil_scaling),
    ("dense-iterative-agreement", check_dense_iterative_agreement),
    ("ap-consistency", check_ap_consistency),
    ("cutoff-contract", check_cutoff_contract),
    ("sobolev-inequality", check_sobolev_inequality),
    ("persson-monotone", check_persson_monotone),
    ("matrix-symmetry", check_matrix_symmetry),
    ("compact-perturbation", check_compact_perturbation),
    ("pencil-inertia", check_pencil_inertia),
    ("condensed-inertia", check_condensed_inertia),
]


def run_suite(seed: int = 0, names=None, stream=None) -> int:
    """Run the named checks (default: all); return the number of failures.

    Each check gets its own generator seeded from (seed, index) so that
    skipping or reordering checks never changes another check's draws.
    """
    import sys

    stream = stream or sys.stdout
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in set(names)]
    failures = 0
    for index, (name, fn) in enumerate(CHECKS):
        if (name, fn) not in selected:
            continue
        rng = np.random.default_rng([seed, index])
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}", file=stream)
    return failures
