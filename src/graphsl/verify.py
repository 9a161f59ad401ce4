"""Seeded self-check suite: one named check per library invariant.

Each check builds its own small fixture, measures the quantity the
invariant constrains, and reports pass/fail with the measured value.  The
suite is deterministic for a fixed seed and is exposed through the command
line as ``verify``.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import scipy.linalg

from . import _kernels, expressions
from .coeff import load_coefficients
from .eig import Pencil, _inertia, dense_reference, smallest_eigenpair
from .errors import EvaluationError
from .families import ladder, path, star
from .fem import _cells, assemble, build_mesh
from .graph import build_exhaustion, load_graph
from .spectral import ap_check, persson_limit, sobolev_constant


def _star_forms(coeff_doc=None, h=0.05):
    g = load_graph(star(3))
    return assemble(build_mesh(g, h), load_coefficients(coeff_doc or {}, g))


def _star_dirichlet(coeff_doc=None, h=0.05):
    """The Dirichlet pencil of star(3): the whole graph, cut at its leaves."""
    forms = _star_forms(coeff_doc, h)
    return forms.restrict(forms.mesh.edge_ids, host_boundary=True)


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
    a = smallest_eigenpair(_star_dirichlet()).value
    b = smallest_eigenpair(_star_dirichlet({"default": {"q": 7.0}})).value
    err = abs((b - a) - 7.0)
    return err <= 1e-12 * max(1.0, abs(a) + 7.0), f"measured shift {b - a!r}, error {err:.3e}"


def check_pencil_scaling(rng) -> tuple[bool, str]:
    """(p, q, w) -> (cp, cq, cw) leaves eigenvalues unchanged (c = 0.3)."""
    a = smallest_eigenpair(_star_dirichlet({"default": {"q": 2.0}})).value
    b = smallest_eigenpair(_star_dirichlet({"default": {"p": 0.3, "q": 0.6, "w": 0.3}})).value
    rel = abs(b - a) / max(1.0, abs(a))
    return rel <= 1e-12, f"relative change {rel:.3e}"


def check_dense_iterative_agreement(rng) -> tuple[bool, str]:
    """Iterative and dense eigensolves agree on small pencils."""
    worst = 0.0
    for doc, h in [({}, 1.0 / 40), ({"default": {"q": -1.5}}, 0.05)]:
        pencil = _star_dirichlet(doc, h=h)
        it = smallest_eigenpair(pencil, tol=1e-10)
        dv, _ = dense_reference(pencil)
        worst = max(worst, abs(it.value - dv))
    return worst <= 1e-10, f"max |iterative - dense| = {worst:.3e}"


def check_ap_consistency(rng) -> tuple[bool, str]:
    """ap_check outcomes match the sign of lam - bottom on 20 random trials.

    A 21st trial, 2.4674 (about (pi/2)^2, the continuum bottom), sits 1.3 tol
    below the discrete bottom, next to the indeterminate band, and goes
    through the same comparison.
    """
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    ex = build_exhaustion(g, "c", 1)
    tol = 1e-3
    lams = list(rng.uniform(-1.0, 6.0, size=20)) + [2.4674]
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
    return True, f"{len(lams)} trials consistent: {counts}"


def _edge_energies(mesh, field):
    """The integrals of p |f'|^2 and w |f|^2 over each edge of ``mesh``, as a function of nodal f.

    Every cell reads the moments that assembly reads, over the cells it lays out.
    """
    edge, left, a, b = _cells(mesh)
    ip, _, _, _, m00, m01, m11 = _kernels.accumulate(field, mesh.edge_ids, edge, a, b)
    d0, d1, n = mesh.dof[left], mesh.dof[left + 1], len(mesh.edge_ids)
    return lambda f: (
        np.bincount(edge, ip * ((f[d1] - f[d0]) / (b - a)) ** 2, n),
        np.bincount(edge, m00 * f[d0] ** 2 + 2.0 * m01 * f[d0] * f[d1] + m11 * f[d1] ** 2, n),
    )


def check_sobolev_inequality(rng) -> tuple[bool, str]:
    """Computed (eps, C) bounds sup_e |f|^2 on random nodal functions."""
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    est = sobolev_constant(g, field, 1.0)
    mesh = build_mesh(g, 0.1)
    energies = _edge_energies(mesh, field)
    worst = 0.0
    for _ in range(50):
        f = rng.normal(size=mesh.n_free)
        grad, mass = energies(f)
        bound = est.epsilon * grad + est.constant * mass
        # the expansion's sup over an edge is its largest nodal |f|
        sup = np.maximum.reduceat(np.abs(f)[mesh.dof], mesh.start[:-1])
        ratio = np.divide(sup**2, bound, out=np.full_like(bound, math.inf), where=bound > 0)
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
    forms = _star_forms(doc, h=0.07)
    worst = 0
    for a in (forms.K, forms.M):
        b = a.T.tocsr()  # the forms are CSR on one sorted pattern, and so is the conversion
        same = (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )
        if not same:
            worst += 1
    return worst == 0, f"{worst} of 2 matrices asymmetric"


def check_compact_perturbation(rng) -> tuple[bool, str]:
    """q supported on the first edge leaves outer annulus pencils bitwise equal."""
    g = load_graph(path(8))
    free = load_coefficients({}, g)
    well = load_coefficients({"e01": {"q": -5.0}}, g)
    ex = build_exhaustion(g, "v00", 6)
    annulus = ex.annulus(1, 4)
    mesh = build_mesh(g, 0.1)
    pa = assemble(mesh, free).restrict(annulus, host_boundary=True)
    pb = assemble(mesh, well).restrict(annulus, host_boundary=True)
    for a, b in ((pa.K, pb.K), (pa.M, pb.M)):
        if not (np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data)):
            return False, "pencil entries differ on an annulus avoiding the well"
    lam_a = smallest_eigenpair(pa).value
    lam_b = smallest_eigenpair(pb).value
    return lam_a == lam_b, f"annulus eigenvalue {lam_a!r} == {lam_b!r}"


def check_pencil_inertia(rng) -> tuple[bool, str]:
    """LAPACK finds no eigenvalue below the certified bound and one within delta above it."""
    pencil = _star_dirichlet({"default": {"q": -1.5}})
    res = smallest_eigenpair(pencil, tol=1e-10)
    K, M = pencil.K, pencil.M
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
    forms = assemble(build_mesh(g, h), field)
    K, M = forms.K, forms.M
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
    ("sobolev-inequality", check_sobolev_inequality),
    ("persson-monotone", check_persson_monotone),
    ("matrix-symmetry", check_matrix_symmetry),
    ("compact-perturbation", check_compact_perturbation),
    ("pencil-inertia", check_pencil_inertia),
    ("condensed-inertia", check_condensed_inertia),
]


def run_suite(seed: int = 0, names=None, stream=None) -> int:
    """Run the named checks (default: all); return the number of failures.

    Each check gets its own generator seeded from (seed, CRC-32 of its
    name), so that selecting, reordering, adding or deleting checks never
    changes another check's draws.
    """
    import sys

    stream = stream or sys.stdout
    selected = CHECKS if names is None else [c for c in CHECKS if c[0] in set(names)]
    failures = 0
    for name, fn in selected:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}", file=stream)
    return failures
