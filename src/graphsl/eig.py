"""Smallest eigenpair of the generalized pencil K x = lambda M x.

Every pencil, from one unknown up, is solved by inverse iteration at
shifts that inertia counts prove (``eigsh``; Parlett, *The Symmetric
Eigenvalue Problem*, ch. 3-4; Demmel, *Applied Numerical Linear
Algebra*, section 5.3, the bisection and inverse iteration of LAPACK's
``dstebz`` and ``dstein``).  A count of 0 at a shift lo proves that no
eigenvalue lies at or below it, and the iteration only ever runs on such
a shift's factor F_lo: y = F_lo^{-1} M x, M-normalized, from the
all-ones vector.  Its Rayleigh quotient rho = x^T K x is an upper end of
lambda_1 by Courant-Fischer.  With delta = max(tol, 1e-12) * max(1,
|rho|) and s = rho - delta, each application either finds s at or below
lo, so lo lies within delta of lambda_1, or counts one probe: s itself
once the residual estimate says x has converged, otherwise a point
between lo and rho.  A count above 0 lowers the upper end and bisects
toward lo; a count of 0 raises lo and its factor replaces F_lo.  A count
of 0 at s is the proof: one more application on F_s, the polish, gives
the returned pair, whose value is its Rayleigh quotient and whose
``certified_lower`` is value - delta.  The polish is needed: the pair
before it can miss ``tol``.  The proof needs no factorization of its own.

A caller may pass a candidate lower bound ``lower`` of lambda_1 (for a
Dirichlet piece, the proved lower bound of a solved piece that contains
it: by Cauchy interlacing a principal sub-pencil's lambda_1 is no
smaller than the whole pencil's; or a guess, such as an extrapolation
along a sweep of nested pieces).  The first lo is then the larger of a
Gershgorin lower bound less 1 % of its scale (the seed) and ``lower``.
The hint is checked, never trusted: its count must be 0, and if it is
not, or SuperLU refuses symmetric pivoting there, the solve starts from
the seed, so a wrong hint costs one factorization and never a wrong
answer.  There is no other start: a count that cannot be read, or that
is above 0, at the seed raises SolverError.

Every reduction of a solve (the Rayleigh quotients, the M-norms, the
residual estimate and the reported norms) runs in numpy's own summation
loop (``_dot``), never in BLAS, whose sum order follows its thread
count; so a solve gives the same bytes at every BLAS thread count.

A sparse direct solve splits into a symbolic analysis, which depends only
on where the entries are, and a numeric factorization (Davis, *Direct
Methods for Sparse Linear Systems*, 2006).  ``Pencil`` is the analysis,
built once per pencil: K and M on one shared CSC pattern (assembled forms
come on one; only a caller's pencil is spread onto the union), the head
size, the chains, and the Schur complement's pattern with the map that
sums its values.  ``Condensed`` is the numeric factor at one shift:
K.data - shift*M.data, LAPACK on the chains, one bincount and SuperLU.  Every
factorization of a solve (the seed's or the hint's count and every probe,
the proof among them) reuses the one analysis, so a new shift only
refactors values.

Every factorization condenses the edge interiors out.  In the dof order
of ``fem.build_mesh``, free vertices first and then each edge's interior
nodes in a row, the block A_EE of A = K - shift*M after the vertex rows
is tridiagonal, one chain per edge.  LAPACK's ``dpttrf`` factors A_EE as
L D L^T, which proves it positive definite, and SuperLU factors only the
vertex Schur complement S_V = A_VV - A_VE A_EE^{-1} A_EV, one row per
free vertex, in symmetric mode with diagonal pivots and one column per
panel (``_SYMMETRIC``): S_V factors with almost no fill, so wider panels
only sweep dense n-by-panel work arrays.  When A_EE is not positive
definite (the shift lies above the Dirichlet bottom of an edge), SuperLU
factors the whole of A the same way.  A solve with F is one tridiagonal
solve plus one solve with S_V.

No solve gets a refinement pass.  The count of 0 at the shift proves
K - shift*M positive definite, and LDL^T without pivoting is backward
stable on positive definite matrices (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 10), for A_EE and S_V alike.

That the returned value is the *smallest* eigenvalue is proved, not
assumed from where the shift was put.  A count factors K - sigma*M once:
A_EE as L D L^T by LAPACK and S_V as P^T L D L^T P by SuperLU restricted
to diagonal pivots.  By Haynsworth's inertia additivity, In(A) = In(A_EE)
+ In(S_V), and Sylvester's law of inertia, the number of nonpositive
pivots of S_V is then the number of eigenvalues at or below sigma, so
all pivots positive proves that none lies there.  Inverse iteration from
a shift below lambda_1 finds lambda_1 unless x is M-orthogonal to the
ground state, as the all-ones vector can be to a sign-changing one
(graph pencils with a positive ground state never are).  Then a
converged x keeps failing the count at its s, the run gives up, and the
solve runs once more from a seeded random start vector; if that run's
pair cannot be proved either, the solve raises SolverError.  One factor
is alive at a time: F_lo is freed before each probe is made, a round
whose probes all count above 0 refactors at lo (the same values, so the
same factor), and the last factor is freed before the pair is measured.

Two accuracy measures are reported.  The residual ||K x - lambda M x|| /
||M x|| is unscaled: with unit roundoff u its floor is about
u ||K|| ||x|| / ||M x||, which grows like h^-2 on a P1 mesh of width h,
and it is what ``tol`` is checked against.  After the polish on a
factor within delta of lambda_1 it typically lies near that floor.  The
normwise backward error ||K x - lambda M x|| / ((||K||_1 + |lambda|
||M||_1) ||x||) is scale-free.  Its 1-norms come
with the Gershgorin bound from K's and M's absolute row sums, worked out
once per pencil (``Pencil.bounds``).

A dense reference (LAPACK) is exposed separately for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, SolverError

# SuperLU restricted to diagonal pivots, P A P^T = L U with U = D L^T, one
# column per panel (wider panels only sweep dense work arrays here)
_SYMMETRIC = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0,
    "options": {"SymmetricMode": True},
    "panel_size": 1,
}
_MAX_APPLIES = 2000  # applications of the inverted operator one solve may make
_MASS_HALVINGS = 64  # tries at proving a lower bound of M below its smallest diagonal entry
_START_SEED = 0  # the seeded start vector of the one rerun after a failed proof


@dataclass
class EigenResult:
    """Converged smallest eigenpair with diagnostics.

    ``vector`` is the polished iterate, and ``value`` is its Rayleigh
    quotient.  ``residual`` is ||K x - value * M x|| / ||M x|| recomputed
    from the returned pair, at most max(tol, 1e-12); it is unscaled, with a
    rounding floor that grows like h^-2.  ``backward_error`` is the
    scale-free ||K x - value * M x|| / ((||K||_1 + |value| ||M||_1) ||x||).
    ``certified_lower`` is value - delta with delta = max(tol, 1e-12) *
    max(1, |value|): no eigenvalue of the pencil lies below it, proved by
    an inertia count.  ``iterations`` counts applications of the inverted
    operator, the polish included, over both runs when the seeded rerun
    was made.  ``shift`` is the last shift the solve proved by a count of
    0: the polish's, or value - delta when that was counted after it, so
    ``certified_lower`` <= ``shift`` < ``value``.  ``history`` holds one
    (apply index, Rayleigh quotient) row per application, so it has
    ``iterations`` rows and ends with ``value``.
    """

    value: float
    vector: np.ndarray
    residual: float
    backward_error: float
    certified_lower: float
    iterations: int
    converged: bool
    shift: float
    history: list


def _abs_row_sums(A) -> np.ndarray:
    """Sums of |a_ij| over each row of a CSC matrix: a bincount over its row indices.

    No symmetry is assumed and no |A| matrix is built.
    """
    return np.bincount(A.indices, weights=np.abs(A.data), minlength=A.shape[0])


def _mass_lower_bound(M) -> float:
    """Certified positive lower bound for the smallest eigenvalue of M."""
    M = csc_matrix(M)
    d = M.diagonal()
    rows, cols = M.indices, np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
    off = rows != cols
    inv_sqrt = 1.0 / np.sqrt(d)
    weights = np.abs(M.data[off]) * inv_sqrt[rows[off]] * inv_sqrt[cols[off]]
    sums = np.bincount(rows[off], weights=weights, minlength=M.shape[0])
    margin = 1.0 - float(np.max(sums)) if sums.size else 1.0
    if margin > 0:
        return margin * float(np.min(d))
    # pathological weight profile: halve below the smallest diagonal entry
    # until an inertia count of 0 proves M - mu I positive definite
    pencil = Pencil(M, identity(M.shape[0], format="csc"))
    mu = float(np.min(d))
    for _ in range(_MASS_HALVINGS):
        mu *= 0.5
        if not _inertia(pencil, mu)[0]:
            return mu
    raise SolverError(f"no positive lower bound of the mass matrix above {mu!r}")


def pencil_lower_bound(pencil: Pencil) -> float:
    """Gershgorin lower bound for the smallest eigenvalue of K x = lambda M x.

    With alpha the lower Gershgorin bound of K, the Rayleigh quotient is
    at least alpha divided by the upper Gershgorin bound of M when alpha
    is nonnegative, and alpha divided by a positive lower bound of M's
    spectrum otherwise.  It reads the pencil's ``bounds``, worked out once
    per pencil; ``solve_pencil`` starts its shifts just below it unless a
    proved hint lies higher, and proves the smallest eigenvalue by an
    inertia count.
    """
    mass_diagonal, alpha, mass_upper, _, _ = pencil.bounds
    if mass_diagonal <= 0:
        raise SolverError("mass matrix has a nonpositive diagonal entry")
    if alpha >= 0:
        return alpha / mass_upper
    return alpha / _mass_lower_bound(pencil.M)


def _canonical_csc(A):
    """A in CSC with sorted, summed indices; the caller's arrays are never changed."""
    A = csc_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def _on_union(K, M):
    """K and M on the union of their patterns, each missing entry an explicit zero."""
    rows, n = K.shape
    keys = [np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr)) * rows + A.indices for A in (K, M)]
    union = np.union1d(*keys)  # column-major order: CSC with sorted rows
    indices = union % rows
    indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * rows)

    def spread(A, key):
        data = np.zeros(union.size)
        data[np.searchsorted(union, key)] = A.data
        return csc_matrix((data, indices, indptr), shape=K.shape)

    return spread(K, keys[0]), spread(M, keys[1])


def _head_size(A) -> int:
    """One past the last column of A with a row index below its subdiagonal.

    A is CSC with sorted indices, so a column's deepest row is its last
    entry; an empty column reads its neighbour's, which can only raise the
    result.
    """
    if not A.nnz:
        return 0
    far = np.flatnonzero(A.indices[A.indptr[1:] - 1] > np.arange(1, A.shape[0] + 1))
    return int(far[-1]) + 1 if far.size else 0


class Pencil:
    """K and M on one CSC pattern, and the split of K - sigma*M that every shift reuses.

    The symbolic half of the factorization, built once per pencil: every
    inertia count, shift-invert factor and proof of the pencil is a
    ``Condensed`` on it, which only does value work.  K and M share one
    pattern, as assembled forms do by construction, and reach the analysis
    through ``on_pattern`` as they are; a caller's pencil is made canonical
    here, and if its patterns differ, such as ``(M, I)`` in
    ``_mass_lower_bound``, spread onto their union.  So K.data -
    sigma*M.data is scipy's K - sigma*M.

    With A = K - sigma*M = [[A_VV, A_VE], [A_EV, A_EE]], the head size ``m``
    is one past the last column holding a row index below its subdiagonal,
    so A_EE is tridiagonal.  In graphsl's dof order the head rows are the
    free vertices, and A_EE is a direct sum of chains, the runs between
    absent subdiagonal entries, one per edge.  The analysis holds the
    positions of A_EE's diagonal and subdiagonal (an absent entry reads the
    zero one past the data), A_EV's entries grouped by chain (``ev``, with
    rows ``r`` and columns ``i``), each pair (p, q) of entries on one chain
    with the 2x2 corner of A_EE^{-1} it reads (``corner_at``), and the CSC
    pattern of the Schur complement S_V with ``slot``, where each of
    A_VV's entries and each pair's product lands in S_V's data.  When some
    entry of A_EV is not on a chain's first or last row, its *ends*, the
    tail is empty (``m`` = n) and SuperLU factors the whole matrix at every
    shift.  Every array is an index array of O(dofs) entries.
    """

    def __init__(self, K, M):
        K, M = _canonical_csc(K), _canonical_csc(M)
        n = K.shape[0]
        if n == 0:
            raise SolverError("empty pencil")
        if K.shape != M.shape:
            raise SolverError("pencil matrices must share a shape")
        if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
            K, M = _on_union(K, M)
        self._analyse(K, M)

    @classmethod
    def on_pattern(cls, K: csc_matrix, M: csc_matrix) -> Pencil:
        """The analysis of K and M given on one canonical CSC pattern, taken as it is.

        The caller guarantees what ``__init__`` would otherwise establish:
        both matrices are CSC with sorted, summed indices, and they share
        their ``indices`` and ``indptr`` arrays.  ``AssembledForms.restrict``
        cuts its pieces that way.
        """
        pencil = cls.__new__(cls)
        pencil._analyse(K, M)
        return pencil

    def _analyse(self, K, M) -> None:
        self.K, self.M, self.n = K, M, K.shape[0]
        self.m = _head_size(K)
        if self.m < self.n:
            self._split()

    @cached_property
    def bounds(self) -> tuple[float, float, float, float, float]:
        """(min diag M, lower Gershgorin end of K, upper Gershgorin end of M, ||K||_1, ||M||_1).

        One bincount of absolute values per matrix gives the Gershgorin
        ends that ``pencil_lower_bound`` reads and the 1-norms (the largest
        absolute row sums, K and M being symmetric) that the backward error
        reads, once per pencil however often it is solved.
        """
        dk, dm = self.K.diagonal(), self.M.diagonal()
        rk, rm = _abs_row_sums(self.K), _abs_row_sums(self.M)
        return (
            float(np.min(dm)),
            float(np.min(dk - (rk - np.abs(dk)))),
            float(np.max(dm + (rm - np.abs(dm)))),
            float(np.max(rk)),
            float(np.max(rm)),
        )

    def _split(self) -> None:
        K, m, n, nnz = self.K, self.m, self.n, self.K.nnz
        # no tail column reaches below its subdiagonal, so a column's last entry
        # is its subdiagonal, or else its diagonal; the entry above a
        # subdiagonal is the diagonal, if any
        j = np.arange(m, n)
        size = np.diff(K.indptr[m:])
        end = K.indptr[m + 1 :] - 1
        row = np.where(size > 0, K.indices[end], -1)
        has_sub = row == j + 1
        at = end - has_sub
        has_diag = (size > has_sub) & (K.indices[at] == j)
        cut = ~has_sub[:-1]
        first, last = np.concatenate(([True], cut)), np.concatenate((cut, [True]))
        # the head columns: A_VV above row m, A_EV below it
        head = K.indptr[m]
        rows, cols = K.indices[:head], np.repeat(np.arange(m), np.diff(K.indptr[: m + 1]))
        lower = rows >= m
        r = rows[lower] - m
        if not (first | last)[r].all():
            self.m = n  # the head couples to an inner row of a chain
            return
        self.diag, self.sub = np.where(has_diag, at, nnz), np.where(has_sub, end, nnz)[:-1]
        self.starts, stops = np.flatnonzero(first), np.flatnonzero(last)
        self.stops = stops[self.starts != stops]  # the last rows of chains longer than one row
        chain = (np.cumsum(first) - 1)[r]
        order = np.argsort(chain, kind="stable")
        self.r, self.i, self.ev, chain = r[order], cols[lower][order], np.flatnonzero(lower)[order], chain[order]
        # where a solve finds A_EE^{-1} b at each entry's row among its chain sums
        self.pick = chain + self.starts.size * ~first[self.r]
        # every pair (p, q) of entries on one chain adds -v_p (A_EE^{-1})_{r_p r_q} v_q to S_V
        count = np.bincount(chain)[chain]
        p = np.repeat(np.arange(chain.size), count)
        offset = np.arange(p.size) - np.repeat(np.cumsum(count) - count, count)
        q = np.repeat(np.searchsorted(chain, chain), count) + offset
        rp, rq = self.r[p], self.r[q]
        same = rp == rq
        # the corner (a, b), also used for (b, a); a lone row reads column 0 only if it is a first row
        self.corner_at = (np.where(same, rp, np.minimum(rp, rq)), (~(same & first[rp])).astype(np.intp))
        self.p, self.q = p, q
        self.vv = np.flatnonzero(~lower)
        if m:
            keys = np.concatenate((cols[~lower] * m + rows[~lower], self.i[q] * m + self.i[p]))
            pattern, self.slot = np.unique(keys, return_inverse=True)
            # in scipy's index type at this size, so no factorization converts them
            indptr = np.searchsorted(pattern, np.arange(m + 1) * m)
            self.schur = ((pattern % m).astype(np.int32), indptr.astype(np.int32))


class Condensed:
    """Factor of A = K - sigma*M on a ``Pencil``'s analysis.

    The values are K.data - sigma*M.data on the shared pattern.  The split
    is taken when the pencil has a tail and LAPACK's ``dpttrf`` proves A_EE
    positive definite (L D L^T with every pivot of D positive).  Only the
    Schur complement S_V = A_VV - A_VE A_EE^{-1} A_EV then goes to
    ``lu_factor`` (this module's or the caller's ``splu``), in symmetric
    mode with diagonal pivots only and one column per panel.  A_VE
    A_EE^{-1} A_EV only needs each chain's 2x2 corner of A_EE^{-1}: one
    two-column ``dpttrs`` gives the columns of A_EE^{-1} at every chain's
    first and last row (``corner``), and one bincount sums S_V's values
    into the analysed pattern.  Otherwise ``m`` is n and ``lu_factor``
    factors A itself.  ``lu`` is S_V's factor, A's, or None when the split
    leaves no head.  A failed ``lu_factor`` raises SolverError naming sigma.

    A = [[I, A_VE A_EE^{-1}], [0, I]] diag(S_V, A_EE) [[I, 0], [A_EE^{-1}
    A_EV, I]] is a congruence, so In(A) = In(S_V) + In(A_EE) (Haynsworth):
    with A_EE positive definite, S_V has exactly A's nonpositive
    eigenvalues.  A solve reads A_EE^{-1} b on the ends from the corner
    columns, solves with S_V once and makes one ``dpttrs`` for the tail.
    """

    def __init__(self, pencil: Pencil, sigma: float, lu_factor):
        K, M = pencil.K, pencil.M
        values = np.empty(K.nnz + 1)
        values[-1] = 0.0  # what an absent tail entry reads
        data = values[:-1]
        np.multiply(M.data, sigma, out=data)
        np.subtract(K.data, data, out=data)  # scipy's K - sigma*M, entry for entry
        self.pencil, self.m, self.lu, self.corner = pencil, pencil.n, None, None
        if pencil.m < pencil.n and self._condense(values):
            if not self.m:
                return
            indices, indptr = pencil.schur
            schur = np.bincount(pencil.slot, weights=self._schur_terms(values), minlength=indices.size)
            A = csc_matrix((schur, indices, indptr), shape=(self.m, self.m))
        else:
            A = csc_matrix((data, K.indices, K.indptr), shape=K.shape)
        try:
            self.lu = lu_factor(A, **_SYMMETRIC)
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular" and the like
            raise SolverError(f"factorization of K - {sigma!r}*M failed: {exc}") from exc

    def _condense(self, values: np.ndarray) -> bool:
        """Factor A_EE and its corners; False when A_EE is not positive definite."""
        pencil = self.pencil
        sub = values[pencil.sub] if pencil.sub.size else np.zeros(1)  # f2py wants e nonempty
        d, e, info = dpttrf(values[pencil.diag], sub, overwrite_d=1, overwrite_e=1)
        if info:
            return False
        unit = np.zeros((pencil.diag.size, 2), order="F")
        unit[pencil.starts, 0] = unit[pencil.stops, 1] = 1.0
        self.m, self.d, self.e, self.v = pencil.m, d, e, values[pencil.ev]
        self.corner = dpttrs(d, e, unit, overwrite_b=True)[0]
        return True

    def _schur_terms(self, values: np.ndarray) -> np.ndarray:
        """A_VV's entries, then each pair's -v_p (A_EE^{-1})_{r_p r_q} v_q, in ``slot`` order."""
        v, pencil = self.v, self.pencil
        return np.concatenate((values[pencil.vv], -self.corner[pencil.corner_at] * (v[pencil.p] * v[pencil.q])))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b."""
        if self.corner is None:
            return self.lu.solve(b)
        m, pencil = self.m, self.pencil
        tail = b[m:]
        # A_EE^{-1} b at each chain's first row, then at each last row: a corner
        # column dotted with b over its chain
        sums = np.concatenate([np.add.reduceat(column * tail, pencil.starts) for column in self.corner.T])
        head = b[:m] - np.bincount(pencil.i, weights=self.v * sums[pencil.pick], minlength=m)
        if m:
            head = self.lu.solve(head)
        tail = tail - np.bincount(pencil.r, weights=self.v * head[pencil.i], minlength=tail.size)
        return np.concatenate((head, dpttrs(self.d, self.e, tail, overwrite_b=True)[0]))


def _inertia(pencil: Pencil, sigma: float):
    """Count the eigenvalues of ``pencil`` at or below ``sigma``: (count, factor).

    The factor is a value refactorization on the pencil's one analysis.
    ``Condensed`` factors the edge chains A_EE of K - sigma*M by LAPACK,
    which proves them positive definite, and the vertex Schur complement
    S_V by SuperLU in symmetric mode with diagonal pivots only, P S_V P^T =
    L U with U = D L^T, a congruence to D = diag(U).  By Haynsworth's
    inertia additivity and Sylvester's law the nonpositive pivots of S_V
    count the eigenvalues at or below ``sigma``; when the chains are not
    positive definite SuperLU factors the whole matrix the same way, and
    with no vertex rows left the count is 0.  The factor is returned for
    reuse as a shift-invert operator.  Raises SolverError when the
    factorization fails or SuperLU left the diagonal (perm_r != perm_c),
    since no count can then be read from U.
    """
    factor = Condensed(pencil, sigma, splu)
    lu = factor.lu
    if lu is None:
        return 0, factor
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(
            f"inertia count of K - {sigma!r}*M impossible: symmetric pivoting was refused"
        )
    return int(np.count_nonzero(~(lu.U.diagonal() > 0))), factor


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two vectors by numpy's own summation loop.

    ``a @ b`` calls BLAS, whose sum order follows its thread count; this
    sum does not, so a solve prints the same bytes at every thread count.
    """
    return float(np.einsum("i,i->", a, b))


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a vector by ``_dot``."""
    return float(np.sqrt(_dot(v, v)))


def _delta(value: float, tol: float) -> float:
    """The proof's margin below ``value``: max(tol, 1e-12) * max(1, |value|)."""
    return max(tol, 1e-12) * max(1.0, abs(value))


def _proved_start(pencil: Pencil, seed: float, lower: float):
    """The first shift lo and its factor: ``lower`` if it lies above ``seed`` and counts 0, else ``seed``.

    A hint that counts above 0, or at which SuperLU refuses symmetric
    pivoting, costs its one factorization, which is freed before the seed's
    is made.  Raises SolverError when the seed counts above 0.
    """
    if lower > seed:
        try:
            count, factor = _inertia(pencil, lower)
            if not count:
                return lower, factor
        except SolverError:  # a wrong hint: start over from the seed
            pass
        factor = None
    count, factor = _inertia(pencil, seed)
    if count:
        raise SolverError(f"K - {seed!r}*M has {count} nonpositive pivot(s): the shift is not below the spectrum")
    return seed, factor


def eigsh(pencil: Pencil, seed: float, lower: float, tol: float, x: np.ndarray, history: list) -> EigenResult:
    """Inverse iteration from ``x`` at shifts that inertia counts prove, to a measured pair.

    lo starts at ``_proved_start``'s shift.  Every application is y =
    F_lo^{-1} M x, M-normalized, with rho = x^T K x, and appends (apply
    index, rho) to ``history``.  hi is the least rho so far or a probe
    that counted above 0, so lambda_1 <= hi.  With s = rho - ``_delta``:

    - s <= lo puts F_lo within delta of lambda_1.  When x came into this
      application converged, as a count of 0 at s makes it, the
      application was the polish and ends the run, and lo's count of 0
      proves ``certified_lower`` = s.  Otherwise (the run's first
      application, from a hint or seed within delta of lambda_1, or lo
      raised by a probe below s) the next application on F_lo is made
      with no probe, and is the polish once x has converged.
    - Otherwise one probe t is counted: t = s when eta = ||K x - rho M x||
      in the diag(M)^{-1} norm is at most 10 delta (x has converged), else
      max(rho - eta, (lo + hi) / 2).  A probe at or above hi, whose count
      is known to be above 0, is not made.  A count above 0 sets hi = t,
      and t bisects toward lo until a count of 0 or until [lo, hi] is at
      most delta wide.  A count of 0 makes t the new lo, its factor
      replacing F_lo; at t = s the next application is the polish.  When
      the polish raised rho by a rounding error, so that its own s lies
      above lo, the count of 0 at that s ends the run with no further
      application.
    - A converged x whose s counts above 0, or lies at or above hi, in two
      applications in a row has missed the ground state: its pair is
      returned unproved, with ``certified_lower`` above ``shift``, and the
      caller runs again from another start vector.

    Each application makes at most one probe that counts 0 and one that
    counts above 0 without halving [lo, hi]; every other probe halves it,
    and bisection stops once it is at most delta wide.  So a run of A
    applications makes at most 2 + 2A + log2((rho_1 - lo) / delta)
    factorizations, the 2 being a rejected hint and the first lo, with no
    budget of its own.  One factor is alive at a time: F_lo is freed before
    each probe is made, and the last factor before ``_measured``.  A round
    that made probes but none that counted 0 therefore refactors at lo, bit
    for bit the factor it freed; that refactorization takes the place of
    the count-0 probe the round did not make, so the bound holds.  Raises
    ConvergenceError when the solve would make more than ``_MAX_APPLIES``
    applications, before it counts any probe past them.  The name is kept
    because the benchmark's ``eig.lanczos`` span wraps ``graphsl.eig.eigsh``
    (``perfbench/child.py``), until the library's own instrumentation
    (ROADMAP item 6) replaces that wrap.
    """
    K, M = pencil.K, pencil.M
    weights = 1.0 / M.diagonal()
    lo, factor = _proved_start(pencil, seed, lower)
    hi, polish, struck = np.inf, False, False
    mx = M @ x
    while True:
        x = factor.solve(mx)
        mx = M @ x
        norm = np.sqrt(_dot(x, mx))
        x /= norm
        mx /= norm
        kx = K @ x
        rho = _dot(x, kx)
        history.append((len(history) + 1, rho))
        hi = min(hi, rho)
        delta = _delta(rho, tol)
        s = rho - delta
        if s <= lo and polish:
            break
        if len(history) >= _MAX_APPLIES:
            raise ConvergenceError(f"eigensolve did not converge within {_MAX_APPLIES} applications")
        residual = kx - rho * mx
        eta = np.sqrt(_dot(residual * weights, residual))
        converged = eta <= 10.0 * delta
        if s <= lo:  # F_lo is within delta of lambda_1, but x came in unconverged: no probe
            polish = converged
            continue
        t = s if converged else max(rho - eta, 0.5 * (lo + hi))
        probe = None
        while True:
            if t < hi:
                factor = None  # one factor at a time: F_lo goes before the probe is made
                count, probe = _inertia(pencil, t)
                if not count:
                    break
                hi, probe = t, None
            if hi - lo <= delta:
                break
            t = 0.5 * (lo + hi)
        strike = converged and (probe is None or t != s)  # a converged x whose s counts above 0
        if strike and struck:
            break
        struck = strike
        if probe is not None:
            if polish and t == s:  # the polished pair's own s counts 0
                lo = t
                break
            lo, factor, polish = t, probe, t == s
        elif factor is None:  # lo's values again, so lo's factor again, bit for bit
            factor = Condensed(pencil, lo, splu)
    factor = probe = None
    return _measured(pencil, rho, x, tol, iterations=len(history), shift=lo, history=history)


def _measured(pencil: Pencil, value: float, vector: np.ndarray, tol: float, **fields) -> EigenResult:
    """The pair M-normalized with its largest entry positive, and its accuracy."""
    K, M = pencil.K, pencil.M
    mx = M @ vector
    norm = float(np.sqrt(_dot(vector, mx)))
    if norm <= 0 or not np.isfinite(norm):
        raise SolverError("eigenvector has nonpositive mass norm")
    vector = vector / norm
    peak = int(np.argmax(np.abs(vector)))
    if vector[peak] < 0:
        vector = -vector
    mx = M @ vector
    residual_vec = K @ vector - value * mx
    residual_norm = _norm(residual_vec)
    residual = residual_norm / _norm(mx)
    _, _, _, norm_k, norm_m = pencil.bounds
    backward_error = residual_norm / ((norm_k + abs(value) * norm_m) * _norm(vector))
    return EigenResult(
        value=value,
        vector=vector,
        residual=residual,
        backward_error=backward_error,
        certified_lower=value - _delta(value, tol),
        converged=True,
        **fields,
    )


def solve_pencil(
    K,
    M,
    tol: float = 1e-8,
    lower: float = -np.inf,
    pencil: Pencil | None = None,
) -> EigenResult:
    """Smallest eigenvalue and M-normalized eigenvector of K x = lambda M x.

    ``pencil`` is the ``Pencil`` analysis of (K, M) when the caller holds
    one (a piece that ``AssembledForms.restrict`` cut, or a
    ``Pencil(K, M)`` of its own); otherwise it is built here.  Every
    factorization of the solve uses it.

    ``lower`` is a candidate lower bound of the smallest eigenvalue, such
    as the ``certified_lower`` of a solved pencil of which this one is a
    principal sub-pencil.  The shifts start there instead of at the
    Gershgorin bound when it is larger; an inertia count of 0 must confirm
    it, otherwise they start from the Gershgorin bound, so a wrong value
    costs one factorization but never changes the answer.

    ``eigsh`` runs from the all-ones vector.  When it returns a pair that
    its counts did not prove, one count at value - delta decides: above 0,
    the start vector missed lambda_1 (it can be M-orthogonal to a
    sign-changing ground state), and the solve runs once more from a
    seeded random start vector before it gives up; ``iterations`` and
    ``history`` then cover both runs.  Every pair, proved or not, must
    first pass the residual check.

    Raises SolverError for a ``tol`` that is not positive and finite, when
    no shift can be started (the Gershgorin seed counts above 0 or SuperLU
    refuses symmetric pivoting there), a count cannot be read, or the
    inertia count cannot prove that the returned value is the smallest
    eigenvalue; ConvergenceError
    when the residual stays above ``tol`` or the solve needs more than
    ``_MAX_APPLIES`` applications of the inverted operator.
    """
    if not 0 < tol < np.inf:
        raise SolverError(f"tolerance must be positive and finite, got {tol!r}")
    if pencil is None:
        pencil = Pencil(K, M)
    lb = pencil_lower_bound(pencil)
    seed = lb - 0.01 * max(1.0, abs(lb))
    history: list = []
    for attempt in range(2):
        start = np.random.default_rng(_START_SEED).standard_normal(pencil.n) if attempt else np.ones(pencil.n)
        result = eigsh(pencil, seed, lower, tol, start, history)
        if not result.residual <= max(tol, 1e-12):
            raise ConvergenceError(f"eigensolve residual {result.residual:.3e} above tolerance {tol:.3e}")
        if result.certified_lower <= result.shift:
            return result
        nonpositive = _inertia(pencil, result.certified_lower)[0]
        if not nonpositive:
            result.shift = result.certified_lower  # the last shift a count proved
            return result
    raise SolverError(
        f"K - {result.certified_lower!r}*M has {nonpositive} nonpositive pivot(s): "
        "the eigensolve did not find the smallest eigenvalue"
    )


def smallest_eigenpair(pencil: Pencil, tol: float = 1e-8, lower: float = -np.inf) -> EigenResult:
    """Smallest eigenpair of an analysed pencil; see ``solve_pencil``."""
    return solve_pencil(pencil.K, pencil.M, tol=tol, lower=lower, pencil=pencil)


def dense_reference(pencil: Pencil) -> tuple[float, np.ndarray]:
    """Dense (LAPACK) smallest eigenpair of an analysed pencil, as an independent cross-check."""
    vals, vecs = scipy.linalg.eigh(pencil.K.toarray(), pencil.M.toarray())
    return float(vals[0]), vecs[:, 0]
