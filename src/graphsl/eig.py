"""Smallest eigenpair of the generalized pencil K x = lambda M x.

Every pencil, from one unknown up, is solved by one shift-inverted
Lanczos loop (``_Lanczos``) on S = F^{-1} M in the M inner product, where
F is a sparse factorization of K - shift*M: the three-term recurrence with
full reorthogonalization, a second Gram-Schmidt pass only when the first
cancels most of the new vector, one solve with F per application, started
from the all-ones vector.  The Ritz value of S of largest modulus, theta,
gives the pencil's Ritz value shift + 1/theta; with the shift below
lambda_1 it is an upper end by Courant-Fischer.  The basis is a list of
rows, appended as the loop fills them, and holds at most
``_BASIS_ROWS`` rows; past that, and on every new factor, the loop
restarts from its current Ritz vector.  It stops once the error estimate
beta |s_k| / theta^2 (s the unit Ritz vector of the tridiagonal T;
Parlett, *The Symmetric Eigenvalue Problem*, ch. 13) is at most
``_MARGIN`` = 1/100 of what the proof below needs, delta = max(tol, 1e-12)
* max(1, |value|), and never later than at the floor ``_STOP`` = 1e-14 *
max(1, |value|), which is that stop at tol <= 1e-12.  If the polished pair
then misses the residual check or the proof, the same loop steps on to
the floor before any error path runs, so a pair that a loop run straight
to the floor would give is never lost.

Every reduction of a solve (the loop's dots, its Gram-Schmidt sums and
Ritz vector, the polish's Rayleigh quotient and the reported norms) runs
in numpy's own summation loops (``_dot``, ``_combine``), never in BLAS,
whose sum order follows its thread count; so a solve gives the same bytes
at every BLAS thread count.

The shift is placed by inertia counts, and the loop's own steps supply
the upper end.  A count of 0 proves a shift lo just below a Gershgorin
lower bound of the pencil spectrum; the loop starts on lo's factor, and
after each step its Ritz value hi is an upper end.  Once hi - lo <=
max(1, |hi|) / 4 placement ends, and the same basis goes on to
convergence on that factor.  If the window is still open after
``_PLACEMENT_STEPS`` steps, or when the loop converges with the window
open (a Krylov space that runs out, as in a pencil of n unknowns at step
n), the basis and the factor are freed and
the first probe goes to hi - max(1, |hi|) / 16: a count of 0 there places
the shift, otherwise bisection takes over, and the loop restarts from its
Ritz vector on the placed shift's LDL^T factor.  A caller may pass a
candidate lower bound ``lower`` of lambda_1 (for a Dirichlet piece, the
proved lower bound of a solved piece that contains it: by Cauchy
interlacing a principal sub-pencil's lambda_1 is no smaller than the
whole pencil's; or a guess, such as an extrapolation along a sweep of
nested pieces).  Placement then starts at the larger of the Gershgorin
seed and ``lower``.  The hint is checked, never trusted: its
factorization's count must be 0, and if it is not, or SuperLU refuses
symmetric pivoting there, placement runs again from the Gershgorin seed,
so a wrong hint costs one factorization and never a wrong answer.  There
is no other shift: a count that cannot be read, or that is above 0, at
the Gershgorin seed raises SolverError.  The converged Ritz vector x is
polished by one inverse-iteration step with the shift's factor, y =
(K - shift*M)^{-1} M x, and the returned value is the Rayleigh quotient
of y.

A sparse direct solve splits into a symbolic analysis, which depends only
on where the entries are, and a numeric factorization (Davis, *Direct
Methods for Sparse Linear Systems*, 2006).  ``Pencil`` is the analysis,
built once per pencil: K and M on one shared CSC pattern (assembled forms
come on one; only a caller's pencil is spread onto the union), the head
size, the chains, and the Schur complement's pattern with the map that
sums its values.  ``Condensed`` is the numeric factor at one shift:
K.data - shift*M.data, LAPACK on the chains, one bincount and SuperLU.  Every
factorization of a solve (the Gershgorin count, the probes, the
shift-invert factor and the proof) reuses the one analysis, so a new
shift only refactors values.

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
Numerical Algorithms*, ch. 10), for A_EE and S_V alike; the polish lowers
the residual's floor further.

That the returned value is the *smallest* eigenvalue is then proved, not
assumed from where the shift was put.  With delta = max(tol, 1e-12) *
max(1, |value|), K - (value - delta) M is factored once: A_EE as L D L^T
by LAPACK and S_V as P^T L D L^T P by SuperLU restricted to diagonal
pivots.  By Haynsworth's inertia additivity, In(A) = In(A_EE) + In(S_V),
and Sylvester's law of inertia, the number of nonpositive pivots of S_V
is then the number of eigenvalues at or below value - delta, so all
pivots positive proves that none lies there.  A count above 0 means the
all-ones start vector missed lambda_1 (it can be M-orthogonal to a
sign-changing ground state, which graph pencils with a positive ground
state never have), and the solve runs once more from a seeded random
start vector; if that count is above 0 too, the solve raises
SolverError.  Placement and this proof share one counting routine, and
every factor is released before the next one is made, so two factors are
never alive at once: the loop's basis outlives its factor through the
proof, and a loop that steps on after a failed proof gets its factor made
again at its own shift.

Two accuracy measures are reported.  The residual ||K x - lambda M x|| /
||M x|| is unscaled: with unit roundoff u its floor is about
u ||K|| ||x|| / ||M x||, which grows like h^-2 on a P1 mesh of width h,
and it is what ``tol`` is checked against.  With the loop stopped at a
fraction of delta it typically lies a few orders of magnitude below tol,
not at the floor.  The normwise backward error ||K x - lambda M x|| /
((||K||_1 + |lambda| ||M||_1) ||x||) is scale-free.  Its 1-norms come
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
_PLACEMENT_STEPS = 8  # Lanczos steps on the Gershgorin factor before the first probe
_BASIS_ROWS = 20  # Lanczos basis rows; past them the loop restarts from its Ritz vector
_MAX_APPLIES = 2000  # applications of the inverted operator one solve may make
_STOP = 1e-14  # the loop's floor: a Ritz-value error estimate, relative to max(1, |value|), that ends it
_MARGIN = 1e-2  # the loop stops at this fraction of the proof's delta (the floor once tol <= 1e-12)
_MASS_HALVINGS = 64  # tries at proving a lower bound of M below its smallest diagonal entry
_DGKS = 1.0 / np.sqrt(2.0)  # a Gram-Schmidt pass that keeps less of ||w||_M than this is repeated
_START_SEED = 0  # the seeded start vector of the one rerun after a failed proof


@dataclass
class EigenResult:
    """Converged smallest eigenpair with diagnostics.

    ``vector`` is the Ritz vector after one inverse-iteration polish with
    the shift's factor, and ``value`` is its Rayleigh quotient.  The loop
    stops once its error estimate is 1/100 of delta (below), so the pair
    is as accurate as the proof needs, not as the arithmetic allows.
    ``residual`` is ||K x - value * M x|| / ||M x|| recomputed from the
    returned pair, at most max(tol, 1e-12); it is unscaled, with a rounding
    floor that grows like h^-2.  ``backward_error`` is the scale-free
    ||K x - value * M x|| / ((||K||_1 + |value| ||M||_1) ||x||).
    ``certified_lower`` is value - delta with delta = max(tol, 1e-12) *
    max(1, |value|): no eigenvalue of the pencil lies below it, proved by
    an inertia count.  ``iterations`` counts applications of the inverted
    operator: the Lanczos steps on every factor, those that placed the
    shift included, and each polish (one more for a pair that a failed
    check sent on to the floor).  ``shift`` is the Lanczos shift, placed
    by inertia counts: a count of 0 proves that no eigenvalue lies at or
    below it, so, like ``certified_lower``, it is a proved lower bound of
    the spectrum; it also lies below ``certified_lower`` unless a ``lower``
    hint or a bisection step lands within delta of lambda_1.  ``history``
    holds one (apply index, value) row per application: the Ritz value
    after each Lanczos step, and each polish's Rayleigh quotient, so it has
    ``iterations`` rows.
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
    per pencil; it seeds the lower end of the bracket in which
    ``solve_pencil`` places its default shift, and ``solve_pencil`` proves
    the smallest eigenvalue by an inertia count.
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


def _combine(coefficients, rows: list) -> np.ndarray:
    """The sum of c * row over paired coefficients and rows, added in place one row at a time."""
    total = coefficients[0] * rows[0]
    for c, row in zip(coefficients[1:], rows[1:]):
        total += c * row
    return total


def _window(lo: float, hi: float) -> bool:
    """Whether the bracket [lo, hi] is still wider than max(1, |hi|) / 4."""
    return hi - lo > 0.25 * max(1.0, abs(hi))


class _Lanczos:
    """Shift-inverted Lanczos on S = F^{-1} M in the M inner product.

    F is the factor of K - sigma*M that ``attach`` hands in.  ``Q`` is a
    list of 1-D rows, an M-orthonormal basis of a Krylov space of S, and
    T = Q M S Q^T is tridiagonal.  A step makes one solve with F,
    the three-term recurrence and classical Gram-Schmidt against every row
    of Q: one ``_dot`` per row, then the rows' combination subtracted at
    once, with no BLAS product.  A second pass is made only when the first
    cut ||w||_M below ``_DGKS`` = 1/sqrt(2) of its value (Daniel, Gragg,
    Kaufman and Stewart, Math. Comp. 30, 1976): then w was nearly in the
    span of Q, and the pass's rounding errors are no longer small next to
    what is left.
    The pass's input is w after the recurrence, so the errors of that
    subtraction are removed with the rest.  Each pass's M w gives the next
    pass's projection or beta, so a step makes two products with M, three
    with a second pass.  ``value`` is sigma + 1/theta for the eigenvalue
    theta of T of largest modulus, and ``error`` = beta |s_k| / theta^2 (s
    the unit eigenvector of theta, beta the norm of the next residual)
    estimates its distance to an eigenvalue of the pencil (Parlett, *The
    Symmetric Eigenvalue Problem*, ch. 13).  The loop has ``converged``
    once ``error`` <= ``stop`` * max(1, |value|); the solve sets ``stop``,
    and may lower it to the floor ``_STOP`` and step on.  A step makes the
    next basis row whenever there is room for it, converged or not, and the
    next step appends it to ``Q``, so a loop that stopped early goes on
    exactly as if it had not stopped, and only counted rows are held.  Each
    step appends (apply index, value) to ``history``, the solve's one row
    per application, which ``_MAX_APPLIES`` caps.  Past ``_BASIS_ROWS`` rows
    the loop restarts from its Ritz vector, and ``detach`` keeps only that
    vector, so the basis never grows with the applications.
    """

    def __init__(self, K, M, history: list, start=None, stop: float = _STOP):
        self.K, self.M = K, M
        self.history = history
        self.stop = stop
        # the start vector, then the last Ritz vector
        self.x = np.ones(K.shape[0]) if start is None else start
        self.sigma = 0.0
        self.lu = self.Q = self.s = None
        self.T = np.zeros((_BASIS_ROWS, _BASIS_ROWS))  # entries past the current basis are never read

    @property
    def converged(self) -> bool:
        return self.s is not None and self.error <= self.stop * max(1.0, abs(self.value))

    def attach(self, sigma: float, lu) -> None:
        """Restart from the Ritz vector on the factor ``lu`` of K - sigma*M."""
        self.sigma, self.lu = sigma, lu
        self._restart(self.x)

    def detach(self) -> None:
        """Keep the Ritz vector; free the basis and the factor."""
        self.x = self.ritz_vector()
        self.lu = self.Q = self.s = self.next_q = self.next_mq = None

    def _restart(self, x: np.ndarray) -> None:
        mx = self.M @ x
        norm = np.sqrt(_dot(x, mx))
        self.Q = [x / norm]
        self.mq = mx / norm  # M times the newest row of Q
        self.beta = 0.0
        self.s = None
        self.value = np.inf

    def ritz_vector(self) -> np.ndarray:
        """The Ritz vector of ``value``, or the start vector before any step."""
        if self.s is None:
            return self.x
        return _combine(self.s, self.Q)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """F^{-1} b with one solve; ``history`` has a row for each earlier one."""
        if len(self.history) >= _MAX_APPLIES:
            raise ConvergenceError(
                f"eigensolve did not converge within {_MAX_APPLIES} applications"
            )
        return self.lu.solve(b)

    def step(self) -> bool:
        """One Lanczos step; returns ``converged``."""
        Q, T = self.Q, self.T
        if self.s is not None:  # go on from the last step's next row, or restart from a full basis
            if self.s.size == _BASIS_ROWS:
                self._restart(self.ritz_vector())
                Q = self.Q
            else:
                k = len(Q) - 1
                T[k, k + 1] = T[k + 1, k] = self.beta
                Q.append(self.next_q)
                self.mq = self.next_mq
        k = len(Q) - 1
        w = self.apply(self.mq)
        T[k, k] = _dot(w, self.mq)
        w -= T[k, k] * Q[k]
        if k:
            w -= self.beta * Q[k - 1]
        mw = self.M @ w
        norm = float(np.sqrt(_dot(w, mw)))
        for _ in range(2):
            w -= _combine([_dot(q, mw) for q in Q], Q)
            mw = self.M @ w
            self.beta = float(np.sqrt(_dot(w, mw)))
            if self.beta >= _DGKS * norm:
                break
        thetas, vecs = np.linalg.eigh(T[: k + 1, : k + 1])
        top = int(np.argmax(np.abs(thetas)))
        theta, self.s = float(thetas[top]), vecs[:, top]
        self.value = self.sigma + 1.0 / theta
        self.error = self.beta * abs(self.s[-1]) / theta**2
        self.history.append((len(self.history) + 1, self.value))
        if self.beta > 0 and len(Q) < _BASIS_ROWS:
            # the next row, counted only when the loop steps on
            w /= self.beta
            mw /= self.beta
            self.next_q, self.next_mq = w, mw
        return self.converged


def _place_shift(loop: _Lanczos, pencil: Pencil, lo: float) -> None:
    """Raise the shift ``lo`` by inertia counts, attaching ``loop``.

    A count of 0 proves ``lo``, and the loop runs on lo's factor; its Ritz
    value after each step is the upper end hi.  Placement ends as soon as
    hi - lo <= max(1, |hi|) / 4, with the loop still attached.  After
    ``_PLACEMENT_STEPS`` steps, or as soon as the loop converges with the
    window still open, the loop is detached and the first probe goes close
    below hi, at hi - max(1, |hi|) / 16: a count of 0 there ends
    placement, since a Ritz upper end is usually close to lambda_1.
    Otherwise hi drops to the probe and midpoint counts move lo up (0) or
    hi down (above 0) until the window closes.  A factor is dropped before
    the next one is made, the final lo is factored again if its factor was
    dropped, and the loop restarts on it.  Raises SolverError when ``lo``
    counts above 0 or a count cannot be read, and ConvergenceError when the
    solve spends ``_MAX_APPLIES``.
    """
    count, lu = _inertia(pencil, lo)
    if count:
        raise SolverError(f"K - {lo!r}*M has {count} nonpositive pivot(s): the shift is not below the spectrum")
    loop.attach(lo, lu)
    lu = None  # the loop owns the factor now, so detaching frees it
    for _ in range(_PLACEMENT_STEPS):
        loop.step()
        if not _window(lo, loop.value):
            return
        if loop.converged:
            break
    hi = loop.value
    loop.detach()
    mid = hi - max(1.0, abs(hi)) / 16
    while _window(lo, hi):
        lu = None
        count, lu = _inertia(pencil, mid)
        if count:
            hi, lu = mid, None
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    if lu is None:
        lu = _inertia(pencil, lo)[1]
    loop.attach(lo, lu)


def eigsh(pencil: Pencil, seed: float, loop: _Lanczos, lower: float, tol: float) -> EigenResult:
    """Run ``loop`` to a polished, measured pair (``EigenResult``) that is not yet proved.

    A new loop has its shift placed first: ``_place_shift`` raises it from
    the candidate lower bound ``lower`` when that lies above the Gershgorin
    ``seed``.  When that fails, by a count above 0 at ``lower`` or a count
    that cannot be read, placement starts over from ``seed``, where the
    same failures raise SolverError; a spent ``_MAX_APPLIES`` raises
    ConvergenceError at once.  A loop handed back after a failed proof
    gets its factor again, made at its own shift, so it goes on with the
    same basis.  The loop steps until it has converged at its ``stop``, and
    one inverse-iteration step with the shift's factor, y = (K -
    shift*M)^{-1} M x, polishes the Ritz vector x; the value is the
    Rayleigh quotient of y.  When that pair's residual is above
    max(tol, 1e-12), the same loop steps on to the floor ``_STOP`` and is
    polished again.  The factor is released on return, so the caller's
    proof factors with none alive; the basis stays with the loop.  Every
    application happens inside this call, and each appends its row to the
    loop's ``history``.  The name is kept because the benchmark's
    ``eig.lanczos`` span wraps ``graphsl.eig.eigsh`` (``perfbench/child.py``),
    until the library's own instrumentation (ROADMAP item 6) replaces that
    wrap.
    """
    K, M = pencil.K, pencil.M
    if loop.Q is None:
        placed = False
        if lower > seed:
            try:
                _place_shift(loop, pencil, lower)
                placed = True
            except ConvergenceError:
                raise
            except SolverError:  # a wrong hint: start over from the seed
                loop.detach()
        if not placed:
            _place_shift(loop, pencil, seed)
    elif loop.lu is None:
        loop.lu = _inertia(pencil, loop.sigma)[1]
    while True:
        while not loop.converged:
            loop.step()
        # one inverse-iteration step with the shift's factor lowers the
        # residual's rounding floor below that of the raw Ritz pair
        vector = loop.apply(M @ loop.ritz_vector())
        value = _dot(vector, K @ vector) / _dot(vector, M @ vector)
        history = loop.history
        history.append((len(history) + 1, value))
        result = _measured(pencil, value, vector, tol, iterations=len(history), shift=loop.sigma, history=history)
        if result.residual <= max(tol, 1e-12) or loop.stop <= _STOP:
            loop.lu = None
            return result
        loop.stop = _STOP


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
        certified_lower=value - max(tol, 1e-12) * max(1.0, abs(value)),
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
    principal sub-pencil.  Shift placement starts there instead of at the
    Gershgorin bound when it is larger; an inertia count of 0 must confirm
    it, otherwise placement starts over from the Gershgorin bound, so a
    wrong value costs one factorization but never changes the answer.

    The Lanczos loop stops once its error estimate is ``_MARGIN`` of the
    proof's delta = max(tol, 1e-12) * max(1, |value|), which at tol <=
    1e-12 is the floor ``_STOP``.  When the polished pair misses the residual
    check or the proof, the same loop goes on to the floor before any
    error path runs, so the pair is then the one a loop run straight to
    the floor gives.  A count above 0 at value - delta after that means
    the loop's all-ones start vector missed lambda_1 (it can be
    M-orthogonal to a sign-changing ground state), and the solve runs once
    more from a seeded random start vector before it gives up;
    ``iterations`` and ``history`` then cover both runs.

    Raises SolverError for a ``tol`` that is not positive and finite, when
    no shift can be placed (the Gershgorin seed counts above 0 or SuperLU
    refuses symmetric pivoting there) or the inertia count cannot prove
    that the returned value is the smallest eigenvalue; ConvergenceError
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
        start = np.random.default_rng(_START_SEED).standard_normal(pencil.n) if attempt else None
        loop = _Lanczos(pencil.K, pencil.M, history, start, max(_STOP, _MARGIN * tol))
        while True:
            result = eigsh(pencil, seed, loop, lower, tol)
            if not result.residual <= max(tol, 1e-12):
                raise ConvergenceError(
                    f"eigensolve residual {result.residual:.3e} above tolerance {tol:.3e}"
                )
            nonpositive = _inertia(pencil, result.certified_lower)[0]
            if not nonpositive:
                return result
            if loop.stop <= _STOP:
                break
            loop.stop = _STOP  # the same loop goes on to the floor
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
