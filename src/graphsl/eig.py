"""Smallest eigenpair of the generalized pencil K x = lambda M x.

The iterative path is shift-inverted Lanczos with M-orthogonal restarts
(ARPACK via scipy), seeded with a deterministic all-ones start vector and
a sparse factorization of K - shift*M, one triangular solve per
application.  By default the shift is placed by inertia counts (see
below).  A count of 0 proves a shift just below a Gershgorin lower bound
of the pencil spectrum.  With that shift's factor F, the smallest
Rayleigh-Ritz value hi on the Krylov space 1, F^{-1} M 1, (F^{-1} M)^2 1,
... (at most eight solves) is an upper end, by Courant-Fischer.  If the
bracket is wider than max(1, |hi|) / 4, the first probe goes to
hi - max(1, |hi|) / 16; a count of 0 there places the shift, otherwise
bisection takes over.  Lanczos runs with the placed shift's LDL^T factor,
usually the third factorization of the solve counting the proof.  An
explicit shift, or SuperLU refusing symmetric pivoting during placement,
gives a plain LU at the given or the Gershgorin shift.  The Ritz vector
ARPACK returns is polished by one inverse-iteration step with the shift's
factor, y = (K - shift*M)^{-1} M x, and the returned value is the Rayleigh
quotient of y.

No solve gets a refinement pass.  On the placed path the count of 0 at
the shift proves K - shift*M positive definite, and LDL^T without
pivoting is backward stable on positive definite matrices (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 10); the polish
lowers the residual's floor further.  Every factorization here runs
SuperLU with one column per panel (``_PANEL_SIZE``): P1 graph pencils
factor with almost no fill, so supernodes are single columns and wider
panels only sweep dense n-by-panel work arrays.

That the returned value is the *smallest* eigenvalue is then proved, not
assumed from where the shift was put.  With delta = max(tol, 1e-12) *
max(1, |value|), K - (value - delta) M is factored once as P^T L D L^T P
(SuperLU restricted to diagonal pivots).  By Sylvester's law of inertia
the number of nonpositive pivots in D is the number of eigenvalues at or
below value - delta, so all pivots positive proves that none lies there;
otherwise the solve raises SolverError.  Placement and this proof share
one counting routine, and every factor is released before the next one
is made, so two factors are never alive at once.

Two accuracy measures are reported.  The residual ||K x - lambda M x|| /
||M x|| is unscaled: with unit roundoff u its floor is about
u ||K|| ||x|| / ||M x||, which grows like h^-2 on a P1 mesh of width h,
and it is what ``tol`` is checked against.  The normwise backward error
||K x - lambda M x|| / ((||K||_1 + |lambda| ||M||_1) ||x||) is scale-free
and stays near machine precision at every mesh width.

A dense reference (LAPACK) is exposed separately for cross-checks; very
small pencils (fewer than four unknowns, below what the Lanczos code
accepts) fall back to it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg
from scipy.sparse import csc_matrix, issparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu
from scipy.sparse.linalg import norm as sparse_norm

from .errors import ConvergenceError, SolverError

_DENSE_LIMIT = 4  # below this ARPACK cannot run with k=1
_PANEL_SIZE = 1  # SuperLU columns per panel; wider panels only sweep dense work arrays here
_KRYLOV_SOLVES = 8  # solves spent on the upper end of the shift bracket


@dataclass
class EigenResult:
    """Converged smallest eigenpair with diagnostics.

    On the Lanczos path ``vector`` is the Ritz vector after one
    inverse-iteration polish with the shift's factor, and ``value`` is its
    Rayleigh quotient.  ``residual`` is ||K x - value * M x|| / ||M x||
    recomputed from the returned pair; it is unscaled, with a rounding
    floor that grows like h^-2.  ``backward_error`` is the scale-free
    ||K x - value * M x|| / ((||K||_1 + |value| ||M||_1) ||x||).
    ``certified_lower`` is value - delta with delta = max(tol, 1e-12) *
    max(1, |value|): no eigenvalue of the pencil lies below it, proved by
    an inertia count on the Lanczos path and read from the full LAPACK
    spectrum on the dense path.  ``iterations`` counts applications of
    the inverted operator, the polish included (0 on the dense path).
    ``shift`` is the Lanczos shift (0.0 on the dense path); on the default
    path it is a lower bound on the smallest eigenvalue proved by an
    inertia count of 0.  ``history`` holds (apply index, Rayleigh quotient)
    rows when the solve was run verbose.
    """

    value: float
    vector: np.ndarray
    residual: float
    backward_error: float
    certified_lower: float
    iterations: int
    converged: bool
    shift: float
    method: str
    history: list = dataclass_field(default_factory=list)


def _row_abs_offdiag(mat) -> np.ndarray:
    diag = mat.diagonal()
    total = np.asarray(abs(mat).sum(axis=1)).ravel()
    return total - np.abs(diag)


def _mass_lower_bound(M) -> float:
    """Certified positive lower bound for the smallest eigenvalue of M."""
    d = M.diagonal()
    coo = M.tocoo()
    off = coo.row != coo.col
    inv_sqrt = 1.0 / np.sqrt(d)
    sums = np.zeros(M.shape[0])
    np.add.at(sums, coo.row[off], np.abs(coo.data[off]) * inv_sqrt[coo.row[off]] * inv_sqrt[coo.col[off]])
    margin = 1.0 - float(np.max(sums)) if sums.size else 1.0
    if margin > 0:
        return margin * float(np.min(d))
    # pathological weight profile: fall back to an actual computation
    if M.shape[0] < _DENSE_LIMIT:
        return 0.999 * float(np.min(scipy.linalg.eigvalsh(M.toarray())))
    val = eigsh(M, k=1, sigma=0.0, which="LM", return_eigenvectors=False, tol=0)
    return 0.999 * float(val[0])


def pencil_lower_bound(K, M) -> float:
    """Gershgorin lower bound for the smallest eigenvalue of K x = lambda M x.

    With alpha the lower Gershgorin bound of K, the Rayleigh quotient is
    at least alpha divided by the upper Gershgorin bound of M when alpha
    is nonnegative, and alpha divided by a positive lower bound of M's
    spectrum otherwise.  One pass over each matrix; it seeds the lower
    end of the bracket in which ``solve_pencil`` places its default shift,
    and ``solve_pencil`` proves the smallest eigenvalue by an inertia count.
    """
    K = K.tocsr()
    M = M.tocsr()
    dm = M.diagonal()
    if np.any(dm <= 0):
        raise SolverError("mass matrix has a nonpositive diagonal entry")
    alpha = float(np.min(K.diagonal() - _row_abs_offdiag(K)))  # lower Gershgorin bound of K
    if alpha >= 0:
        return alpha / float(np.max(dm + _row_abs_offdiag(M)))  # upper Gershgorin bound of M
    return alpha / _mass_lower_bound(M)


class _CountingInverse(LinearOperator):
    """Solve (K - sigma M) y = b with one triangular solve of the shift's factor.

    No refinement pass: on the placed path an inertia count of 0 at sigma
    proves K - sigma M positive definite, and LDL^T without pivoting is
    backward stable on positive definite matrices, so a second solve buys
    no accuracy the polish does not already give.  The fallback plain LU
    (partial pivoting) is applied the same way, so there is one operator.
    """

    def __init__(self, lu):
        super().__init__(dtype=np.float64, shape=lu.shape)
        self._lu = lu
        self.count = 0
        self.rayleigh_log = None
        self._rq = None

    def _matvec(self, b):
        self.count += 1
        x = self._lu.solve(b)
        if self.rayleigh_log is not None and self._rq is not None:
            self.rayleigh_log.append((self.count, self._rq(x)))
        return x


def _dense_pair(K, M):
    Kd = K.toarray() if issparse(K) else np.asarray(K)
    Md = M.toarray() if issparse(M) else np.asarray(M)
    vals, vecs = scipy.linalg.eigh(Kd, Md)
    value = float(vals[0])
    vector = vecs[:, 0]
    return value, vector


def _inertia(K, M, sigma: float):
    """Count the eigenvalues at or below ``sigma``: (count, factor).

    SuperLU in symmetric mode with diagonal pivots only factors
    P (K - sigma*M) P^T = L U with U = D L^T, a congruence to D = diag(U).
    By Sylvester's law the nonpositive pivots count the eigenvalues at or
    below ``sigma``.  The factor is returned for reuse as a shift-invert
    operator.  Raises SolverError when the factorization fails or SuperLU
    left the diagonal (perm_r != perm_c), since no count can then be read
    from U.
    """
    try:
        lu = splu(
            (K - sigma * M).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            panel_size=_PANEL_SIZE,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"inertia factorization of K - {sigma!r}*M failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(
            f"inertia count of K - {sigma!r}*M impossible: symmetric pivoting was refused"
        )
    return int(np.count_nonzero(~(lu.U.diagonal() > 0))), lu


def _window(lo: float, hi: float) -> bool:
    """Whether the bracket [lo, hi] is still wider than max(1, |hi|) / 4."""
    return hi - lo > 0.25 * max(1.0, abs(hi))


def _krylov_upper(K, M, lu, lo: float) -> float:
    """Rayleigh-Ritz upper end for the smallest eigenvalue of (K, M).

    The basis 1, S 1, S^2 1, ... with S = F^{-1} M and F the factor of
    K - lo*M grows by one solve per vector, M-orthonormalized by classical
    Gram-Schmidt applied twice.  By Courant-Fischer the smallest Ritz value
    of (K, M) on any subspace is at least lambda_1, so the value returned
    is an upper end.  Growth stops as soon as hi - lo <= max(1, |hi|) / 4,
    after ``_KRYLOV_SOLVES`` solves, or when the space stops growing (it is
    then invariant and hi is an eigenvalue).
    """
    size = _KRYLOV_SOLVES + 1
    V = np.empty((size, K.shape[0]))
    T = np.empty((size, size))  # V K V^T
    G = np.empty((size, size))  # V M V^T
    w = np.ones(K.shape[0])
    for k in range(size):
        if k:
            w = lu.solve(mv)
            before = np.linalg.norm(w)
            for _ in range(2):
                w -= V[:k].T @ (V[:k] @ (M @ w))
            if not np.linalg.norm(w) > 1e-8 * before:
                break
        mv = M @ w
        norm = np.sqrt(w @ mv)
        V[k] = w / norm
        mv /= norm
        T[k, : k + 1] = T[: k + 1, k] = V[: k + 1] @ (K @ V[k])
        G[k, : k + 1] = G[: k + 1, k] = V[: k + 1] @ mv
        hi = float(scipy.linalg.eigh(T[: k + 1, : k + 1], G[: k + 1, : k + 1], eigvals_only=True)[0])
        if not _window(lo, hi):
            break
    return hi


def _place_shift(K, M, lo: float):
    """Raise the Gershgorin shift ``lo`` by inertia counts: (shift, factor).

    A count of 0 proves ``lo``.  The upper end hi is the smallest
    Rayleigh-Ritz value on a Krylov space grown with lo's factor
    (``_krylov_upper``).  If hi - lo is still above max(1, |hi|) / 4, the
    first probe goes close below hi, at hi - max(1, |hi|) / 16: a count of
    0 there ends placement, since a Ritz upper end is usually close to
    lambda_1.  Otherwise hi drops to the probe and midpoint counts move lo
    up (0) or hi down (above 0) until the window closes.  A factor is
    dropped before the next one is made, and the final lo is factored
    again if its factor was dropped.  Returns None when a count cannot be
    read or ``lo`` counts above 0.
    """
    try:
        count, lu = _inertia(K, M, lo)
        if count:
            return None
        hi = _krylov_upper(K, M, lu, lo)
        mid = hi - max(1.0, abs(hi)) / 16
        while _window(lo, hi):
            lu = None
            count, lu = _inertia(K, M, mid)
            if count:
                hi, lu = mid, None
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        if lu is None:
            lu = _inertia(K, M, lo)[1]
    except SolverError:
        return None
    return lo, lu


def _lanczos_pair(K, M, shift, max_iter, history):
    """Polished shift-inverted Lanczos pair: (value, vector, shift, applies).

    Without an explicit ``shift`` the shift is placed by ``_place_shift``,
    falling back to a plain LU at the Gershgorin shift.  The shift's
    factor lives only inside this call, so it is freed before the caller
    factors again.  ``history`` is None unless the solve is verbose.
    """
    n = K.shape[0]
    placed = None
    if shift is None:
        lb = pencil_lower_bound(K, M)
        shift = lb - 0.01 * max(1.0, abs(lb))
        placed = _place_shift(K, M, shift)
    if placed is not None:
        sigma, lu = placed
    else:
        sigma = float(shift)
        for attempt in range(4):
            try:
                lu = splu((K - sigma * M).tocsc(), panel_size=_PANEL_SIZE)
                if not np.all(np.isfinite(lu.U.diagonal())):
                    raise RuntimeError("singular factor")
                break
            except RuntimeError:
                if attempt == 3:
                    raise SolverError(
                        f"factorization of K - sigma*M failed after 4 shifts (last {sigma})"
                    )
                sigma = sigma - max(1.0, abs(sigma))
    opinv = _CountingInverse(lu)
    if history is not None:
        Kc = K.tocsr()
        Mc = M.tocsr()

        def rq(x):
            num = float(x @ (Kc @ x))
            den = float(x @ (Mc @ x))
            return num / den if den else float("nan")

        opinv.rayleigh_log = history
        opinv._rq = rq
    v0 = np.ones(n)
    try:
        vals, vecs = eigsh(
            K,
            k=1,
            M=M,
            sigma=sigma,
            which="LM",
            v0=v0,
            OPinv=opinv,
            maxiter=max_iter,
            tol=0,
        )
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolve did not converge within {max_iter} iterations"
        ) from exc
    # one inverse-iteration step with the shift's factor lowers the
    # residual's rounding floor below that of the raw Ritz pair
    vector = opinv.matvec(M @ vecs[:, 0])
    value = float(vector @ (K @ vector)) / float(vector @ (M @ vector))
    return value, vector, sigma, opinv.count


def solve_pencil(
    K,
    M,
    shift=None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    verbose: bool = False,
) -> EigenResult:
    """Smallest eigenvalue and M-normalized eigenvector of K x = lambda M x.

    Raises ConvergenceError when the residual stays above ``tol`` and
    SolverError when the inertia count cannot prove that the returned
    value is the smallest eigenvalue (for example, an explicit shift above
    the second eigenvalue).
    """
    K = csc_matrix(K)
    M = csc_matrix(M)
    n = K.shape[0]
    if n == 0:
        raise SolverError("empty pencil")
    if K.shape != M.shape:
        raise SolverError("pencil matrices must share a shape")
    method = "dense" if n < _DENSE_LIMIT else "shift-invert-lanczos"
    history: list = []
    applications = 0
    sigma = 0.0
    if method == "dense":
        value, vector = _dense_pair(K, M)
    else:
        value, vector, sigma, applications = _lanczos_pair(
            K, M, shift, max_iter, history if verbose else None
        )
    mx = M @ vector
    norm = float(np.sqrt(vector @ mx))
    if norm <= 0 or not np.isfinite(norm):
        raise SolverError("eigenvector has nonpositive mass norm")
    vector = vector / norm
    peak = int(np.argmax(np.abs(vector)))
    if vector[peak] < 0:
        vector = -vector
    mx = M @ vector
    residual_vec = K @ vector - value * mx
    residual_norm = float(np.linalg.norm(residual_vec))
    residual = residual_norm / float(np.linalg.norm(mx))
    scale = sparse_norm(K, 1) + abs(value) * sparse_norm(M, 1)
    backward_error = residual_norm / (scale * float(np.linalg.norm(vector)))
    converged = residual <= max(tol, 1e-12)
    if not converged:
        raise ConvergenceError(
            f"eigensolve residual {residual:.3e} above tolerance {tol:.3e}"
        )
    certified_lower = value - max(tol, 1e-12) * max(1.0, abs(value))
    if method != "dense":
        nonpositive = _inertia(K, M, certified_lower)[0]
        if nonpositive:
            raise SolverError(
                f"K - {certified_lower!r}*M has {nonpositive} nonpositive pivot(s): "
                "the eigensolve did not find the smallest eigenvalue"
            )
    return EigenResult(
        value=value,
        vector=vector,
        residual=residual,
        backward_error=backward_error,
        certified_lower=certified_lower,
        iterations=applications,
        converged=converged,
        shift=sigma,
        method=method,
        history=history,
    )


def smallest_eigenpair(forms, shift=None, tol: float = 1e-8, max_iter: int = 2000, verbose: bool = False) -> EigenResult:
    """Smallest eigenpair of the assembled forms (K_p + K_q, M)."""
    K, M = forms.pencil()
    return solve_pencil(K, M, shift=shift, tol=tol, max_iter=max_iter, verbose=verbose)


def dense_reference(forms) -> tuple[float, np.ndarray]:
    """Dense (LAPACK) smallest eigenpair, as an independent cross-check."""
    return _dense_pair(*forms.pencil())
