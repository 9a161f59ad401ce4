"""Smallest eigenpair of the generalized pencil K x = lambda M x.

The iterative path is one shift-inverted Lanczos loop (``_Lanczos``) on
S = F^{-1} M in the M inner product, where F is a sparse factorization of
K - shift*M: the three-term recurrence with full reorthogonalization done
twice, one triangular solve per application, started from the all-ones
vector.  The Ritz value of S of largest modulus, theta, gives the pencil's
Ritz value shift + 1/theta; with the shift below lambda_1 it is an upper
end by Courant-Fischer.  The basis holds at most ``_BASIS_ROWS`` rows;
past that, and on every new factor, the loop restarts from its current
Ritz vector.  It stops once the error estimate beta |s_k| / theta^2 (s the
unit Ritz vector of the tridiagonal T) is at most 1e-14 * max(1, |value|).

By default the shift is placed by inertia counts, and the loop's own
steps supply the upper end.  A count of 0 proves a shift lo just below a
Gershgorin lower bound of the pencil spectrum; the loop starts on lo's
factor, and after each step its Ritz value hi is an upper end.  Once
hi - lo <= max(1, |hi|) / 4, or the loop has converged, placement ends
and the same basis goes on to convergence on that factor.  If the window
is still open after ``_PLACEMENT_STEPS`` steps, the basis and the factor
are freed and the first probe goes to hi - max(1, |hi|) / 16: a count of
0 there places the shift, otherwise bisection takes over, and the loop
restarts from its Ritz vector on the placed shift's LDL^T factor.  An
explicit shift, or SuperLU refusing symmetric pivoting during placement,
gives a plain LU at the given or the Gershgorin shift.  The converged
Ritz vector x is polished by one inverse-iteration step with the shift's
factor, y = (K - shift*M)^{-1} M x, and the returned value is the
Rayleigh quotient of y.

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
small pencils (fewer than four unknowns) go to it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg
from scipy.sparse import csc_matrix, identity, issparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, SolverError

_DENSE_LIMIT = 4  # pencils with fewer unknowns go straight to LAPACK
_PANEL_SIZE = 1  # SuperLU columns per panel; wider panels only sweep dense work arrays here
_PLACEMENT_STEPS = 8  # Lanczos steps on the Gershgorin factor before the first probe
_BASIS_ROWS = 20  # Lanczos basis rows; past them the loop restarts from its Ritz vector
_STOP = 1e-14  # Ritz-value error estimate, relative to max(1, |value|), that ends the loop
_MASS_HALVINGS = 64  # tries at proving a lower bound of M below its smallest diagonal entry


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
    the inverted operator: the Lanczos steps on every factor, those that
    placed the shift included, and the polish (0 on the dense path).
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


def _abs_row_sums(A) -> np.ndarray:
    """Sums of |a_ij| over each row: a bincount over the CSC row indices.

    No symmetry is assumed and no |A| matrix is built.
    """
    A = csc_matrix(A)
    return np.bincount(A.indices, weights=np.abs(A.data), minlength=A.shape[0])


def _one_norm(A) -> float:
    """max_j sum_i |a_ij|, reduced over each column's slice of the CSC ``indptr``."""
    A = csc_matrix(A)
    starts = A.indptr[:-1][np.diff(A.indptr) > 0]
    if not starts.size:
        return 0.0
    return float(np.max(np.add.reduceat(np.abs(A.data), starts)))


def _mass_lower_bound(M) -> float:
    """Certified positive lower bound for the smallest eigenvalue of M."""
    d = M.diagonal()
    coo = M.tocoo()
    off = coo.row != coo.col
    inv_sqrt = 1.0 / np.sqrt(d)
    weights = np.abs(coo.data[off]) * inv_sqrt[coo.row[off]] * inv_sqrt[coo.col[off]]
    sums = np.bincount(coo.row[off], weights=weights, minlength=M.shape[0])
    margin = 1.0 - float(np.max(sums)) if sums.size else 1.0
    if margin > 0:
        return margin * float(np.min(d))
    # pathological weight profile: halve below the smallest diagonal entry
    # until an inertia count of 0 proves M - mu I positive definite
    eye = identity(M.shape[0], format="csc")
    mu = float(np.min(d))
    for _ in range(_MASS_HALVINGS):
        mu *= 0.5
        if not _inertia(M, eye, mu)[0]:
            return mu
    raise SolverError(f"no positive lower bound of the mass matrix above {mu!r}")


def pencil_lower_bound(K, M) -> float:
    """Gershgorin lower bound for the smallest eigenvalue of K x = lambda M x.

    With alpha the lower Gershgorin bound of K, the Rayleigh quotient is
    at least alpha divided by the upper Gershgorin bound of M when alpha
    is nonnegative, and alpha divided by a positive lower bound of M's
    spectrum otherwise.  One pass over each matrix's arrays; it seeds the
    lower end of the bracket in which ``solve_pencil`` places its default
    shift, and ``solve_pencil`` proves the smallest eigenvalue by an
    inertia count.
    """
    dm = M.diagonal()
    if np.any(dm <= 0):
        raise SolverError("mass matrix has a nonpositive diagonal entry")
    dk = K.diagonal()
    alpha = float(np.min(dk - (_abs_row_sums(K) - np.abs(dk))))  # lower Gershgorin bound of K
    if alpha >= 0:
        return alpha / float(np.max(dm + (_abs_row_sums(M) - np.abs(dm))))  # upper Gershgorin bound of M
    return alpha / _mass_lower_bound(M)


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


class _Lanczos:
    """Shift-inverted Lanczos on S = F^{-1} M in the M inner product.

    F is the factor of K - sigma*M that ``attach`` hands in.  The rows of
    ``Q`` are an M-orthonormal basis of a Krylov space of S, and
    T = Q M S Q^T is tridiagonal.  A step makes one triangular solve of F,
    the three-term recurrence and classical Gram-Schmidt against every row
    of Q done twice; M times the new vector is recomputed for each pass
    rather than stored.  ``value`` is sigma + 1/theta for the eigenvalue
    theta of T of largest modulus, and beta |s_k| / theta^2 (s the unit
    eigenvector of theta, beta the norm of the next residual) estimates
    its distance to an eigenvalue of the pencil.  Past
    ``_BASIS_ROWS`` rows the loop restarts from its Ritz vector, and
    ``detach`` keeps only that vector, so the basis never grows with
    ``max_iter``, which caps the applications instead.
    """

    def __init__(self, K, M, max_iter: int, history):
        self.K, self.M = K, M
        self.max_iter = max_iter
        self.history = history
        self.applies = 0
        self.x = np.ones(K.shape[0])  # the start vector, then the last Ritz vector
        self.sigma = 0.0
        self.lu = self.Q = self.s = None
        self.T = np.zeros((_BASIS_ROWS, _BASIS_ROWS))  # entries past the current basis are never read
        self.converged = False

    def attach(self, sigma: float, lu) -> None:
        """Restart from the Ritz vector on the factor ``lu`` of K - sigma*M."""
        self.sigma, self.lu = sigma, lu
        self.Q = np.empty((_BASIS_ROWS, self.K.shape[0]))
        self._restart(self.x)

    def detach(self) -> None:
        """Keep the Ritz vector; free the basis and the factor."""
        self.x = self.ritz_vector()
        self.lu = self.Q = self.s = None

    def _restart(self, x: np.ndarray) -> None:
        mx = self.M @ x
        norm = np.sqrt(x @ mx)
        self.Q[0] = x / norm
        self.mq = mx / norm  # M times the newest row of Q
        self.rows = 1
        self.beta = 0.0
        self.s = None
        self.value = np.inf
        self.converged = False

    def ritz_vector(self) -> np.ndarray:
        """The Ritz vector of ``value``, or the start vector before any step."""
        if self.s is None:
            return self.x
        return self.Q[: self.s.size].T @ self.s

    def apply(self, b: np.ndarray) -> np.ndarray:
        """F^{-1} b with one triangular solve, counted against ``max_iter``."""
        if self.applies >= self.max_iter:
            raise ConvergenceError(
                f"eigensolve did not converge within {self.max_iter} applications"
            )
        self.applies += 1
        w = self.lu.solve(b)
        if self.history is not None:
            self.history.append((self.applies, float(w @ (self.K @ w)) / float(w @ (self.M @ w))))
        return w

    def step(self) -> bool:
        """One Lanczos step; returns (and sets) ``converged``."""
        if self.s is not None and self.s.size == _BASIS_ROWS:
            self._restart(self.ritz_vector())
        k = self.rows - 1
        Q, T = self.Q[: k + 1], self.T
        w = self.apply(self.mq)
        T[k, k] = w @ self.mq
        w -= T[k, k] * Q[k]
        if k:
            w -= self.beta * Q[k - 1]
        for _ in range(2):
            w -= Q.T @ (Q @ (self.M @ w))
        mw = self.M @ w
        self.beta = float(np.sqrt(w @ mw))
        thetas, vecs = np.linalg.eigh(T[: k + 1, : k + 1])
        top = int(np.argmax(np.abs(thetas)))
        theta, self.s = float(thetas[top]), vecs[:, top]
        self.value = self.sigma + 1.0 / theta
        error = self.beta * abs(self.s[-1]) / theta**2
        self.converged = error <= _STOP * max(1.0, abs(self.value))
        if not self.converged and self.rows < _BASIS_ROWS:
            self.Q[self.rows] = w / self.beta
            self.mq = mw / self.beta
            T[k, k + 1] = T[k + 1, k] = self.beta
            self.rows += 1
        return self.converged


def _place_shift(loop: _Lanczos, K, M, lo: float) -> bool:
    """Raise the Gershgorin shift ``lo`` by inertia counts, attaching ``loop``.

    A count of 0 proves ``lo``, and the loop runs on lo's factor; its Ritz
    value after each step is the upper end hi.  Placement ends as soon as
    hi - lo <= max(1, |hi|) / 4, or the loop converges, with the loop
    still attached.  After ``_PLACEMENT_STEPS`` steps the loop is detached
    and the first probe goes close below hi, at hi - max(1, |hi|) / 16: a
    count of 0 there ends placement, since a Ritz upper end is usually
    close to lambda_1.  Otherwise hi drops to the probe and midpoint
    counts move lo up (0) or hi down (above 0) until the window closes.  A
    factor is dropped before the next one is made, the final lo is
    factored again if its factor was dropped, and the loop restarts on it.
    Returns False, with the loop detached, when a count cannot be read or
    ``lo`` counts above 0.
    """
    try:
        count, lu = _inertia(K, M, lo)
        if count:
            return False
        loop.attach(lo, lu)
        lu = None  # the loop owns the factor now, so detaching frees it
        for _ in range(_PLACEMENT_STEPS):
            if loop.step() or not _window(lo, loop.value):
                return True
        hi = loop.value
        loop.detach()
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
        loop.detach()
        return False
    loop.attach(lo, lu)
    return True


def _plain_factor(K, M, sigma: float):
    """LU with partial pivoting of K - sigma*M, moving sigma down on failure."""
    for attempt in range(4):
        try:
            lu = splu((K - sigma * M).tocsc(), panel_size=_PANEL_SIZE)
            if not np.all(np.isfinite(lu.U.diagonal())):
                raise RuntimeError("singular factor")
            return sigma, lu
        except RuntimeError:
            if attempt == 3:
                raise SolverError(
                    f"factorization of K - sigma*M failed after 4 shifts (last {sigma})"
                )
            sigma = sigma - max(1.0, abs(sigma))


def eigsh(K, M, shift: float, place: bool, max_iter: int, history):
    """Polished shift-inverted Lanczos pair: (value, vector, shift, applies).

    With ``place`` the Gershgorin ``shift`` is raised by ``_place_shift``,
    falling back to a plain LU at ``shift`` when placement fails; the loop
    then runs to convergence on the last factor and the polish makes one
    more application.  Every application of the solve happens inside this
    call, and every factor it makes is freed when it returns, before the
    caller factors again.  ``history`` is None unless the solve is
    verbose.  The name is kept because the benchmark's ``eig.lanczos`` span
    wraps ``graphsl.eig.eigsh`` (``perfbench/child.py``), until the
    library's own instrumentation (ROADMAP item 5) replaces that wrap.
    """
    loop = _Lanczos(K, M, max_iter, history)
    if not (place and _place_shift(loop, K, M, shift)):
        loop.attach(*_plain_factor(K, M, float(shift)))
    while not loop.converged:
        loop.step()
    # one inverse-iteration step with the shift's factor lowers the
    # residual's rounding floor below that of the raw Ritz pair
    vector = loop.apply(M @ loop.ritz_vector())
    value = float(vector @ (K @ vector)) / float(vector @ (M @ vector))
    return value, vector, loop.sigma, loop.applies


def solve_pencil(
    K,
    M,
    shift=None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    verbose: bool = False,
) -> EigenResult:
    """Smallest eigenvalue and M-normalized eigenvector of K x = lambda M x.

    Raises ConvergenceError when the residual stays above ``tol`` or the
    solve needs more than ``max_iter`` applications of the inverted
    operator, and SolverError when the inertia count cannot prove that the
    returned value is the smallest eigenvalue (for example, an explicit
    shift above the second eigenvalue).
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
        place = shift is None
        if place:
            lb = pencil_lower_bound(K, M)
            shift = lb - 0.01 * max(1.0, abs(lb))
        value, vector, sigma, applications = eigsh(
            K, M, shift, place, max_iter, history if verbose else None
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
    scale = _one_norm(K) + abs(value) * _one_norm(M)
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
