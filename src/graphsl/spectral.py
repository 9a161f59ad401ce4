"""Spectral bounds on metric graphs via truncation and positive solutions.

Three families of computations share the assembled forms:

* ``inf_spectrum``: bottom of the spectrum approximated from above by
  Dirichlet truncations over an exhaustion (monotone nonincreasing).
* ``ap_check`` / ``positive_solution``: the positive-solution test.  If a
  trial value sits strictly below the Dirichlet bottom on a compact piece,
  the operator minus the trial value admits a strictly positive solution
  there, obtained by solving the lifted boundary problem with unit data;
  values at or above the Dirichlet bottom are refuted or indeterminate.
* ``persson_limit``: bottom of the essential spectrum as the limit of
  Dirichlet problems on the complements of the exhaustion, realized on
  annuli between two levels (nonincreasing in the outer level,
  nondecreasing in the inner level).

``sobolev_constant`` gives the constants of the edgewise sup bound from
edge integrals of the coefficients alone, with no mesh.

Each command meshes and assembles once, over its largest level or its
widest annulus; every level and annulus it solves is a slice of the
exhaustion's one edge order inside that one, cut from the assembly as a
Dirichlet piece (see :meth:`~graphsl.fem.GraphMesh.free_dofs`, the one
rule that says which vertices of a piece are free); ``host_boundary`` is
on by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .coeff import CoefficientField, edge_integrals
from .eig import Condensed, smallest_eigenpair
from .errors import HypothesisError, IntegrabilityError, SolverError
from .fem import GraphMesh, assemble, build_mesh, kirchhoff_residual
from .graph import Exhaustion, MetricGraph

WINDOW_STARTS = 65          # evenly spaced Sobolev window starts per edge


def _check_levels(exhaustion: Exhaustion, levels) -> None:
    """Raise SolverError for a level outside ``0..exhaustion.max_level``."""
    for n in levels:
        if n < 0 or n > exhaustion.max_level:
            raise SolverError(f"level {n} outside exhaustion range 0..{exhaustion.max_level}")


# --- inf spectrum -------------------------------------------------------------


@dataclass
class LevelEstimate:
    level: int
    value: float


@dataclass
class SpectralReport:
    """Monotone trace of Dirichlet truncation eigenvalues over an exhaustion."""

    rows: list[LevelEstimate]
    estimate: float
    error_proxy: float
    touched_host_boundary: bool


def inf_spectrum(
    g: MetricGraph,
    field: CoefficientField,
    exhaustion: Exhaustion,
    *,
    host_boundary: bool = True,
    h: float = 0.05,
    tol: float = 1e-6,
    levels=None,
) -> SpectralReport:
    """Upper approximation of the spectral bottom over exhaustion levels.

    Each level solves the Dirichlet-truncated problem on its edge set; the
    values are nonincreasing (checked within 10*tol, in row order) and the
    last one is the reported estimate.

    The levels are solved largest first, each seeded with the
    ``certified_lower`` of the next larger level solved.  The levels nest,
    so a level's Dirichlet unknowns are a subset of the larger level's;
    both pencils are cut from the one assembly over the largest level, so
    the smaller level's pencil is a principal sub-pencil of the larger
    one's.  By Cauchy interlacing its smallest eigenvalue lies above that
    proved lower bound, and the eigensolve starts its shift there (after
    an inertia count) instead of at the Gershgorin bound, as in
    :func:`persson_limit`.  The rows keep the requested order.
    """
    levels = list(range(exhaustion.max_level + 1) if levels is None else levels)
    _check_levels(exhaustion, levels)
    levels = [n for n in levels if exhaustion.cuts[n]]
    if not levels:
        raise SolverError("no nonempty exhaustion level was requested")
    forms = assemble(build_mesh(g, h, edges=exhaustion.level(max(levels))), field)
    values = {}
    lower = -math.inf
    for n in sorted(set(levels), reverse=True):
        result = smallest_eigenpair(
            forms.restrict(exhaustion.level(n), host_boundary=host_boundary), tol=tol, lower=lower
        )
        values[n], lower = result.value, result.certified_lower
    rows: list[LevelEstimate] = []
    prev = math.inf
    for n in levels:
        if values[n] > prev + 10.0 * tol:
            raise SolverError(
                f"truncation values must not increase: level {n} gave {values[n]} "
                f"after {prev}"
            )
        rows.append(LevelEstimate(n, values[n]))
        prev = values[n]
    error_proxy = abs(rows[-2].value - rows[-1].value) if len(rows) > 1 else math.inf
    top = rows[-1].level
    touched = exhaustion.halo_radius <= top + 1e-12
    return SpectralReport(
        rows=rows,
        estimate=rows[-1].value,
        error_proxy=error_proxy,
        touched_host_boundary=touched,
    )


# --- positive solutions -------------------------------------------------------


@dataclass
class PositiveSolutionCert:
    """Strictly positive nodal solution of (l - lam) y = 0 on a level.

    ``values`` holds the nodal vector over the level's mesh, equal to
    one on the level boundary before normalization and to one at the root
    after.  Flux imbalances at free vertices document the Kirchhoff
    matching quality.  The certificate keeps the mesh and the nodal vector,
    not the assembled forms: :func:`ap_check` reads the level's forms only
    for the lifted right-hand side, and frees them before the level's
    eigensolve.
    """

    lam: float
    level: int
    mesh: GraphMesh
    values: np.ndarray
    min_value: float
    max_value: float
    root: str
    boundary_vertices: frozenset
    kirchhoff_residuals: dict
    dirichlet_bottom: float


def positive_solution(
    g: MetricGraph,
    field: CoefficientField,
    exhaustion: Exhaustion,
    lam: float,
    level: int,
    h: float = 0.05,
    tol: float = 1e-6,
) -> PositiveSolutionCert:
    """Construct the positive solution certificate on one exhaustion level.

    Requires ``lam`` below the Dirichlet bottom of the level by more than
    ``tol``; solves the interior problem with unit boundary data, then
    normalizes to one at the root.  A nonpositive nodal value would violate
    the discrete minimum principle and raises SolverError.
    """
    result = ap_check(g, field, exhaustion, lam, level, h=h, tol=tol)
    if result.cert is None:
        raise SolverError(
            f"trial value {lam} is not below the Dirichlet bottom {result.dirichlet_bottom} by {tol}"
        )
    return result.cert


def _certificate(field, exhaustion, mesh, piece, dirichlet, lifted, lam, level, bottom) -> PositiveSolutionCert:
    """Solve the lifted boundary problem of a level.

    ``piece`` is the analysed pencil of the level's Dirichlet problem,
    whose dofs are the dofs of ``mesh`` off the increasing vertex dofs
    ``dirichlet``, in the same order; ``lifted`` is (lam M - K) e_B on
    those dofs, e_B the unit boundary data (one at ``dirichlet``), formed
    from the level's forms before they were freed.  The interior solve
    factors the piece at ``lam`` on the analysis that its eigensolve used.
    """
    if not dirichlet.size:
        raise SolverError(
            "level has no boundary vertices; the lifted boundary problem is empty"
        )
    factor = Condensed(piece, lam, splu)
    y = np.zeros(mesh.n_free)
    y[dirichlet] = 1.0
    y[y == 0] = factor.solve(lifted)
    root = exhaustion.root
    if root not in mesh.vertex_dof:
        raise SolverError(f"root {root!r} is not a vertex of level {level}")
    root_value = y[mesh.vertex_dof[root]]
    if not (root_value > 0 and np.isfinite(root_value)):
        raise SolverError(
            f"solution value {root_value} at the root blocks normalization; "
            "minimum principle violated"
        )
    y = y / root_value
    min_value = float(np.min(y))
    max_value = float(np.max(y))
    if min_value <= 0:
        bad = int(np.argmin(y))
        raise SolverError(
            "positive solution construction failed: nodal minimum "
            f"{min_value:.6g} at dof {bad} (trial value too close to the bottom "
            "or minimum principle violated)"
        )
    vertices = list(mesh.vertex_dof)  # in dof order, which is sorted order
    boundary = frozenset(vertices[d] for d in dirichlet)
    kirch = kirchhoff_residual(mesh, field, y, [v for v in vertices if v not in boundary])
    return PositiveSolutionCert(
        lam=float(lam),
        level=int(level),
        mesh=mesh,
        values=y,
        min_value=min_value,
        max_value=max_value,
        root=root,
        boundary_vertices=boundary,
        kirchhoff_residuals=kirch,
        dirichlet_bottom=float(bottom),
    )


@dataclass
class APResult:
    """Outcome of the positive-solution test at one trial value."""

    kind: str              # "certificate" | "refutation" | "indeterminate"
    lam: float
    level: int
    dirichlet_bottom: float
    margin: float          # lam - dirichlet_bottom
    cert: PositiveSolutionCert | None = None


def ap_check(
    g: MetricGraph,
    field: CoefficientField,
    exhaustion: Exhaustion,
    lam: float,
    level: int,
    h: float = 0.05,
    tol: float = 1e-6,
) -> APResult:
    """Positive-solution test of a trial value against one level.

    Returns a certificate (with the constructed solution) when the trial
    value is below the level's Dirichlet bottom by more than ``tol``, a
    refutation when above by more than ``tol``, and indeterminate inside
    the band.

    :meth:`GraphMesh.free_dofs` finds the level's dofs once.  The level's
    pencil is cut from the level's assembly on them, and the lifted
    right-hand side of the certificate is formed from it at once,
    whatever the outcome; only the mesh is kept, so the level's K and M are
    freed before the eigensolve, whose working set then reuses their memory.
    The level's Dirichlet vertices, which carry the unit boundary data and
    leave the Kirchhoff check, are the vertex dofs not kept.  A trial value
    that is not finite raises SolverError before any work.
    """
    if not math.isfinite(lam):
        raise SolverError(f"trial value must be finite, got {lam!r}")
    _check_levels(exhaustion, [level])
    edge_ids = exhaustion.level(level)
    if not edge_ids:
        raise SolverError(f"exhaustion level {level} contains no edges")
    forms = assemble(build_mesh(g, h, edges=edge_ids), field)
    mesh = forms.mesh
    kept = mesh.free_dofs(edge_ids, host_boundary=True)
    piece = forms.cut(kept)
    # the unit boundary data: one at every dof the piece does not keep, all of them vertex dofs
    e_b = np.ones(mesh.n_free)
    e_b[kept] = 0.0
    lifted = (lam * (forms.M @ e_b) - forms.K @ e_b)[kept]
    dirichlet = np.flatnonzero(e_b)
    del forms, e_b, kept
    bottom = smallest_eigenpair(piece, tol=tol).value
    margin = lam - bottom
    if lam < bottom - tol:
        cert = _certificate(field, exhaustion, mesh, piece, dirichlet, lifted, lam, level, bottom)
        return APResult("certificate", lam, level, bottom, margin, cert)
    if lam > bottom + tol:
        return APResult("refutation", lam, level, bottom, margin, None)
    return APResult("indeterminate", lam, level, bottom, margin, None)


# --- persson exhaustion limit ---------------------------------------------------


@dataclass
class PerssonRow:
    inner: int
    outer: int
    value: float
    residual: float


@dataclass
class PerssonTrace:
    """Two-index trace of annulus eigenvalues.

    For fixed inner level the values decrease in the outer level (larger
    annulus, richer form domain) toward the complement problem; over inner
    levels they increase toward the bottom of the essential spectrum.
    ``estimate``, the last value at the largest inner level n_max, is an
    upper value of λ(n_max), the bottom on the data host minus level n_max,
    with no proved order against inf σ_ess; the low end of ``bracket`` is a
    geometric extrapolation of that last outer sweep and bounds nothing.
    """

    rows: list[PerssonRow]
    per_level: dict
    estimate: float
    bracket: tuple
    touched_host_boundary: bool


def _extrapolate(seq: list[float]) -> float:
    if len(seq) < 3:
        return seq[-1]
    d1 = seq[-2] - seq[-1]
    d0 = seq[-3] - seq[-2]
    if d0 <= 0 or d1 <= 0 or d1 >= d0:
        return seq[-1]
    ratio = d1 / d0
    return seq[-1] - d1 * ratio / (1.0 - ratio)


def persson_limit(
    g: MetricGraph,
    field: CoefficientField,
    exhaustion: Exhaustion,
    inner_levels,
    outer_levels,
    *,
    host_boundary: bool = True,
    h: float = 0.05,
    tol: float = 1e-6,
) -> PerssonTrace:
    """Estimate the bottom of the essential spectrum by annulus exhaustion.

    For each inner level n the outer level N sweeps upward until the
    decrement of the annulus eigenvalue drops below ``tol``; monotonicity
    violations beyond 10*tol abort.

    Each annulus A(n, N) is seeded with the largest ``certified_lower`` of
    the annuli A(m, M) already solved with m <= n and M >= N, which contain
    it.  Its Dirichlet unknowns are then a subset of A(m, M)'s, and both
    pencils are cut from the one assembly over the widest annulus,
    A(min n, max N), so A(n, N)'s pencil is a principal sub-pencil of
    A(m, M)'s.  By Cauchy interlacing its smallest eigenvalue is at least
    A(m, M)'s, hence above that proved lower bound, and the eigensolve
    starts its shift there (after checking it by an inertia count)
    instead of at the Gershgorin bound.  An annulus that no
    solved annulus contains, as in the first sweep, is seeded from its own
    sweep instead: the last value less the last decrement, or less
    max(1, |value|) / 8 after one value, half the eigensolve's placement
    window.  That candidate is proved by nothing, but the eigensolve checks
    it by the same count, so a wrong one costs one factorization and never
    the answer.  The seeds change the cost of a solve, not which annuli are
    solved or in what order.
    """
    inner_levels = sorted(set(int(n) for n in inner_levels))
    outer_levels = sorted(set(int(N) for N in outer_levels))
    if not inner_levels or not outer_levels:
        raise SolverError("persson needs nonempty inner and outer level lists")
    _check_levels(exhaustion, inner_levels + outer_levels)
    for n in inner_levels:
        if not [N for N in outer_levels if N > n]:
            raise SolverError(f"no outer level exceeds inner level {n}")
    for n in inner_levels:
        for N in [N for N in outer_levels if N > n]:
            if exhaustion.cuts[N] == exhaustion.cuts[n]:
                raise SolverError(f"annulus between levels {n} and {N} is empty")
    forms = assemble(build_mesh(g, h, edges=exhaustion.annulus(inner_levels[0], outer_levels[-1])), field)
    proved = {}  # (m, M) -> certified_lower of every annulus solved so far

    def sweep(n: int) -> list[PerssonRow]:
        out = []
        prev = None
        for N in [N for N in outer_levels if N > n]:
            lower = max((low for (m, M), low in proved.items() if m <= n and M >= N), default=-math.inf)
            if lower == -math.inf and out:
                # no solved annulus contains A(n, N): a candidate from this sweep,
                # the last value less the last decrement, which the solve checks
                last = out[-1].value
                lower = last - (out[-2].value - last if len(out) > 1 else max(1.0, abs(last)) / 8)
            # the piece goes straight into the solve, so it is freed with it
            result = smallest_eigenpair(
                forms.restrict(exhaustion.annulus(n, N), host_boundary=host_boundary), tol=tol, lower=lower
            )
            proved[n, N] = result.certified_lower
            value = result.value
            if prev is not None and value > prev + 10.0 * tol:
                raise SolverError(
                    f"annulus values must not increase in the outer level: "
                    f"({n},{N}) gave {value} after {prev}"
                )
            out.append(PerssonRow(n, N, value, result.residual))
            if prev is not None and prev - value < tol:
                break
            prev = value
        return out

    sweeps = [sweep(n) for n in inner_levels]

    rows: list[PerssonRow] = []
    per_level: dict[int, float] = {}
    prev_final = None
    for n, sweep_rows in zip(inner_levels, sweeps):
        rows.extend(sweep_rows)
        final = sweep_rows[-1].value
        if prev_final is not None and final < prev_final - 10.0 * tol:
            raise SolverError(
                f"per-level values must not decrease in the inner level: "
                f"level {n} gave {final} after {prev_final}"
            )
        per_level[n] = final
        prev_final = final
    last_seq = [row.value for row in sweeps[-1]]
    upper = last_seq[-1]
    lower = min(_extrapolate(last_seq), upper)
    max_outer_used = max(row.outer for row in rows)
    touched = exhaustion.halo_radius <= max_outer_used + 1e-12
    return PerssonTrace(
        rows=rows,
        per_level=per_level,
        estimate=upper,
        bracket=(lower, upper),
        touched_host_boundary=touched,
    )


# --- edgewise sup bound -----------------------------------------------------------


@dataclass
class SobolevEstimate:
    """Constants in sup_e |f|^2 <= eps * int_e p|f'|^2 + C * int_e w|f|^2.

    ``delta`` is the window length below half the shortest edge such that
    every within-edge window of that length has integral of 1/p below
    eps/2; ``window_mass`` is the least integral of w over half-length
    windows; the constant is 2 divided by that mass.
    """

    epsilon: float
    delta: float
    window_mass: float
    constant: float


def _window_starts(length: float, window: float, breakpoints) -> np.ndarray:
    span = length - window
    if span < 0:
        return np.zeros(0)
    starts = np.linspace(0.0, span, WINDOW_STARTS)
    extra = []
    for b in breakpoints:
        for s in (b - window, b):
            if 0.0 <= s <= span:
                extra.append(s)
    if extra:
        starts = np.unique(np.concatenate([starts, np.asarray(extra)]))
    return starts


def sobolev_constant(
    g: MetricGraph,
    field: CoefficientField,
    epsilon: float,
) -> SobolevEstimate:
    """Constructive constants for the edgewise sup bound.

    Bisects for the largest admissible window length delta strictly below
    half the shortest edge, then takes the worst half-window mass of w.
    Each admissibility test and the mass take one grouped integral call
    over the windows of every edge.
    """
    if not epsilon > 0:
        raise HypothesisError("epsilon must be positive")
    half_min = g.min_edge_length / 2.0
    ids = [e.id for e in g.edges]
    lengths = np.array([e.length for e in g.edges])
    breaks = [field.breakpoints(eid) for eid in ids]

    def windows(which: str, width: float, bound: float) -> tuple[np.ndarray, bool]:
        # integrals over every window of ``width``, and whether one reaches
        # ``bound``; raises if the first that does, in edge order, is not finite
        starts = [_window_starts(e.length, width, b) for e, b in zip(g.edges, breaks)]
        edge = np.repeat(np.arange(len(ids)), [len(s) for s in starts])
        a = np.concatenate(starts)
        values = edge_integrals(field, which, ids, edge, a, np.minimum(a + width, lengths[edge]))
        over = np.flatnonzero(~(values < bound))
        if over.size and not math.isfinite(values[over[0]]):
            raise IntegrabilityError(f"integral of {which} over edge {ids[edge[over[0]]]!r} is not finite")
        return values, bool(over.size)

    def admissible(delta: float) -> bool:
        return not windows("1/p", delta, epsilon / 2.0)[1]

    hi = half_min * (1.0 - 1e-12)
    lo = 0.0
    if admissible(hi):
        delta = hi
    else:
        tiny = half_min * 1e-9
        if not admissible(tiny):
            raise HypothesisError(
                "no admissible window length: 1/p too large near some point"
            )
        lo = tiny
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if admissible(mid):
                lo = mid
            else:
                hi = mid
        delta = lo
    mass = float(np.min(windows("w", delta / 2.0, math.inf)[0], initial=math.inf))
    if not (mass > 0 and math.isfinite(mass)):
        raise HypothesisError("window mass of w is not positive")
    return SobolevEstimate(
        epsilon=float(epsilon),
        delta=float(delta),
        window_mass=float(mass),
        constant=2.0 / float(mass),
    )
