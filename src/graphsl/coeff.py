"""Edgewise coefficient fields p, q, w and their integrals.

A coefficient document maps edge ids (or ``"default"``) to per-field
specifications.  A specification is a number (constant), a piecewise
constant table ``{"piecewise": [[start, value], ...]}`` over the edge
coordinate, or an expression ``{"expr": "..."}`` in the edge coordinate x.
Every edge of the graph, a loop or a parallel edge too, has its own entry
and its own coordinate, running from 0 at its ``from`` end.

Integrals over edge segments are exact for constants and piecewise tables
and use composite Gauss quadrature for expressions; :func:`edge_integrals`
computes many at once, with one evaluation per distinct specification.
Structural requirements on the triple — p and w positive, 1/p integrable
to some power, q with uniformly integrable negative part — are checked by
:func:`validate_hypotheses`, which reports rather than raises so the CLI
can decide whether to block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import expressions
from .errors import CoefficientError, EvaluationError
from .graph import MetricGraph

_FIELD_NAMES = ("p", "q", "w")

# integrands: the field each one samples and the transform applied to it
WHICH = {
    "p": ("p", lambda v: v),
    "1/p": ("p", lambda v: np.divide(1.0, v)),
    "q-": ("q", lambda v: np.maximum(-np.asarray(v), 0.0)),
    "|q|": ("q", lambda v: np.abs(v)),
    "w": ("w", lambda v: v),
}


# composite Gauss quadrature for expressions: 5 points per panel, panels no
# longer than QUAD_PANEL
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)
QUAD_PANEL = 0.25
# grid intervals per edge for the sampled infimum of w and supremum of 1/p
ESSINF_SAMPLES = 512


# --- specifications ----------------------------------------------------------


class ConstantSpec:
    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, self.value)

    def breakpoints(self, length: float) -> tuple[float, ...]:
        return ()

    def exact_integral(self, transform, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return float(transform(self.value)) * (b - a)


class PiecewiseSpec:
    """Right-continuous step function given by [[start, value], ...].

    Starts must begin at 0 and strictly increase; the last value holds to
    the end of the edge.
    """

    def __init__(self, table):
        if not table:
            raise CoefficientError("piecewise table must be nonempty")
        starts, values = [], []
        for entry in table:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or isinstance(entry[0], bool)
                or isinstance(entry[1], bool)
                or not isinstance(entry[0], (int, float))
                or not isinstance(entry[1], (int, float))
            ):
                raise CoefficientError(f"piecewise entry must be [start, value], got {entry!r}")
            starts.append(float(entry[0]))
            values.append(float(entry[1]))
        if starts[0] != 0.0:
            raise CoefficientError("piecewise table must start at 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise CoefficientError("piecewise starts must strictly increase")
        self.starts = np.asarray(starts)
        self.values = np.asarray(values)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.starts, x, side="right") - 1, 0, len(self.values) - 1)
        return self.values[idx]

    def breakpoints(self, length: float) -> tuple[float, ...]:
        return tuple(s for s in self.starts[1:] if 0.0 < s < length)

    def exact_integral(self, transform, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        total = np.zeros(np.shape(a))
        bounds = np.concatenate([self.starts, [math.inf]])
        for i, value in enumerate(self.values):
            lo = np.maximum(a, bounds[i])
            hi = np.minimum(b, bounds[i + 1])
            piece = float(transform(value))
            total += np.where(hi > lo, piece * (hi - lo), 0.0)
        return total


class ExpressionSpec:
    def __init__(self, source: str):
        self.source = source
        self.ast = expressions.parse_expression(source)

    def evaluate(self, x):
        return np.asarray(expressions.evaluate(self.ast, np.asarray(x, dtype=float)))

    def breakpoints(self, length: float) -> tuple[float, ...]:
        return ()

    def exact_integral(self, transform, a: np.ndarray, b: np.ndarray):
        return None


# built-in constants, one shared spec per field name so that edges without
# an entry sample together
_DEFAULTS = {"p": ConstantSpec(1.0), "q": ConstantSpec(0.0), "w": ConstantSpec(1.0)}


def _parse_spec(raw):
    if isinstance(raw, bool):
        raise CoefficientError(f"coefficient value must be numeric, got {raw!r}")
    if isinstance(raw, (int, float)):
        return ConstantSpec(raw)
    if isinstance(raw, dict):
        if set(raw) == {"piecewise"}:
            return PiecewiseSpec(raw["piecewise"])
        if set(raw) == {"expr"}:
            if not isinstance(raw["expr"], str):
                raise CoefficientError("expr specification must be a string")
            return ExpressionSpec(raw["expr"])
        raise CoefficientError(
            f"coefficient spec must be a number, {{'piecewise': ...}} or {{'expr': ...}}, "
            f"got keys {sorted(raw)}"
        )
    raise CoefficientError(f"unsupported coefficient spec {raw!r}")


# --- field -------------------------------------------------------------------


class CoefficientField:
    """Resolved coefficients for every edge of a graph.

    Resolution order per edge and per field name: the edge's own entry, the
    ``"default"`` entry, then the built-in constants p=1, q=0, w=1.
    """

    def __init__(self, graph: MetricGraph, entries: dict, eta: float = 1.0):
        if not (eta >= 1.0):
            raise CoefficientError("eta must be >= 1 (math.inf allowed)")
        self.graph = graph
        self.eta = float(eta)
        self._entries = entries
        self._resolved: dict[tuple[str, str], object] = {}
        for e in graph.edges:
            for name in _FIELD_NAMES:
                self._resolved[(e.id, name)] = self._resolve(e.id, name)

    def _resolve(self, edge_id, name):
        entry = self._entries.get(edge_id)
        if entry is not None and name in entry:
            return entry[name]
        default = self._entries.get("default")
        if default is not None and name in default:
            return default[name]
        return _DEFAULTS[name]

    def spec(self, edge_id: str, name: str):
        try:
            return self._resolved[(edge_id, name)]
        except KeyError:
            raise CoefficientError(f"no coefficient {name!r} for edge {edge_id!r}") from None

    def evaluate(self, edge_id: str, name: str, x) -> np.ndarray:
        """Sample field ``name`` on edge ``edge_id`` at offsets ``x``."""
        return np.asarray(self.spec(edge_id, name).evaluate(x), dtype=float)

    def breakpoints(self, edge_id: str) -> tuple[float, ...]:
        """Interior discontinuity offsets of p, q, w combined, sorted."""
        length = self.graph.edge(edge_id).length
        points = set()
        for name in _FIELD_NAMES:
            points.update(self.spec(edge_id, name).breakpoints(length))
        return tuple(sorted(points))


def load_coefficients(document, graph: MetricGraph) -> CoefficientField:
    """Parse a coefficient document (JSON text or dict) against ``graph``.

    Keys must be edge ids of the graph, as loaded, ``"default"`` or
    ``"eta"``.  Each entry may define any subset of ``p``, ``q``, ``w``; on
    a loop or a parallel edge the coordinate runs from the edge's ``from``
    end.  ``"eta"``, the exponent of the integrability hypothesis on 1/p,
    is a number >= 1 or ``"inf"``, and 1 when absent.  A reserved key that
    is also an edge id of the graph is ambiguous and raises.
    """
    import json

    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise CoefficientError(f"invalid JSON: {exc}") from exc
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise CoefficientError("coefficient document must be a JSON object")
    edge_ids = {e.id for e in graph.edges}
    clash = sorted(edge_ids & document.keys() & {"default", "eta"})
    if clash:
        raise CoefficientError(
            f"coefficient key {clash[0]!r} is reserved, but the graph has an edge {clash[0]!r}; rename the edge"
        )
    eta = document.get("eta", 1.0)
    if eta != "inf" and (isinstance(eta, bool) or not isinstance(eta, (int, float))):
        raise CoefficientError(f'eta must be a number or "inf", got {eta!r}')
    entries = {}
    for key, raw_entry in document.items():
        if key == "eta":
            continue
        if key not in edge_ids and key != "default":
            raise CoefficientError(f"coefficient entry for unknown edge {key!r}")
        if not isinstance(raw_entry, dict):
            raise CoefficientError(f"entry for {key!r} must be an object")
        unknown = set(raw_entry) - set(_FIELD_NAMES)
        if unknown:
            raise CoefficientError(f"unknown coefficient names for {key!r}: {sorted(unknown)}")
        entries[key] = {name: _parse_spec(raw) for name, raw in raw_entry.items()}
    return CoefficientField(graph, entries, eta=math.inf if eta == "inf" else float(eta))


# --- integration -------------------------------------------------------------


def map_by_spec(field: CoefficientField, name: str, edge_ids, edge, fn, columns=None) -> np.ndarray:
    """Array over entries, entry k on edge ``edge_ids[edge[k]]``, filled group by group.

    Entries are grouped by the spec object of field ``name`` on their edge.
    Each group, in ``edge_ids`` order, takes ``fn(edge_id, spec, idx)``:
    the id of its first edge, the spec and its entry positions, increasing.
    With ``columns`` set, each entry is a row of that many values.
    """
    specs = [field.spec(eid, name) for eid in edge_ids]
    first: dict = {}  # spec -> position of the first edge carrying it
    head = np.array([first.setdefault(spec, k) for k, spec in enumerate(specs)])[edge]
    order = np.argsort(head, kind="stable")
    grouped = head[order]
    out = np.empty(len(head) if columns is None else (len(head), columns))
    for idx in np.split(order, np.flatnonzero(grouped[1:] != grouped[:-1]) + 1):
        if idx.size:
            k = head[idx[0]]
            out[idx] = fn(edge_ids[k], specs[k], idx)
    return out


def edge_integrals(field: CoefficientField, which: str, edge_ids, edge, a, b, power: float = 1.0) -> np.ndarray:
    """Integrals over [a[k], b[k]] on edge ``edge_ids[edge[k]]``, as an array.

    ``which`` is one of ``p, 1/p, q-, |q|, w``; the integrand is that
    quantity raised to ``power``.  Entries are grouped by spec object: exact
    for constants and piecewise tables, composite Gauss quadrature with one
    evaluation per group otherwise.  Entries whose integrand is not finite,
    or not evaluable, come back inf or nan.
    """
    if which not in WHICH:
        raise CoefficientError(f"unknown integrand {which!r}")
    name, base = WHICH[which]
    transform = base if power == 1.0 else (lambda v: np.power(base(v), power))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def integrate(eid, spec, idx):
        exact = spec.exact_integral(transform, a[idx], b[idx])
        return _quadrature(field, eid, name, transform, a[idx], b[idx]) if exact is None else exact

    with np.errstate(divide="ignore", invalid="ignore"):
        return map_by_spec(field, name, edge_ids, edge, integrate)


def _quadrature(field, edge_id, name, transform, a, b) -> np.ndarray:
    """Composite Gauss sums over [a[k], b[k]], equal panels of at most QUAD_PANEL.

    All panels take one evaluation; an evaluation error makes every entry nan.
    """
    counts = np.where(b > a, np.maximum(1, np.ceil((b - a) / QUAD_PANEL - 1e-12)), 0).astype(np.int64)
    entry = np.repeat(np.arange(len(a)), counts)
    i = np.arange(len(entry)) - np.repeat(np.cumsum(counts) - counts, counts)
    step = (b - a)[entry] / counts[entry]
    lo = a[entry] + i * step
    width = (a[entry] + (i + 1) * step) - lo
    xs = 0.5 * width[:, None] * (GAUSS_NODES + 1.0) + lo[:, None]
    try:
        values = transform(field.evaluate(edge_id, name, xs.ravel())).reshape(xs.shape)
    except EvaluationError:
        return np.full(len(a), math.nan)
    panel_sums = 0.5 * width * (values * GAUSS_WEIGHTS).sum(axis=1)
    return np.bincount(entry, weights=panel_sums, minlength=len(a))


def _edge_grid(field: CoefficientField, edge_id: str) -> np.ndarray:
    """Dense endpoint-inclusive grid on an edge, with both sides of each jump."""
    length = field.graph.edge(edge_id).length
    xs = np.linspace(0.0, length, ESSINF_SAMPLES + 1)
    extra = np.asarray(field.breakpoints(edge_id))
    if extra.size:
        xs = np.unique(np.concatenate([xs, extra, np.nextafter(extra, 0.0)]))
    return xs


# --- hypothesis validation ----------------------------------------------------


@dataclass
class HypothesisReport:
    """Outcome of the structural checks on (graph, p, q, w).

    Clause numbering follows the order of the checks:
      1. 1/p lies in L^eta and q, w are locally integrable;
      2. w is essentially bounded below by a positive constant outside a
         compact subgraph (``essinf_w_outside``, candidate recorded);
      3. edge lengths are bounded below (``min_edge_length``);
      4. the negative part of q has uniformly bounded edge integrals
         (``sup_edge_neg_q``).

    ``flags`` maps each clause to whether it holds; ``details`` maps a
    clause to lines naming the edges that broke it, where there are any.
    """

    eta: float
    inv_p_power_total: float
    essinf_w_outside: float
    compact: tuple[str, ...]
    min_edge_length: float
    sup_edge_neg_q: float
    flags: dict = dataclass_field(default_factory=dict)
    details: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def failures(self) -> list[int]:
        return sorted(k for k, ok in self.flags.items() if not ok)


def validate_hypotheses(
    g: MetricGraph,
    field: CoefficientField,
    exhaustion=None,
) -> HypothesisReport:
    """Check the structural hypotheses; failures are reported, never raised.

    The weight lower-bound check first excludes no edge.  When an exhaustion
    is supplied it then searches the exhaustion's distinct levels, smallest
    first, for a compact subgraph that makes the weight bound pass (the
    hypothesis only asks that some compact subgraph works) and records the
    one chosen.  The levels are prefixes of one edge order, so the minimum
    of w outside each is one reversed running minimum in that order.
    The infimum of w, and for infinite eta the supremum of 1/p, is sampled
    once per edge on a grid that sees both sides of every jump.
    """
    flags: dict[int, bool] = {}
    details: dict[int, list[str]] = {}
    ids = [e.id for e in g.edges]
    edge = np.arange(len(ids))
    lengths = np.array([e.length for e in g.edges])

    def integrals(which: str, power: float = 1.0) -> np.ndarray:
        return edge_integrals(field, which, ids, edge, np.zeros(len(ids)), lengths, power)

    w_min = np.empty(len(ids))
    inv_p = np.empty(len(ids)) if math.isinf(field.eta) else integrals("1/p", field.eta)
    for k, eid in enumerate(ids):
        xs = _edge_grid(field, eid)
        try:
            w_min[k] = np.min(field.evaluate(eid, "w", xs))
        except EvaluationError:
            w_min[k] = math.nan
        if math.isinf(field.eta):  # sup of 1/p instead of an integral
            try:
                with np.errstate(divide="ignore"):
                    inv_p[k] = np.max(np.abs(np.divide(1.0, field.evaluate(eid, "p", xs))))
            except EvaluationError:
                inv_p[k] = math.nan

    integrable = np.isfinite(inv_p) & np.isfinite(integrals("|q|")) & np.isfinite(integrals("w"))
    if not integrable.all():
        details[1] = [
            f"{ids[k]}: (1/p)^eta, |q| or w not finite" for k in np.flatnonzero(~integrable)
        ]
    inv_p_total = 0.0  # summed in edge order
    for value in inv_p[np.isfinite(inv_p)].tolist():
        inv_p_total += value
    flags[1] = bool(integrable.all()) and math.isfinite(inv_p_total)

    order, cuts = (ids, [0]) if exhaustion is None else (exhaustion.edges, exhaustion.cuts)
    position = {eid: k for k, eid in enumerate(ids)}
    # a NaN minimum (w not evaluable) spreads to every level that leaves its edge outside
    outside_min = np.minimum.accumulate(w_min[[position[eid] for eid in order]][::-1])[::-1]
    best_cw, best_cut = -math.inf, 0
    for cut in np.unique([0, *cuts]):
        if cut == len(ids):  # the whole graph leaves nothing outside
            continue
        cw = float(outside_min[cut])
        if cw > best_cw:
            best_cw, best_cut = cw, cut
        if cw > 0:
            break
    if np.isnan(w_min).any():
        # no compact choice bounds a weight whose infimum is unknown
        details[2] = [f"{ids[k]}: w not evaluable" for k in np.flatnonzero(np.isnan(w_min))]
        best_cw = math.nan
    flags[2] = best_cw > 0

    flags[3] = g.min_edge_length > 0

    neg_q = integrals("q-")
    finite = np.isfinite(neg_q)
    if not finite.all():
        details[4] = [f"{ids[k]}: q- not finite" for k in np.flatnonzero(~finite)]
    sup_neg = max([0.0, *neg_q[finite].tolist()])
    flags[4] = bool(finite.all())

    return HypothesisReport(
        eta=field.eta,
        inv_p_power_total=float(inv_p_total),
        essinf_w_outside=float(best_cw),
        compact=tuple(sorted(order[:best_cut])),
        min_edge_length=float(g.min_edge_length),
        sup_edge_neg_q=float(sup_neg),
        flags=flags,
        details=details,
    )
