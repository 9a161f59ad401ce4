"""Edgewise coefficient fields p, q, w and their integrals.

A coefficient document maps edge ids (or ``"default"``) to per-field
specifications.  A specification is a number (constant), a piecewise
constant table ``{"piecewise": [[start, value], ...]}`` over the edge
coordinate, or an expression ``{"expr": "..."}`` in the edge coordinate x.

Integrals over edge segments are exact for constants and piecewise tables
and use composite Gauss quadrature (panels split at table breakpoints) for
expressions.  Structural requirements on the triple — p and w positive,
1/p integrable to some power, q with uniformly integrable negative part —
are checked by :func:`validate_hypotheses`, which reports rather than
raises so the CLI can decide whether to block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from . import expressions
from .errors import CoefficientError, EvaluationError, IntegrabilityError
from .graph import MetricGraph

_FIELD_NAMES = ("p", "q", "w")

# transforms applied on top of a base field when integrating
_TRANSFORMS = {
    "id": lambda v: v,
    "recip": lambda v: np.divide(1.0, v),
    "pos": lambda v: np.maximum(v, 0.0),
    "neg": lambda v: np.maximum(-np.asarray(v), 0.0),
    "abs": lambda v: np.abs(v),
}

WHICH = {
    "p": ("p", "id"),
    "1/p": ("p", "recip"),
    "q": ("q", "id"),
    "q+": ("q", "pos"),
    "q-": ("q", "neg"),
    "|q|": ("q", "abs"),
    "w": ("w", "id"),
}


@lru_cache(maxsize=16)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


# --- specifications ----------------------------------------------------------


class ConstantSpec:
    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, self.value)

    def breakpoints(self, length: float) -> tuple[float, ...]:
        return ()

    def exact_integral(self, transform, a: float, b: float) -> float:
        return float(transform(self.value)) * (b - a)

    def describe(self) -> str:
        return repr(self.value)


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

    def exact_integral(self, transform, a: float, b: float) -> float:
        total = 0.0
        bounds = np.concatenate([self.starts, [math.inf]])
        for i, value in enumerate(self.values):
            lo = max(a, float(bounds[i]))
            hi = min(b, float(bounds[i + 1]))
            if hi > lo:
                piece = float(transform(value))
                total += piece * (hi - lo)
        return total

    def describe(self) -> str:
        pairs = ", ".join(f"[{s}, {v}]" for s, v in zip(self.starts, self.values))
        return f"piecewise({pairs})"


class ExpressionSpec:
    def __init__(self, source: str):
        self.source = source
        self.ast = expressions.parse_expression(source)

    def evaluate(self, x):
        return np.asarray(expressions.evaluate(self.ast, np.asarray(x, dtype=float)))

    def breakpoints(self, length: float) -> tuple[float, ...]:
        return ()

    def exact_integral(self, transform, a: float, b: float):
        return None

    def describe(self) -> str:
        return f"expr({self.source})"


class ShiftedSpec:
    """View of a spec translated by a fixed coordinate shift.

    Used when a split edge inherits the coefficient of its original edge:
    position x on the half maps to ``shift + x`` on the original.
    """

    def __init__(self, inner, shift: float):
        self.inner = inner
        self.shift = float(shift)

    def evaluate(self, x):
        return self.inner.evaluate(np.asarray(x, dtype=float) + self.shift)

    def breakpoints(self, length: float) -> tuple[float, ...]:
        inherited = self.inner.breakpoints(self.shift + length + 1.0)
        return tuple(b - self.shift for b in inherited if 0.0 < b - self.shift < length)

    def exact_integral(self, transform, a: float, b: float):
        return self.inner.exact_integral(transform, a + self.shift, b + self.shift)

    def describe(self) -> str:
        return f"shift({self.inner.describe()}, {self.shift})"


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
    entry of the edge it was split from (with a coordinate shift), the
    ``"default"`` entry, then the built-in constants p=1, q=0, w=1.
    """

    def __init__(
        self,
        graph: MetricGraph,
        entries: dict,
        quad_order: int = 5,
        quad_panel: float = 0.25,
        eta: float = 1.0,
        essinf_samples: int = 512,
    ):
        if quad_order < 1:
            raise CoefficientError("quad_order must be >= 1")
        if quad_panel <= 0:
            raise CoefficientError("quad_panel must be positive")
        if not (eta >= 1.0):
            raise CoefficientError("eta must be >= 1 (math.inf allowed)")
        self.graph = graph
        self.quad_order = int(quad_order)
        self.quad_panel = float(quad_panel)
        self.eta = float(eta)
        self.essinf_samples = int(essinf_samples)
        self._entries = entries
        self._resolved: dict[tuple[str, str], object] = {}
        for e in graph.edges:
            for name in _FIELD_NAMES:
                self._resolved[(e.id, name)] = self._resolve(e, name)

    def _resolve(self, edge, name):
        entry = self._entries.get(edge.id)
        if entry is not None and name in entry:
            return entry[name]
        if edge.origin != edge.id:
            origin_entry = self._entries.get(edge.origin)
            if origin_entry is not None and name in origin_entry:
                return ShiftedSpec(origin_entry[name], edge.origin_offset)
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

    def describe(self, edge_id: str) -> dict[str, str]:
        return {name: self.spec(edge_id, name).describe() for name in _FIELD_NAMES}


def load_coefficients(document, graph: MetricGraph, **config) -> CoefficientField:
    """Parse a coefficient document (JSON text or dict) against ``graph``.

    Keys must be edge ids of the loaded graph (original, pre-split ids are
    accepted for edges that were normalized) or ``"default"``.  Each entry
    may define any subset of ``p``, ``q``, ``w``.
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
    known_ids = {e.id for e in graph.edges} | {e.origin for e in graph.edges} | {"default"}
    entries = {}
    for key, raw_entry in document.items():
        if key not in known_ids:
            raise CoefficientError(f"coefficient entry for unknown edge {key!r}")
        if not isinstance(raw_entry, dict):
            raise CoefficientError(f"entry for {key!r} must be an object")
        unknown = set(raw_entry) - set(_FIELD_NAMES)
        if unknown:
            raise CoefficientError(f"unknown coefficient names for {key!r}: {sorted(unknown)}")
        entries[key] = {name: _parse_spec(raw) for name, raw in raw_entry.items()}
    return CoefficientField(graph, entries, **config)


# --- integration -------------------------------------------------------------


def _panels(a: float, b: float, breakpoints, panel: float):
    """Split [a, b] at breakpoints, then into pieces no longer than ``panel``."""
    knots = [a] + [s for s in breakpoints if a < s < b] + [b]
    out = []
    for lo, hi in zip(knots, knots[1:]):
        m = max(1, math.ceil((hi - lo) / panel - 1e-12))
        step = (hi - lo) / m
        out.extend((lo + i * step, lo + (i + 1) * step) for i in range(m))
    return out


def edge_integral(
    field: CoefficientField, edge_id: str, which: str, a: float = 0.0, b=None, power: float = 1.0
):
    """Integral of a coefficient (or derived quantity) over [a, b] on an edge.

    ``which`` is one of ``p, 1/p, q, q+, q-, |q|, w``; the integrand is that
    quantity raised to ``power``.  Exact for constants and piecewise tables;
    composite Gauss quadrature otherwise.  Nonfinite results raise
    IntegrabilityError.
    """
    edge = field.graph.edge(edge_id)
    if b is None:
        b = edge.length
    a, b = float(a), float(b)
    if not (-1e-12 <= a <= b <= edge.length + 1e-12):
        raise CoefficientError(
            f"integration bounds [{a}, {b}] outside edge {edge_id!r} of length {edge.length}"
        )
    a = min(max(a, 0.0), edge.length)
    b = min(max(b, 0.0), edge.length)
    if which not in WHICH:
        raise CoefficientError(f"unknown integrand {which!r}")
    name, transform_name = WHICH[which]
    transform = _TRANSFORMS[transform_name]
    if power != 1.0:
        base = transform

        def transform(v):
            return np.power(base(v), power)

    spec = field.spec(edge_id, name)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = spec.exact_integral(transform, a, b)
    except (ZeroDivisionError, FloatingPointError):
        exact = math.inf
    if exact is not None:
        if not math.isfinite(exact):
            raise IntegrabilityError(f"integral of {which} over edge {edge_id!r} is not finite")
        return float(exact)
    return _quadrature(field, edge_id, spec, transform, a, b, which)


def _quadrature(field, edge_id, spec, transform, a, b, which):
    if b <= a:
        return 0.0
    nodes, weights = _gauss_rule(field.quad_order)
    total = 0.0
    for lo, hi in _panels(a, b, spec.breakpoints(b), field.quad_panel):
        xs = 0.5 * (hi - lo) * (nodes + 1.0) + lo
        try:
            with np.errstate(divide="raise"):
                values = transform(spec.evaluate(xs))
        except (FloatingPointError, EvaluationError) as exc:
            raise IntegrabilityError(
                f"integrand {which} not evaluable on edge {edge_id!r}: {exc}"
            ) from exc
        if not np.all(np.isfinite(values)):
            raise IntegrabilityError(f"nonfinite {which} sample on edge {edge_id!r}")
        total += 0.5 * (hi - lo) * float(np.dot(weights, values))
    return total


def sampled_min(field: CoefficientField, edge_id: str, name: str) -> float:
    """Minimum of a field over a dense endpoint-inclusive sample grid."""
    length = field.graph.edge(edge_id).length
    xs = np.linspace(0.0, length, field.essinf_samples + 1)
    extra = np.asarray(field.breakpoints(edge_id))
    if extra.size:
        # sample both sides of each jump of a piecewise table
        xs = np.unique(np.concatenate([xs, extra, np.nextafter(extra, 0.0)]))
    return float(np.min(field.evaluate(edge_id, name, xs)))


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


def _inv_p_power_integral(field, edge_id) -> float:
    """Edge integral of (1/p)^eta, or sup of 1/p when eta is infinite."""
    edge = field.graph.edge(edge_id)
    if math.isinf(field.eta):
        spec = field.spec(edge_id, "p")
        xs = np.linspace(0.0, edge.length, field.essinf_samples + 1)
        with np.errstate(divide="ignore"):
            vals = np.divide(1.0, spec.evaluate(xs))
        return float(np.max(np.abs(vals)))
    return edge_integral(field, edge_id, "1/p", power=field.eta)


def validate_hypotheses(
    g: MetricGraph,
    field: CoefficientField,
    compact=(),
    exhaustion=None,
) -> HypothesisReport:
    """Check the structural hypotheses; failures are reported, never raised.

    ``compact`` names edge ids excluded from the weight lower-bound check.
    When an exhaustion is supplied the check searches its levels for a
    compact subgraph that makes the weight bound pass (the hypothesis only
    asks that some compact subgraph works) and records the one chosen.
    """
    flags: dict[int, bool] = {}
    details: dict[str, object] = {}

    inv_p_total = 0.0
    locally_integrable = True
    for e in g.edges:
        try:
            inv_p_total += _inv_p_power_integral(field, e.id)
            edge_integral(field, e.id, "|q|")
            edge_integral(field, e.id, "w")
        except (IntegrabilityError, EvaluationError) as exc:
            locally_integrable = False
            details.setdefault("integrability", []).append(f"{e.id}: {exc}")
    if not math.isfinite(inv_p_total):
        locally_integrable = False
    flags[1] = locally_integrable

    candidates = [tuple(sorted(compact))]
    if exhaustion is not None:
        for level in exhaustion.levels:
            cand = tuple(sorted(level))
            if cand not in candidates:
                candidates.append(cand)
    best_cw = -math.inf
    best_compact = candidates[0]
    for cand in candidates:
        inside = set(cand)
        outside = [e.id for e in g.edges if e.id not in inside]
        if not outside:
            continue
        cw = min(sampled_min(field, eid, "w") for eid in outside)
        if cw > best_cw:
            best_cw, best_compact = cw, cand
        if cw > 0:
            break
    if best_cw == -math.inf:
        # every candidate swallowed the whole graph; vacuously positive
        best_cw = math.inf
    flags[2] = best_cw > 0

    flags[3] = g.min_edge_length > 0

    sup_neg = 0.0
    finite = True
    for e in g.edges:
        try:
            sup_neg = max(sup_neg, edge_integral(field, e.id, "q-"))
        except (IntegrabilityError, EvaluationError) as exc:
            finite = False
            details.setdefault("negative-part", []).append(f"{e.id}: {exc}")
    flags[4] = finite and math.isfinite(sup_neg)

    return HypothesisReport(
        eta=field.eta,
        inv_p_power_total=float(inv_p_total),
        essinf_w_outside=float(best_cw),
        compact=tuple(best_compact),
        min_edge_length=float(g.min_edge_length),
        sup_edge_neg_q=float(sup_neg),
        flags=flags,
        details=details,
    )
