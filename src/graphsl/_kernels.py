"""Hot assembly kernels: per-cell moments and the triplet scatter.

Both run over every cell of a mesh, laid out edge after edge, once per
assembly; ``verify``'s Sobolev check reads the same moments.  The moments
are computed spec group by spec group: constants and piecewise tables in
closed form, expressions by one Gauss rule per cell, with one evaluation
per spec.
"""

from __future__ import annotations

import numpy as np

from .coeff import GAUSS_NODES, GAUSS_WEIGHTS, ConstantSpec, PiecewiseSpec, map_by_spec
from .errors import CoefficientError

# The moments a cell needs, in the cell coordinate t running from 0 to 1:
# each moment's hat factors (0 for 1 - t, 1 for t), the denominator of its
# integral over the whole cell (v h / 1, v h / 3, ...) and an antiderivative
# of its weight, which integrates it over part of the cell.
_INTEGRAL = (((), 1, lambda t: t),)
_HAT_MOMENTS = (
    ((0, 0), 3, lambda t: -((1.0 - t) ** 3) / 3.0),
    ((0, 1), 6, lambda t: t * t * (0.5 - t / 3.0)),
    ((1, 1), 3, lambda t: t**3 / 3.0),
)
_TREF = 0.5 * (GAUSS_NODES + 1.0)
_HATS = (1.0 - _TREF, _TREF)


def _positive(v):
    return np.isfinite(v) & (v > 0.0)


# field, what it must be, its check, its moments; the error names p, w, q in this order
_FIELDS = {
    "p": ("positive and finite", _positive, _INTEGRAL),
    "q": ("finite", np.isfinite, _HAT_MOMENTS),
    "w": ("positive and finite", _positive, _HAT_MOMENTS),
}


def _whole_cells(v, h, moments):
    """Moments of the value ``v`` held over whole cells of lengths ``h``."""
    vh = v * h
    return np.column_stack([vh / den for _, den, _ in moments])


def _piecewise(spec, a, b, moments, ok):
    """Exact moments of a table over the cells [a, b], and the cells it fails ``ok`` on.

    Only the table's own starts cut a cell.  A piece counts where it meets
    a cell, so one that starts at or past the edge's end is never read.
    """
    starts, values = spec.starts, spec.values
    first = np.searchsorted(starts, a, side="right") - 1  # the piece holding a
    last = np.searchsorted(starts, b, side="left") - 1    # the last piece starting before b
    h = b - a
    out = _whole_cells(values[first], h, moments)
    bad = ~ok(values[first])
    cut = np.flatnonzero(last > first)
    if cut.size:
        # one segment per piece that meets a cut cell, cell after cell
        count = last[cut] - first[cut] + 1
        seg = np.repeat(np.arange(len(cut)), count)
        cell = cut[seg]
        piece = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count) + first[cell]
        ends = np.append(starts, np.inf)
        t0 = (np.maximum(a[cell], starts[piece]) - a[cell]) / h[cell]
        t1 = (np.minimum(b[cell], ends[piece + 1]) - a[cell]) / h[cell]
        vh = values[piece] * h[cell]
        for j, (_, _, antiderivative) in enumerate(moments):
            out[cut, j] = np.bincount(seg, vh * (antiderivative(t1) - antiderivative(t0)), len(cut))
        bad[cell[~ok(values[piece])]] = True
    return out, bad


def _gauss(values, h, moments):
    """Gauss sums of the moments from ``values`` at the rule's points of each cell.

    Each cell sums its points in order, weight times value times its hat
    factors, from zero up.
    """
    out = np.zeros((len(h), len(moments)))
    half = 0.5 * h
    for g, weight in enumerate(GAUSS_WEIGHTS):
        wv = half * weight * values[:, g]
        for j, (factors, _, _) in enumerate(moments):
            term = wv
            for f in factors:
                term = term * _HATS[f][g]
            out[:, j] += term
    return out


def accumulate(field, edge_ids, edge, a, b):
    """Moments of p, q and w over every cell [a[k], b[k]] of edge ``edge_ids[edge[k]]``.

    Returns seven arrays with one entry per cell: the cell integral of p,
    the hat moments of q (q00, q01, q11) and of w (m00, m01, m11), the
    integrals of v(1-t)^2, v t(1-t) and v t^2 with t running from 0 to 1
    over the cell.  Constants and tables are exact and are never
    evaluated; an expression is sampled once per spec at the Gauss points
    of its own cells.

    Raises CoefficientError if p or w is not positive and finite, or q not
    finite, naming the first offending edge in ``edge_ids`` order, then
    p, w, q.  Constants and the table pieces that meet an edge are checked
    exactly, expressions at their Gauss points.
    """
    h = b - a
    offending, moments = [], {}
    for name, (demand, ok, kind) in _FIELDS.items():
        bad = np.zeros(len(h), dtype=bool)

        def group(edge_id, spec, idx):
            if isinstance(spec, ConstantSpec):
                out, bad[idx] = _whole_cells(spec.value, h[idx], kind), not ok(spec.value)
            elif isinstance(spec, PiecewiseSpec):
                out, bad[idx] = _piecewise(spec, a[idx], b[idx], kind, ok)
            else:
                xs = a[idx, None] + h[idx, None] * _TREF
                values = field.evaluate(edge_id, name, xs.ravel()).reshape(xs.shape)
                out, bad[idx] = _gauss(values, h[idx], kind), ~ok(values).all(axis=1)
            return out

        moments[name] = map_by_spec(field, name, edge_ids, edge, group, len(kind))
        if bad.any():
            offending.append((edge[np.argmax(bad)], "pwq".index(name), name, demand))
    if offending:
        first, _, name, demand = min(offending)
        raise CoefficientError(f"{name} must be {demand} on edge {edge_ids[first]!r}")
    return (moments["p"][:, 0], *moments["q"].T, *moments["w"].T)


def triplets(d0, d1, hcell, ip, q00, q01, q11, m00, m01, m11):
    """Scatter local matrices to COO triplets, four per cell.

    Entry order per cell is (00, 01, 10, 11); symmetric off-diagonal values
    are written from the same accumulated number, so assembled matrices are
    bitwise symmetric.  Every dof is free, so every triplet is emitted;
    Dirichlet conditions enter only where a piece is cut from the forms.
    """
    s = ip / (hcell * hcell)
    rows = np.stack([d0, d0, d1, d1], axis=1)
    cols = np.stack([d0, d1, d0, d1], axis=1)
    vp = np.stack([s, -s, -s, s], axis=1)
    vq = np.stack([q00, q01, q01, q11], axis=1)
    vm = np.stack([m00, m01, m01, m11], axis=1)
    return rows.ravel(), cols.ravel(), vp.ravel(), vq.ravel(), vm.ravel()


def backend() -> str:
    """Name of the kernel implementation, kept for run reports."""
    return "numpy"
