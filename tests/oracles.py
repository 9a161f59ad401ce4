"""Independent references for the tests: Gauss-panel quadrature and Dirichlet vertices.

Assembly (``graphsl._kernels.accumulate``) integrates constants and tables
in closed form and expressions by one Gauss rule per cell.  The sampler
here is independent of it: it splits every cell at each breakpoint of p,
q and w on its edge and samples the fields on Gauss panels, so the form
and mass values built from its samples check assembly and the moments
that ``verify`` reads.

``GraphMesh.free_dofs`` decides which vertices of a piece are free, by one
bincount over the mesh; :func:`dirichlet_vertices` states the same rule
over the graph's edges, vertex by vertex, and checks it.

``validate_hypotheses`` finds its compact subgraph by one running minimum
over the exhaustion's edge order; :func:`compact_search` tries each level
as its own sorted set of edge ids and masks the edges outside it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from graphsl.coeff import GAUSS_NODES, GAUSS_WEIGHTS, CoefficientField, _edge_grid, map_by_spec
from graphsl.errors import EvaluationError
from graphsl.fem import GraphMesh, _all_but_last
from graphsl.graph import MetricGraph


def dirichlet_vertices(g: MetricGraph, edge_ids, include_host_boundary: bool) -> frozenset:
    """Vertices of the piece ``edge_ids`` of ``g`` that carry a Dirichlet condition.

    A vertex is on the piece's interface when fewer of its edge ends lie in
    the piece than its degree (a loop has two ends).  With
    ``include_host_boundary`` the piece's degree-1 vertices of ``g`` are
    constrained too.
    """
    ends = Counter(v for e in map(g.edge, set(edge_ids)) for v in (e.src, e.dst))
    return frozenset(
        {v for v, k in ends.items() if k < g.degree(v) or (include_host_boundary and v in g.boundary)}
    )


def compact_search(g: MetricGraph, field: CoefficientField, exhaustion=None):
    """Clause 2 of ``validate_hypotheses`` by direct search over the levels.

    Returns ``(compact, essinf_w_outside, flag, details)``.  The candidates
    are the empty compact and each level not seen before, smallest first;
    the first with a positive minimum of w outside wins, otherwise the
    first with the largest.  A level that leaves no edge outside is passed
    over, and a w that cannot be evaluated on some edge makes the minimum
    NaN and names the edge.
    """
    ids = [e.id for e in g.edges]
    w_min = np.empty(len(ids))
    for k, eid in enumerate(ids):
        try:
            w_min[k] = np.min(field.evaluate(eid, "w", _edge_grid(field, eid)))
        except EvaluationError:
            w_min[k] = math.nan
    candidates = [()]
    if exhaustion is not None:
        for n in range(exhaustion.max_level + 1):
            cand = tuple(sorted(exhaustion.level(n)))
            if cand not in candidates:
                candidates.append(cand)
    best_cw = -math.inf
    best_compact = candidates[0]
    for cand in candidates:
        inside = set(cand)
        outside = np.array([eid not in inside for eid in ids], dtype=bool)
        if not outside.any():
            continue
        cw = float(np.min(w_min[outside]))
        if cw > best_cw:
            best_cw, best_compact = cw, cand
        if cw > 0:
            break
    details = None
    if np.isnan(w_min).any():
        details = [f"{ids[k]}: w not evaluable" for k in np.flatnonzero(np.isnan(w_min))]
        best_cw = math.nan
    return best_compact, best_cw, best_cw > 0, details


def sample_field(field: CoefficientField, name: str, edge_ids, edge, xs: np.ndarray) -> np.ndarray:
    """Field ``name`` at offset ``xs[k]`` of edge ``edge_ids[edge[k]]``, one evaluation per spec."""
    return map_by_spec(field, name, edge_ids, edge, lambda eid, _, idx: field.evaluate(eid, name, xs[idx]))


@dataclass(frozen=True)
class MeshSamples:
    """Gauss samples over every cell of a mesh, edge after edge.

    Cells follow ``mesh.edge_ids`` and run along each edge; ``d0``, ``d1``
    and ``hcell`` hold one entry per cell, the other arrays one per sample.
    A cell cut by a coefficient breakpoint carries one Gauss panel per
    piece, in order along the edge.
    """

    mesh: GraphMesh
    d0: np.ndarray         # dof of the left cell node
    d1: np.ndarray         # dof of the right cell node
    hcell: np.ndarray      # cell lengths
    cell_idx: np.ndarray   # sample -> cell
    edge: np.ndarray       # sample -> position in mesh.edge_ids
    tloc: np.ndarray       # sample position within its cell, in [0, 1]
    wq: np.ndarray         # quadrature weights
    p: np.ndarray
    q: np.ndarray
    w: np.ndarray

    def p1(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and slopes at the samples of the hat-function expansion of f."""
        f0, f1 = f[self.d0], f[self.d1]
        slope = (f1 - f0) / self.hcell
        c = self.cell_idx
        return f0[c] * (1.0 - self.tloc) + f1[c] * self.tloc, slope[c]

    def edge_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-edge sums of a sample array, in ``mesh.edge_ids`` order."""
        return np.bincount(self.edge, weights=values, minlength=len(self.mesh.edge_ids))

    def edge_sup(self, f: np.ndarray) -> np.ndarray:
        """Per-edge maximum of |f| over the nodes, the sup of its expansion."""
        return np.maximum.reduceat(np.abs(f)[self.mesh.dof], self.mesh.start[:-1])


def mesh_samples(mesh: GraphMesh, field: CoefficientField) -> MeshSamples:
    """Flat quadrature samples of p, q, w over every cell of ``mesh``.

    Uncut cells take the Gauss rule scaled to the cell.  On an edge where
    p, q or w jumps, every cell is split at the jumps into Gauss panels.
    """
    ids, start, nodes = mesh.edge_ids, mesh.start, mesh.x
    breaks = [field.breakpoints(eid) for eid in ids]
    split = np.array([bool(b) for b in breaks])
    sizes = np.diff(start)
    left = _all_but_last(sizes)  # first node of each cell
    hcell = nodes[left + 1] - nodes[left]

    # panels run between consecutive knots of an edge: its nodes and its
    # breakpoints; a panel lies in the cell of the last node at or before it
    at, cuts = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for e in np.flatnonzero(split):
        own = nodes[start[e] : start[e + 1]]
        b = np.setdiff1d(breaks[e], own)
        at.append(start[e] + np.searchsorted(own, b))
        cuts.append(b)
        sizes[e] += len(b)
    at = np.concatenate(at)
    knots = np.insert(nodes, at, np.concatenate(cuts))
    is_node = np.insert(np.ones(len(nodes), dtype=bool), at, False)
    panel = _all_but_last(sizes)
    pedge = np.repeat(np.arange(len(ids)), sizes)[panel]
    pcell = (np.cumsum(is_node) - 1)[panel] - pedge  # each earlier edge has one spare node
    plo = knots[panel][:, None]
    width = (knots[panel + 1] - knots[panel])[:, None]

    xs = plo + width * (0.5 * (GAUSS_NODES + 1.0))
    tloc = (xs - nodes[left][pcell, None]) / hcell[pcell, None]
    xs, tloc = xs.ravel(), tloc.ravel()
    edge = np.repeat(pedge, len(GAUSS_NODES))
    return MeshSamples(
        mesh=mesh,
        d0=mesh.dof[left],
        d1=mesh.dof[left + 1],
        hcell=hcell,
        cell_idx=np.repeat(pcell, len(GAUSS_NODES)),
        edge=edge,
        tloc=tloc,
        wq=(0.5 * width * GAUSS_WEIGHTS).ravel(),
        p=sample_field(field, "p", ids, edge, xs),
        q=sample_field(field, "q", ids, edge, xs),
        w=sample_field(field, "w", ids, edge, xs),
    )
