"""Piecewise-linear finite elements on metric graphs.

Every selected edge is subdivided into equal cells no longer than the
requested mesh size; hat functions on the cells, with endpoint values
shared through the vertex, discretize the form

    f  |->  integral of p |f'|^2 + q |f|^2,    mass  integral of w |f|^2.

Vertex continuity is built into the degree-of-freedom map, so the natural
(Kirchhoff) matching conditions come out of the weak form; Dirichlet
conditions at vertices are imposed by eliminating the constrained rows and
columns.  Every quadrature over a mesh (assembly, the direct form and mass
values, the ground-state transform) reads the one flat sample set that
:func:`mesh_samples` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_matrix, csr_matrix

from . import _kernels
from .coeff import GAUSS_NODES, GAUSS_WEIGHTS, CoefficientField, edge_integrals, sample_field
from .errors import CoefficientError, IntegrabilityError, MeshError
from .graph import MetricGraph


class GraphMesh:
    """Mesh over a subset of edges with a shared vertex dof map.

    Constrained (Dirichlet) vertices carry dof -1.
    """

    def __init__(self, graph, edge_ids, h, edge_offsets, edge_dofs, vertex_dof, n_free, dof_labels):
        self.graph = graph
        self.edge_ids = edge_ids
        self.h = h
        self.edge_offsets = edge_offsets
        self.edge_dofs = edge_dofs
        self.vertex_dof = vertex_dof
        self.n_free = n_free
        self.dof_labels = dof_labels

    def value_at_vertex(self, f: np.ndarray, v: str) -> float:
        d = self.vertex_dof[v]
        return float(f[d]) if d >= 0 else 0.0

    def edge_values(self, f: np.ndarray, edge_id: str) -> np.ndarray:
        """Nodal values along one edge, constrained nodes read as zero."""
        dofs = self.edge_dofs[edge_id]
        out = np.zeros(len(dofs))
        mask = dofs >= 0
        out[mask] = f[dofs[mask]]
        return out

    def restrict(self, edge_ids, dirichlet_vertices=frozenset()) -> tuple["GraphMesh", np.ndarray]:
        """Submesh on ``edge_ids`` with ``dirichlet_vertices`` constrained.

        Returns the submesh and the parent dofs it keeps, in increasing
        order (submesh dof k is parent dof ``kept[k]``); cells, offsets and
        dof labels are the parent's.  Raises MeshError when a free vertex of
        the submesh touches a meshed edge outside ``edge_ids``, since its
        parent row then carries that edge's entries.
        """
        inside = set(edge_ids)
        selected = sorted(inside)
        if not selected:
            raise MeshError("empty edge selection")
        vertices = set()
        for eid in selected:
            if eid not in self.edge_dofs:
                raise MeshError(f"edge {eid!r} is not in the parent mesh")
            e = self.graph.edge(eid)
            vertices.update((e.src, e.dst))
        dirichlet = frozenset(dirichlet_vertices)
        for v in dirichlet:
            if v not in vertices:
                raise MeshError(f"constrained vertex {v!r} not in meshed subgraph")
        keep = np.zeros(self.n_free, dtype=bool)
        for v in sorted(vertices):
            if v in dirichlet or self.vertex_dof[v] < 0:
                continue
            for eid in self.graph.adjacency[v]:
                if eid in self.edge_dofs and eid not in inside:
                    raise MeshError(
                        f"free vertex {v!r} touches meshed edge {eid!r} outside the restriction"
                    )
            keep[self.vertex_dof[v]] = True
        for eid in selected:
            interior = self.edge_dofs[eid][1:-1]
            keep[interior[interior >= 0]] = True
        kept = np.flatnonzero(keep)
        # one spare slot so that parent dof -1 (and any dropped dof) maps to -1
        renumber = np.full(self.n_free + 1, -1, dtype=np.int64)
        renumber[kept] = np.arange(len(kept))
        vertex_dof = {v: int(renumber[self.vertex_dof[v]]) for v in sorted(vertices)}
        sub = GraphMesh(
            graph=self.graph,
            edge_ids=tuple(selected),
            h=self.h,
            edge_offsets={eid: self.edge_offsets[eid] for eid in selected},
            edge_dofs={eid: renumber[self.edge_dofs[eid]] for eid in selected},
            vertex_dof=vertex_dof,
            n_free=len(kept),
            dof_labels=[self.dof_labels[k] for k in kept],
        )
        return sub, kept


def _cell_count(length: float, h: float) -> int:
    # guard against float noise pushing ceil(length/h) one too high
    return max(1, math.ceil(length / h - 1e-9))


def build_mesh(g: MetricGraph, h: float, edges=None, dirichlet_vertices=frozenset()) -> GraphMesh:
    """Mesh the selected edges with cells of size at most ``h``.

    ``edges`` is an iterable of edge ids (default: the whole graph);
    ``dirichlet_vertices`` are vertices of the selection that carry no dof.
    """
    if not (isinstance(h, (int, float)) and h > 0):
        raise MeshError(f"mesh size must be positive, got {h!r}")
    if edges is None:
        selected = [e.id for e in g.edges]
    else:
        selected = list(edges)
        for eid in selected:
            g.edge(eid)  # raises for unknown ids
    if not selected:
        raise MeshError("empty edge selection")
    selected = sorted(set(selected))
    vertices = set()
    for eid in selected:
        e = g.edge(eid)
        vertices.add(e.src)
        vertices.add(e.dst)
    dirichlet = frozenset(dirichlet_vertices)
    for v in dirichlet:
        if v not in vertices:
            raise MeshError(f"constrained vertex {v!r} not in meshed subgraph")

    vertex_dof: dict[str, int] = {}
    next_dof = 0
    dof_labels: list[tuple] = []
    for v in sorted(vertices):
        if v in dirichlet:
            vertex_dof[v] = -1
        else:
            vertex_dof[v] = next_dof
            dof_labels.append(("vertex", v))
            next_dof += 1
    edge_offsets: dict[str, np.ndarray] = {}
    edge_dofs: dict[str, np.ndarray] = {}
    for eid in selected:
        e = g.edge(eid)
        offsets = np.linspace(0.0, e.length, _cell_count(e.length, h) + 1)
        interior = len(offsets) - 2
        dofs = np.empty(len(offsets), dtype=np.int64)
        dofs[0] = vertex_dof[e.src]
        dofs[-1] = vertex_dof[e.dst]
        dofs[1:-1] = np.arange(next_dof, next_dof + interior)
        dof_labels.extend((eid, float(x)) for x in offsets[1:-1])
        next_dof += interior
        edge_offsets[eid] = offsets
        edge_dofs[eid] = dofs
    return GraphMesh(
        graph=g,
        edge_ids=tuple(selected),
        h=float(h),
        edge_offsets=edge_offsets,
        edge_dofs=edge_dofs,
        vertex_dof=vertex_dof,
        n_free=next_dof,
        dof_labels=dof_labels,
    )


# --- quadrature samples -------------------------------------------------------


@dataclass(frozen=True)
class MeshSamples:
    """Gauss samples over every cell of a mesh, edge after edge.

    Cells follow ``mesh.edge_ids`` and run along each edge; ``d0``, ``d1``
    and ``hcell`` hold one entry per cell, the other arrays one per sample.
    A cell cut by a coefficient breakpoint carries one Gauss panel per
    piece, in order along the edge.
    """

    mesh: GraphMesh
    d0: np.ndarray         # dof of the left cell node (-1 constrained)
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
        nodal = np.append(f, 0.0)  # dof -1 reads the appended zero
        f0, f1 = nodal[self.d0], nodal[self.d1]
        slope = (f1 - f0) / self.hcell
        c = self.cell_idx
        return f0[c] * (1.0 - self.tloc) + f1[c] * self.tloc, slope[c]

    def edge_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-edge sums of a sample array, in ``mesh.edge_ids`` order."""
        return np.bincount(self.edge, weights=values, minlength=len(self.mesh.edge_ids))

    def edge_sup(self, f: np.ndarray) -> np.ndarray:
        """Per-edge maximum of |f| over the nodes, the sup of its expansion."""
        nodal = np.abs(np.append(f, 0.0))
        cell_max = np.maximum(nodal[self.d0], nodal[self.d1])
        out = np.zeros(len(self.mesh.edge_ids))
        np.maximum.at(out, self.edge, cell_max[self.cell_idx])
        return out


def _all_but_last(sizes) -> np.ndarray:
    """Positions of every entry but the last of each run of ``sizes``."""
    keep = np.ones(int(np.sum(sizes)), dtype=bool)
    keep[np.cumsum(sizes) - 1] = False
    return np.flatnonzero(keep)


def mesh_samples(mesh: GraphMesh, field: CoefficientField) -> MeshSamples:
    """Flat quadrature samples of p, q, w over every cell of ``mesh``.

    Uncut cells take the Gauss rule scaled to the cell.  On an edge where
    p, q or w jumps, every cell is split at the jumps into Gauss panels.
    """
    ids = mesh.edge_ids
    offsets = [mesh.edge_offsets[eid] for eid in ids]
    breaks = [field.breakpoints(eid) for eid in ids]
    split = np.array([bool(b) for b in breaks])
    nodes = np.concatenate(offsets)
    dofs = np.concatenate([mesh.edge_dofs[eid] for eid in ids])
    left = _all_but_last([len(o) for o in offsets])  # first node of each cell
    hcell = nodes[left + 1] - nodes[left]

    # panels run between consecutive knots of an edge: its nodes and its
    # breakpoints; a panel lies in the cell of the last node at or before it
    knots = [np.unique(np.concatenate([o, b])) if b else o for o, b in zip(offsets, breaks)]
    sizes = np.array([len(k) for k in knots])
    starts = np.cumsum(sizes) - sizes
    is_node = np.ones(int(sizes.sum()), dtype=bool)
    for e in np.flatnonzero(split):
        is_node[starts[e] : starts[e] + sizes[e]] = np.isin(knots[e], offsets[e])
    panel = _all_but_last(sizes)
    pedge = np.repeat(np.arange(len(ids)), sizes)[panel]
    pcell = (np.cumsum(is_node) - 1)[panel] - pedge  # each earlier edge has one spare node
    all_knots = np.concatenate(knots)
    plo = all_knots[panel][:, None]
    width = (all_knots[panel + 1] - all_knots[panel])[:, None]

    tref = 0.5 * (GAUSS_NODES + 1.0)
    xs = plo + width * tref
    tloc = np.tile(tref, (len(panel), 1))
    # on edges with a jump the points are placed per panel instead; the two
    # placements round differently, and each kind of edge keeps its own so
    # that assembled matrices stay bitwise reproducible
    cut = split[pedge]
    xs[cut] = 0.5 * width[cut] * (GAUSS_NODES + 1.0) + plo[cut]
    tloc[cut] = (xs[cut] - nodes[left][pcell[cut], None]) / hcell[pcell[cut], None]
    xs, tloc = xs.ravel(), tloc.ravel()
    edge = np.repeat(pedge, len(GAUSS_NODES))
    return MeshSamples(
        mesh=mesh,
        d0=dofs[left],
        d1=dofs[left + 1],
        hcell=hcell,
        cell_idx=np.repeat(pcell, len(GAUSS_NODES)),
        edge=edge,
        tloc=tloc,
        wq=(0.5 * width * GAUSS_WEIGHTS).ravel(),
        p=sample_field(field, "p", ids, edge, xs),
        q=sample_field(field, "q", ids, edge, xs),
        w=sample_field(field, "w", ids, edge, xs),
    )


# --- assembly -----------------------------------------------------------------


@dataclass
class AssembledForms:
    """Sparse matrices of the discrete quadratic forms on one domain."""

    stiffness: csr_matrix   # integral p f' g'
    potential: csr_matrix   # integral q f g
    mass: csr_matrix        # integral w f g
    mesh: GraphMesh
    domain: str = "graph"

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]

    def pencil(self):
        return (self.stiffness + self.potential).tocsr(), self.mass

    def restrict(self, edge_ids, dirichlet_vertices=frozenset(), domain: str = "graph") -> "AssembledForms":
        """Forms of the problem on ``edge_ids`` with Dirichlet vertices.

        The matrices are principal submatrices of these on the dofs that
        :meth:`GraphMesh.restrict` keeps.  Every kept row only gathers cells
        of the selected edges, so they equal a direct assembly on the
        submesh entry for entry.
        """
        mesh, kept = self.mesh.restrict(edge_ids, dirichlet_vertices)
        if mesh.n_free == 0:
            raise MeshError("mesh has no free degrees of freedom")

        def principal(mat):
            return mat[kept][:, kept]

        return AssembledForms(
            stiffness=principal(self.stiffness),
            potential=principal(self.potential),
            mass=principal(self.mass),
            mesh=mesh,
            domain=domain,
        )


def assemble(mesh: GraphMesh, field: CoefficientField, domain: str = "graph") -> AssembledForms:
    """Assemble stiffness, potential and mass matrices on a mesh.

    Raises CoefficientError if p or w is nonpositive at any quadrature
    sample, naming the first such edge in mesh order; the mass matrix is
    then positive definite by construction.
    """
    s = mesh_samples(mesh, field)
    checks = (
        ("p", "positive and finite", ~(np.isfinite(s.p) & (s.p > 0.0))),
        ("w", "positive and finite", ~(np.isfinite(s.w) & (s.w > 0.0))),
        ("q", "finite", ~np.isfinite(s.q)),
    )
    # the first offending edge in mesh order, then its first offending field
    offending = [
        (s.edge[np.argmax(bad)], rank, name, demand)
        for rank, (name, demand, bad) in enumerate(checks)
        if bad.any()
    ]
    if offending:
        edge, _, name, demand = min(offending)
        raise CoefficientError(f"{name} must be {demand} on edge {mesh.edge_ids[edge]!r}")
    n = mesh.n_free
    if n == 0:
        raise MeshError("mesh has no free degrees of freedom")
    acc = _kernels.accumulate(s.cell_idx, s.tloc, s.wq, s.p, s.q, s.w, len(s.hcell))
    rows, cols, vp, vq, vm = _kernels.triplets(s.d0, s.d1, s.hcell, *acc)

    def make(values):
        mat = coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
        mat.sum_duplicates()
        return mat

    return AssembledForms(
        stiffness=make(vp),
        potential=make(vq),
        mass=make(vm),
        mesh=mesh,
        domain=domain,
    )


def form_value(mesh: GraphMesh, field: CoefficientField, f: np.ndarray) -> float:
    """Direct quadrature of the form integral p|f'|^2 + q|f|^2 for nodal f.

    Independent of the assembled matrices; used to cross-check that
    x^T (K_p + K_q) x reproduces the quadrature value of the form.
    """
    s = mesh_samples(mesh, field)
    value, slope = s.p1(f)
    return float(np.dot(s.wq, s.p * slope**2 + s.q * value**2))


def mass_value(mesh: GraphMesh, field: CoefficientField, f: np.ndarray) -> float:
    """Direct quadrature of integral w |f|^2 for a nodal vector."""
    s = mesh_samples(mesh, field)
    value, _ = s.p1(f)
    return float(np.dot(s.wq, s.w * value**2))


def kirchhoff_residual(mesh: GraphMesh, field: CoefficientField, f: np.ndarray, vertices) -> dict:
    """Absolute flux imbalance |sum over incident edges of p f'| at each vertex.

    Derivatives are one-sided difference quotients on the adjacent cell,
    weighted by the cell average of p; for the discrete eigenfunctions this
    shrinks linearly with the mesh size.  Returns ``{vertex: residual}``.
    """
    position = {eid: k for k, eid in enumerate(mesh.edge_ids)}
    vertices = list(vertices)
    cells = []  # per end cell: vertex, edge, cell start and end, vertex dof, inner dof
    for k, vertex in enumerate(vertices):
        if vertex not in mesh.vertex_dof:
            raise MeshError(f"vertex {vertex!r} not in mesh")
        if mesh.vertex_dof[vertex] < 0:
            raise MeshError(f"vertex {vertex!r} is constrained; flux balance does not apply")
        for eid in mesh.graph.adjacency[vertex]:
            if eid in position:
                e, x, d = mesh.graph.edge(eid), mesh.edge_offsets[eid], mesh.edge_dofs[eid]
                if vertex == e.src:
                    cells.append((k, position[eid], x[0], x[1], d[0], d[1]))
                if vertex == e.dst:
                    cells.append((k, position[eid], x[-2], x[-1], d[-1], d[-2]))
    owner, edge, lo, hi, d_at, d_in = np.array(cells, dtype=float).reshape(-1, 6).T
    delta = hi - lo
    p_int = edge_integrals(field, "p", mesh.edge_ids, edge.astype(np.int64), lo, hi)
    if not np.all(np.isfinite(p_int)):
        raise IntegrabilityError("integral of p over an end cell is not finite")
    nodal = np.append(f, 0.0)  # dof -1 reads the appended zero
    flux = p_int / delta * (nodal[d_in.astype(np.int64)] - nodal[d_at.astype(np.int64)]) / delta
    totals = np.bincount(owner.astype(np.int64), weights=flux, minlength=len(vertices))
    return {v: float(abs(t)) for v, t in zip(vertices, totals)}


def write_matrix_market(forms: AssembledForms, directory, prefix: str = "") -> list[str]:
    """Dump stiffness/potential/mass in Matrix Market coordinate format."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for name, mat in (
        ("stiffness", forms.stiffness),
        ("potential", forms.potential),
        ("mass", forms.mass),
    ):
        path = os.path.join(directory, f"{prefix}{name}.mtx")
        mmwrite(path, mat.tocoo(), symmetry="symmetric")
        written.append(path)
    return written
