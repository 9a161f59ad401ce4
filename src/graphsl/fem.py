"""Piecewise-linear finite elements on metric graphs.

Every selected edge is subdivided into equal cells no longer than the
requested mesh size; hat functions on the cells, with endpoint values
shared through the vertex, discretize the form

    f  |->  integral of p |f'|^2 + q |f|^2,    mass  integral of w |f|^2.

Vertex continuity is built into the degree-of-freedom map, so the natural
(Kirchhoff) matching conditions come out of the weak form; Dirichlet
conditions are imposed by eliminating the constrained rows and columns.
Interior truncation points are realized by inserting a mesh node at the
cut offset and constraining it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_matrix, csr_matrix

from . import _kernels
from .coeff import CoefficientField, _gauss_rule, edge_integral
from .errors import CoefficientError, MeshError
from .graph import MetricGraph


@dataclass(frozen=True)
class DirichletTruncationSpec:
    """Dirichlet constraints for a (sub)graph problem.

    ``vertices`` are constrained vertex ids; ``cut_points`` are
    ``(edge_id, offset)`` pairs where a node is inserted and constrained.
    """

    vertices: frozenset = frozenset()
    cut_points: tuple = ()

    @staticmethod
    def none() -> "DirichletTruncationSpec":
        return DirichletTruncationSpec(frozenset(), ())


class GraphMesh:
    """Mesh over a subset of edges with a shared vertex dof map."""

    def __init__(self, graph, edge_ids, h, constraints, edge_offsets, edge_dofs, vertex_dof, n_free, dof_labels):
        self.graph = graph
        self.edge_ids = edge_ids
        self.h = h
        self.constraints = constraints
        self.edge_offsets = edge_offsets
        self.edge_dofs = edge_dofs
        self.vertex_dof = vertex_dof
        self.n_free = n_free
        self.dof_labels = dof_labels

    @property
    def vertices(self) -> frozenset:
        return frozenset(self.vertex_dof)

    def free_vertices(self) -> list[str]:
        return [v for v, d in self.vertex_dof.items() if d >= 0]

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
            constraints=DirichletTruncationSpec(
                vertices=frozenset(v for v, d in vertex_dof.items() if d < 0),
                cut_points=tuple(c for c in self.constraints.cut_points if c[0] in inside),
            ),
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


def build_mesh(
    g: MetricGraph,
    h: float,
    edges=None,
    constraints: DirichletTruncationSpec | None = None,
) -> GraphMesh:
    """Mesh the selected edges with cells of size at most ``h``.

    ``edges`` is an iterable of edge ids (default: the whole graph).  Cut
    points on unselected edges are rejected; cut points that coincide with
    an existing node constrain that node instead of inserting a new one.
    """
    if not (isinstance(h, (int, float)) and h > 0):
        raise MeshError(f"mesh size must be positive, got {h!r}")
    constraints = constraints or DirichletTruncationSpec.none()
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
    for v in constraints.vertices:
        if v not in vertices:
            raise MeshError(f"constrained vertex {v!r} not in meshed subgraph")
    cuts_by_edge: dict[str, list[float]] = {}
    for eid, offset in constraints.cut_points:
        if eid not in set(selected):
            raise MeshError(f"cut point on unselected edge {eid!r}")
        length = g.edge(eid).length
        if not (0.0 <= offset <= length):
            raise MeshError(f"cut offset {offset} outside edge {eid!r}")
        cuts_by_edge.setdefault(eid, []).append(float(offset))

    edge_offsets: dict[str, np.ndarray] = {}
    constrained_interior: dict[str, set[int]] = {}
    for eid in selected:
        e = g.edge(eid)
        m = _cell_count(e.length, h)
        offsets = np.linspace(0.0, e.length, m + 1)
        constrained_nodes: set[int] = set()
        for s in sorted(cuts_by_edge.get(eid, [])):
            tol = 1e-12 * max(1.0, e.length)
            j = int(np.argmin(np.abs(offsets - s)))
            if abs(offsets[j] - s) <= tol:
                if j == 0:
                    constrained_nodes.add(0)
                elif j == len(offsets) - 1:
                    constrained_nodes.add(-1)
                else:
                    constrained_nodes.add(j)
            else:
                offsets = np.sort(np.append(offsets, s))
                j = int(np.searchsorted(offsets, s))
                remap = set()
                for k in constrained_nodes:
                    remap.add(k if (k < 0 or k < j) else k + 1)
                constrained_nodes = remap
                constrained_nodes.add(j)
        edge_offsets[eid] = offsets
        constrained_interior[eid] = constrained_nodes

    vertex_dof: dict[str, int] = {}
    next_dof = 0
    dof_labels: list[tuple] = []
    for v in sorted(vertices):
        if v in constraints.vertices:
            vertex_dof[v] = -1
        else:
            vertex_dof[v] = next_dof
            dof_labels.append(("vertex", v))
            next_dof += 1
    edge_dofs: dict[str, np.ndarray] = {}
    for eid in selected:
        e = g.edge(eid)
        offsets = edge_offsets[eid]
        dofs = np.empty(len(offsets), dtype=np.int64)
        constrained = constrained_interior[eid]
        endpoint_constrained = {len(offsets) - 1 if k == -1 else k for k in constrained}
        dofs[0] = -1 if 0 in endpoint_constrained else vertex_dof[e.src]
        dofs[-1] = -1 if (len(offsets) - 1) in endpoint_constrained else vertex_dof[e.dst]
        for j in range(1, len(offsets) - 1):
            if j in endpoint_constrained:
                dofs[j] = -1
            else:
                dofs[j] = next_dof
                dof_labels.append((eid, float(offsets[j])))
                next_dof += 1
        edge_dofs[eid] = dofs
    return GraphMesh(
        graph=g,
        edge_ids=tuple(selected),
        h=float(h),
        constraints=constraints,
        edge_offsets=edge_offsets,
        edge_dofs=edge_dofs,
        vertex_dof=vertex_dof,
        n_free=next_dof,
        dof_labels=dof_labels,
    )


# --- quadrature sampling ------------------------------------------------------


@dataclass
class EdgeSamples:
    """Quadrature data for one meshed edge, flattened over all cells."""

    edge_id: str
    hcell: np.ndarray      # cell lengths
    d0: np.ndarray         # dof of left cell node (-1 constrained)
    d1: np.ndarray         # dof of right cell node
    cell_idx: np.ndarray   # sample -> cell
    xs: np.ndarray         # sample offsets along the edge
    tloc: np.ndarray       # sample position within its cell, in [0, 1]
    wq: np.ndarray         # quadrature weights
    p: np.ndarray
    q: np.ndarray
    w: np.ndarray


def edge_sample_data(mesh: GraphMesh, field: CoefficientField, edge_id: str) -> EdgeSamples:
    offsets = mesh.edge_offsets[edge_id]
    dofs = mesh.edge_dofs[edge_id]
    a = offsets[:-1]
    hcell = np.diff(offsets)
    nodes, weights = _gauss_rule(field.quad_order)
    breaks = [s for s in field.breakpoints(edge_id)]
    if not breaks:
        tref = 0.5 * (nodes + 1.0)
        xs = (a[:, None] + hcell[:, None] * tref[None, :]).ravel()
        tloc = np.broadcast_to(tref, (len(a), len(tref))).ravel()
        wq = (hcell[:, None] * 0.5 * weights[None, :]).ravel()
        cell_idx = np.repeat(np.arange(len(a), dtype=np.int64), len(tref))
    else:
        xs_l, tl_l, wq_l, ci_l = [], [], [], []
        for c in range(len(a)):
            lo, hi = float(offsets[c]), float(offsets[c + 1])
            knots = [lo] + [s for s in breaks if lo < s < hi] + [hi]
            for plo, phi in zip(knots, knots[1:]):
                px = 0.5 * (phi - plo) * (nodes + 1.0) + plo
                xs_l.append(px)
                tl_l.append((px - lo) / (hi - lo))
                wq_l.append(0.5 * (phi - plo) * weights)
                ci_l.append(np.full(len(px), c, dtype=np.int64))
        xs = np.concatenate(xs_l)
        tloc = np.concatenate(tl_l)
        wq = np.concatenate(wq_l)
        cell_idx = np.concatenate(ci_l)
    return EdgeSamples(
        edge_id=edge_id,
        hcell=hcell,
        d0=dofs[:-1].copy(),
        d1=dofs[1:].copy(),
        cell_idx=cell_idx,
        xs=xs,
        tloc=tloc,
        wq=wq,
        p=field.evaluate(edge_id, "p", xs),
        q=field.evaluate(edge_id, "q", xs),
        w=field.evaluate(edge_id, "w", xs),
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
    sample; the mass matrix is then positive definite by construction.
    """
    samples = []
    for eid in mesh.edge_ids:
        data = edge_sample_data(mesh, field, eid)
        if np.any(data.p <= 0.0) or not np.all(np.isfinite(data.p)):
            raise CoefficientError(f"p must be positive and finite on edge {eid!r}")
        if np.any(data.w <= 0.0) or not np.all(np.isfinite(data.w)):
            raise CoefficientError(f"w must be positive and finite on edge {eid!r}")
        if not np.all(np.isfinite(data.q)):
            raise CoefficientError(f"q must be finite on edge {eid!r}")
        samples.append(data)
    n = mesh.n_free
    if n == 0:
        raise MeshError("mesh has no free degrees of freedom")

    def joined(name):
        return np.concatenate([getattr(data, name) for data in samples])

    first_cell = np.cumsum([0] + [len(data.hcell) for data in samples])
    cell_idx = np.concatenate([data.cell_idx + c for data, c in zip(samples, first_cell)])
    acc = _kernels.accumulate(
        cell_idx, joined("tloc"), joined("wq"), joined("p"), joined("q"), joined("w"), int(first_cell[-1])
    )
    rows, cols, vp, vq, vm = _kernels.triplets(joined("d0"), joined("d1"), joined("hcell"), *acc)

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
    total = 0.0
    for eid in mesh.edge_ids:
        data = edge_sample_data(mesh, field, eid)
        vals = mesh.edge_values(f, eid)
        v0 = vals[:-1][data.cell_idx]
        v1 = vals[1:][data.cell_idx]
        slope = (vals[1:] - vals[:-1]) / data.hcell
        interp = v0 * (1.0 - data.tloc) + v1 * data.tloc
        total += float(np.dot(data.wq, data.p * slope[data.cell_idx] ** 2))
        total += float(np.dot(data.wq, data.q * interp**2))
    return total


def mass_value(mesh: GraphMesh, field: CoefficientField, f: np.ndarray) -> float:
    """Direct quadrature of integral w |f|^2 for a nodal vector."""
    total = 0.0
    for eid in mesh.edge_ids:
        data = edge_sample_data(mesh, field, eid)
        vals = mesh.edge_values(f, eid)
        v0 = vals[:-1][data.cell_idx]
        v1 = vals[1:][data.cell_idx]
        interp = v0 * (1.0 - data.tloc) + v1 * data.tloc
        total += float(np.dot(data.wq, data.w * interp**2))
    return total


def kirchhoff_residual(mesh: GraphMesh, field: CoefficientField, f: np.ndarray, vertex: str) -> float:
    """Absolute flux imbalance |sum over incident edges of p f'| at a vertex.

    Derivatives are one-sided difference quotients on the adjacent cell,
    weighted by the cell average of p; for the discrete eigenfunctions this
    shrinks linearly with the mesh size.
    """
    if vertex not in mesh.vertex_dof:
        raise MeshError(f"vertex {vertex!r} not in mesh")
    if mesh.vertex_dof[vertex] < 0:
        raise MeshError(f"vertex {vertex!r} is constrained; flux balance does not apply")
    total = 0.0
    for eid in mesh.graph.adjacency[vertex]:
        if eid not in mesh.edge_offsets:
            continue
        e = mesh.graph.edge(eid)
        offsets = mesh.edge_offsets[eid]
        vals = mesh.edge_values(f, eid)
        if vertex == e.src:
            delta = float(offsets[1] - offsets[0])
            pbar = edge_integral(field, eid, "p", float(offsets[0]), float(offsets[1])) / delta
            total += pbar * (vals[1] - vals[0]) / delta
        if vertex == e.dst:
            delta = float(offsets[-1] - offsets[-2])
            pbar = edge_integral(field, eid, "p", float(offsets[-2]), float(offsets[-1])) / delta
            total += pbar * (vals[-2] - vals[-1]) / delta
    return float(abs(total))


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
