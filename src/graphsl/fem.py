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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_matrix, csr_matrix

from . import _kernels
from .coeff import GAUSS_NODES, GAUSS_WEIGHTS, CoefficientField, edge_integrals, sample_field
from .eig import Pencil
from .errors import CoefficientError, IntegrabilityError, MeshError
from .graph import MetricGraph


class GraphMesh:
    """Mesh over a subset of edges, stored as flat node arrays.

    Edge ``edge_ids[k]`` owns nodes ``start[k]:start[k+1]``, endpoints
    included; ``x`` holds each node's offset along its edge and ``dof`` its
    degree of freedom, -1 when constrained.  An endpoint node carries the
    dof of its vertex (``vertex_dof``).  Free vertices take the first dofs,
    in sorted vertex order, then interior nodes follow in node order.
    """

    def __init__(self, graph, edge_ids, start, x, dof, vertex_dof, n_free):
        self.graph = graph
        self.edge_ids = edge_ids
        self.start = start
        self.x = x
        self.dof = dof
        self.vertex_dof = vertex_dof
        self.n_free = n_free

    def edge_index(self, edge_id: str) -> int:
        """Position of ``edge_id`` in ``edge_ids`` (sorted), -1 when not meshed."""
        k = bisect_left(self.edge_ids, edge_id)
        return k if k < len(self.edge_ids) and self.edge_ids[k] == edge_id else -1

    def restrict(self, edge_ids, dirichlet_vertices=frozenset()) -> tuple["GraphMesh", np.ndarray]:
        """Submesh on ``edge_ids`` with ``dirichlet_vertices`` constrained.

        Returns the submesh and the parent dofs it keeps, in increasing
        order (submesh dof k is parent dof ``kept[k]``); cells, offsets and
        the dof order are the parent's.  Raises MeshError when a free vertex
        of the submesh touches a meshed edge outside ``edge_ids``, since its
        parent row then carries that edge's entries.
        """
        selected = sorted(set(edge_ids))
        if not selected:
            raise MeshError("empty edge selection")
        position = np.fromiter(map(self.edge_index, selected), np.int64, len(selected))
        if (position < 0).any():
            raise MeshError(f"edge {selected[np.argmax(position < 0)]!r} is not in the parent mesh")
        vertices = subgraph_vertices(self.graph, selected)
        dirichlet = _checked_dirichlet(vertices, dirichlet_vertices)
        keep = np.zeros(self.n_free + 1, dtype=bool)
        keep[np.fromiter((self.vertex_dof[v] for v in vertices if v not in dirichlet), np.int64)] = True
        keep[-1] = False  # spare slot: parent dof -1 is never kept
        inside = np.zeros(len(self.edge_ids), dtype=bool)
        inside[position] = True
        # endpoint nodes carry vertex dofs, so a kept dof at an endpoint of
        # an edge outside is a free vertex touching that edge
        free_end = keep[self.dof[self.start[:-1]]] | keep[self.dof[self.start[1:] - 1]]
        if (free_end & ~inside).any():
            for v in sorted(vertices - dirichlet):
                for eid in self.graph.adjacency[v]:
                    k = self.edge_index(eid)
                    if keep[self.vertex_dof[v]] and k >= 0 and not inside[k]:
                        raise MeshError(
                            f"free vertex {v!r} touches meshed edge {eid!r} outside the restriction"
                        )
        sizes = np.diff(self.start)
        nodes = np.repeat(inside, sizes)
        keep[self.dof[nodes & _interior(self.start)]] = True
        kept = np.flatnonzero(keep[:-1])
        # the spare slot maps parent dof -1 (and any dropped dof) to -1
        renumber = np.full(self.n_free + 1, -1, dtype=np.int64)
        renumber[kept] = np.arange(len(kept))
        sub = GraphMesh(
            graph=self.graph,
            edge_ids=tuple(selected),
            start=np.concatenate(([0], np.cumsum(sizes[position]))),
            x=self.x[nodes],
            dof=renumber[self.dof[nodes]],
            vertex_dof={v: int(renumber[self.vertex_dof[v]]) for v in sorted(vertices)},
            n_free=len(kept),
        )
        return sub, kept


def subgraph_vertices(g: MetricGraph, edge_ids) -> frozenset:
    """Endpoints of the given edges."""
    # copied from a set, the frozenset is sized to fit; built straight from
    # a generator it keeps the table's growth slack
    return frozenset({v for e in map(g.edge, edge_ids) for v in (e.src, e.dst)})


def _interior(start: np.ndarray) -> np.ndarray:
    """Mask of the nodes that are not an edge endpoint, for the layout ``start``."""
    out = np.ones(start[-1], dtype=bool)
    out[start[:-1]] = False
    out[start[1:] - 1] = False
    return out


def _checked_dirichlet(vertices, dirichlet_vertices) -> frozenset:
    dirichlet = frozenset(dirichlet_vertices)
    for v in dirichlet:
        if v not in vertices:
            raise MeshError(f"constrained vertex {v!r} not in meshed subgraph")
    return dirichlet


def build_mesh(g: MetricGraph, h: float, edges=None, dirichlet_vertices=frozenset()) -> GraphMesh:
    """Mesh the selected edges with cells of size at most ``h``.

    ``edges`` is an iterable of edge ids (default: the whole graph);
    ``dirichlet_vertices`` are vertices of the selection that carry no dof.
    """
    if not (isinstance(h, (int, float)) and h > 0):
        raise MeshError(f"mesh size must be positive, got {h!r}")
    # g.edge raises for unknown ids
    selected = [e.id for e in g.edges] if edges is None else [g.edge(eid).id for eid in edges]
    if not selected:
        raise MeshError("empty edge selection")
    selected = sorted(set(selected))
    vertices = subgraph_vertices(g, selected)
    dirichlet = _checked_dirichlet(vertices, dirichlet_vertices)

    vertex_dof = dict.fromkeys(sorted(vertices), -1)
    free = [v for v in vertex_dof if v not in dirichlet]
    vertex_dof.update(zip(free, range(len(free))))

    ends = [g.edge(eid) for eid in selected]
    lengths = np.array([e.length for e in ends])
    # guard against float noise pushing ceil(length/h) one too high
    cells = np.maximum(1, np.ceil(lengths / h - 1e-9)).astype(np.int64)
    start = np.concatenate(([0], np.cumsum(cells + 1)))
    first, last = start[:-1], start[1:] - 1
    # i * (length / cells) with the end pinned to length is np.linspace, bitwise
    x = (np.arange(start[-1]) - np.repeat(first, cells + 1)) * np.repeat(lengths / cells, cells + 1)
    x[last] = lengths
    n_interior = int(start[-1]) - 2 * len(selected)
    dof = np.empty(start[-1], dtype=np.int64)
    dof[_interior(start)] = np.arange(len(free), len(free) + n_interior)
    dof[first] = [vertex_dof[e.src] for e in ends]
    dof[last] = [vertex_dof[e.dst] for e in ends]
    return GraphMesh(
        graph=g,
        edge_ids=tuple(selected),
        start=start,
        x=x,
        dof=dof,
        vertex_dof=vertex_dof,
        n_free=len(free) + n_interior,
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
        nodal = np.abs(np.append(f, 0.0))  # dof -1 reads the appended zero
        return np.maximum.reduceat(nodal[self.mesh.dof], self.mesh.start[:-1])


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

    @cached_property
    def analysis(self) -> Pencil:
        """The eigensolver's analysis of ``pencil()``, built on first use.

        Every factorization of this problem (the eigensolve's counts,
        shift-invert factors and proof, and a certificate's interior solve)
        reuses it, so the pencil is formed and analysed once.  Assembly puts
        each cell's value at (i, j) and (j, i), so the matrices are
        symmetric entry for entry and their transposes, CSC views of the
        same arrays, are the matrices themselves.
        """
        K, M = self.pencil()
        return Pencil(K.T, M.T)

    def restrict(self, edge_ids, dirichlet_vertices=frozenset(), domain: str = "graph") -> "AssembledForms":
        """Forms of the problem on ``edge_ids`` with Dirichlet vertices.

        The matrices are principal submatrices of these on the dofs that
        :meth:`GraphMesh.restrict` keeps.  Every kept row only gathers cells
        of the selected edges, so they equal a direct assembly on the
        submesh entry for entry.  Matrices on one pattern, as ``assemble``
        makes them, are cut with one entry mask.
        """
        mesh, kept = self.mesh.restrict(edge_ids, dirichlet_vertices)
        if mesh.n_free == 0:
            raise MeshError("mesh has no free degrees of freedom")
        return AssembledForms(*_principal((self.stiffness, self.potential, self.mass), kept), mesh=mesh, domain=domain)


def _principal(mats, kept: np.ndarray) -> list:
    """Principal submatrices of square CSR matrices on the increasing indices ``kept``.

    Equal to ``mat[kept][:, kept]`` array for array; matrices that share a
    pattern share one entry mask.
    """
    n = mats[0].shape[0]
    out, last = [], None
    for mat in mats:
        if last is None or not (np.array_equal(mat.indptr, last.indptr) and np.array_equal(mat.indices, last.indices)):
            renumber = np.full(n, -1, dtype=mat.indices.dtype)
            renumber[kept] = np.arange(len(kept))
            rows = renumber[np.repeat(np.arange(n), np.diff(mat.indptr))]
            cols = renumber[mat.indices]
            mask = (rows >= 0) & (cols >= 0)
            indices = cols[mask]
            indptr = np.zeros(len(kept) + 1, dtype=mat.indptr.dtype)
            np.cumsum(np.bincount(rows[mask], minlength=len(kept)), out=indptr[1:])
            last = mat
        out.append(csr_matrix((mat.data[mask], indices.copy(), indptr.copy()), shape=(len(kept), len(kept))))
    return out


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
    vertices = list(vertices)
    cells = []  # per end cell: vertex, edge, vertex node, inner node
    for k, vertex in enumerate(vertices):
        if vertex not in mesh.vertex_dof:
            raise MeshError(f"vertex {vertex!r} not in mesh")
        if mesh.vertex_dof[vertex] < 0:
            raise MeshError(f"vertex {vertex!r} is constrained; flux balance does not apply")
        for eid in mesh.graph.adjacency[vertex]:
            j = mesh.edge_index(eid)
            if j >= 0:
                e = mesh.graph.edge(eid)
                if vertex == e.src:
                    cells.append((k, j, mesh.start[j], mesh.start[j] + 1))
                if vertex == e.dst:
                    cells.append((k, j, mesh.start[j + 1] - 1, mesh.start[j + 1] - 2))
    owner, edge, at, inner = np.array(cells, dtype=np.int64).reshape(-1, 4).T
    lo, hi = mesh.x[np.minimum(at, inner)], mesh.x[np.maximum(at, inner)]
    delta = hi - lo
    p_int = edge_integrals(field, "p", mesh.edge_ids, edge, lo, hi)
    if not np.all(np.isfinite(p_int)):
        raise IntegrabilityError("integral of p over an end cell is not finite")
    nodal = np.append(f, 0.0)  # dof -1 reads the appended zero
    flux = p_int / delta * (nodal[mesh.dof[inner]] - nodal[mesh.dof[at]]) / delta
    totals = np.bincount(owner, weights=flux, minlength=len(vertices))
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
