"""Piecewise-linear finite elements on metric graphs.

Every selected edge is subdivided into equal cells no longer than the
requested mesh size; hat functions on the cells, with endpoint values
shared through the vertex, discretize the form

    f  |->  integral of p |f'|^2 + q |f|^2,    mass  integral of w |f|^2.

Vertex continuity is built into the degree-of-freedom map, so the natural
(Kirchhoff) matching conditions come out of the weak form.  Every mesh is
free: each vertex and each node carries a dof.  A Dirichlet condition
enters a matrix only where a piece is cut: a Dirichlet piece of an
assembly is its edge set, and :meth:`GraphMesh.free_dofs`, the one rule
for which of its vertices are free, gives its kept dofs.
``AssembledForms.restrict`` cuts it as the analysed ``eig.Pencil`` of the
principal submatrices of K and M on those dofs, with no mesh of its own.

:func:`assemble` builds K = K_p + K_q (stiffness plus potential) and the
mass M on one CSR pattern, which a piece's principal sub-pattern keeps, so
every pencil formed here has K and M on one pattern.  It reads each cell's
moments (the integral of p and the hat moments of q and w), exact for
constants and piecewise tables and Gauss sums for expressions, with no
sample arrays over the whole mesh.  The Sobolev self-check in ``verify``
reads the same moments over the same cells.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from . import _kernels
from .coeff import CoefficientField, edge_integrals
from .eig import Pencil
from .errors import IntegrabilityError, MeshError
from .graph import MetricGraph


class GraphMesh:
    """Mesh over a subset of edges, stored as flat node arrays.

    Edge ``edge_ids[k]`` owns nodes ``start[k]:start[k+1]``, endpoints
    included; ``x`` holds each node's offset along its edge and ``dof`` its
    degree of freedom.  An endpoint node carries the dof of its vertex
    (``vertex_dof``).  The vertices take dofs 0..V-1, in sorted vertex
    order, then interior nodes follow in node order; ``n_free`` counts all
    of them, since no mesh has a constrained dof.
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

    @cached_property
    def vertex_degree(self) -> np.ndarray:
        """Each vertex's degree in the host graph, in vertex dof order (a loop counts twice)."""
        return np.fromiter(map(self.graph.degree, self.vertex_dof), np.int64, len(self.vertex_dof))

    def free_dofs(self, edge_ids, *, host_boundary=False) -> np.ndarray:
        """The dofs of the Dirichlet problem on the piece ``edge_ids``, in increasing order.

        This is the library's one Dirichlet rule.  A piece keeps the
        interior nodes of its edges and its free vertices, and every other
        vertex of the piece is Dirichlet.  A vertex stays free when all of
        its edge ends in the host lie in the piece (a loop has two), and,
        with ``host_boundary``, it is not a degree-1 vertex of the host.
        Every such vertex has all of its edges inside the piece, so its row
        carries no entry of an edge outside.  One bincount of the piece's
        edge ends finds them; each edge's interior dofs are one consecutive
        run.
        """
        selected = sorted(set(edge_ids))
        if not selected:
            raise MeshError("empty edge selection")
        position = np.fromiter(map(self.edge_index, selected), np.int64, len(selected))
        if (position < 0).any():
            raise MeshError(f"edge {selected[np.argmax(position < 0)]!r} is not in the parent mesh")
        first, last = self.start[position], self.start[position + 1] - 1
        degree = self.vertex_degree
        ends = np.bincount(np.concatenate((self.dof[first], self.dof[last])), minlength=degree.size)
        free = (ends == degree) & ~(host_boundary & (degree == 1))
        counts = last - first - 1
        # the first interior dof of each edge (a vertex's when the edge has none), then its run
        runs = np.repeat(self.dof[first + 1] - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        kept = np.concatenate((np.flatnonzero(free), runs))
        if not kept.size:
            raise MeshError("piece has no free degrees of freedom")
        return kept


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


def build_mesh(g: MetricGraph, h: float, edges=None) -> GraphMesh:
    """Mesh the selected edges with cells of size at most ``h``.

    ``edges`` is an iterable of edge ids (default: the whole graph).
    """
    if not (isinstance(h, (int, float)) and h > 0):
        raise MeshError(f"mesh size must be positive, got {h!r}")
    # g.edge raises for unknown ids
    selected = [e.id for e in g.edges] if edges is None else [g.edge(eid).id for eid in edges]
    if not selected:
        raise MeshError("empty edge selection")
    selected = sorted(set(selected))
    vertex_dof = {v: d for d, v in enumerate(sorted(subgraph_vertices(g, selected)))}

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
    dof[_interior(start)] = np.arange(len(vertex_dof), len(vertex_dof) + n_interior)
    dof[first] = [vertex_dof[e.src] for e in ends]
    dof[last] = [vertex_dof[e.dst] for e in ends]
    return GraphMesh(
        graph=g,
        edge_ids=tuple(selected),
        start=start,
        x=x,
        dof=dof,
        vertex_dof=vertex_dof,
        n_free=len(vertex_dof) + n_interior,
    )


# --- assembly -----------------------------------------------------------------


@dataclass
class AssembledForms:
    """The pencil (K, M) of the discrete forms on one mesh, on one CSR pattern.

    K = K_p + K_q holds integral p f' g' + q f g and M integral w f g; the
    two matrices share their ``indices`` and ``indptr`` arrays.
    """

    K: csr_matrix
    M: csr_matrix
    mesh: GraphMesh

    def restrict(self, edge_ids, *, host_boundary=False) -> Pencil:
        """The analysed pencil of the Dirichlet problem on the piece ``edge_ids``.

        K and M are the principal submatrices of the forms on the dofs that
        :meth:`GraphMesh.free_dofs` keeps.  Every kept row only gathers
        cells of the selected edges, so they equal the piece's own assembly
        with its Dirichlet rows and columns removed, entry for entry.  The
        cut is handed to the analysis as it is: one canonical pattern that
        both matrices share.  The piece's eigensolve and certificate solve
        share this one analysis.
        """
        return self.cut(self.mesh.free_dofs(edge_ids, host_boundary=host_boundary))

    def cut(self, kept: np.ndarray) -> Pencil:
        """The analysed pencil of the principal submatrices on the increasing dofs ``kept``.

        ``restrict`` with the dofs already found, for a caller that holds
        the piece's :meth:`GraphMesh.free_dofs` anyway.
        """
        return Pencil.on_pattern(*_principal(self.K, self.M, kept))


def _pencil(K_data, M_data, indices, indptr, matrix=csr_matrix):
    """K and M as square matrices of the format ``matrix`` sharing one pattern (indices, indptr)."""
    n = len(indptr) - 1
    M = matrix((M_data, indices, indptr), shape=(n, n))
    return matrix((K_data, M.indices, M.indptr), shape=(n, n)), M


def _principal(K, M, kept: np.ndarray):
    """Principal submatrices, on the increasing indices ``kept``, of K and M on one pattern.

    Equal to ``A[kept][:, kept]`` array for array; one entry mask cuts
    both matrices.  K and M are symmetric, so the cut's CSR arrays are its
    CSC arrays, and it is returned in CSC.
    """
    renumber = np.full(M.shape[0], -1, dtype=M.indices.dtype)
    renumber[kept] = np.arange(len(kept))
    rows = np.flatnonzero(np.repeat(renumber >= 0, np.diff(M.indptr)))  # the kept rows' entries
    cols = renumber.take(M.indices.take(rows))
    inside = cols >= 0
    # a kept row loses only its entries in dropped columns, a few per row at most
    lengths = np.diff(M.indptr)[kept]
    lost = np.bincount(np.searchsorted(np.cumsum(lengths), np.flatnonzero(~inside), side="right"), minlength=len(kept))
    indptr = np.zeros(len(kept) + 1, dtype=M.indptr.dtype)
    np.cumsum(lengths - lost, out=indptr[1:])
    at = rows[inside]
    return _pencil(K.data[at], M.data[at], cols[inside], indptr, csc_matrix)


def _all_but_last(sizes) -> np.ndarray:
    """Positions of every entry but the last of each run of ``sizes``."""
    keep = np.ones(int(np.sum(sizes)), dtype=bool)
    keep[np.cumsum(sizes) - 1] = False
    return np.flatnonzero(keep)


def _cells(mesh: GraphMesh):
    """Every cell of ``mesh``, edge after edge: its edge's position in ``edge_ids``, first node, ends a and b."""
    sizes = np.diff(mesh.start) - 1  # cells per edge
    left = _all_but_last(sizes + 1)  # first node of each cell
    return np.repeat(np.arange(len(sizes)), sizes), left, mesh.x[left], mesh.x[left + 1]


def assemble(mesh: GraphMesh, field: CoefficientField) -> AssembledForms:
    """Assemble the pencil K = K_p + K_q and M on a mesh.

    Each cell's moments (the integral of p, and the hat moments of q and
    w) come from ``_kernels.accumulate``: exact for constants and piecewise
    tables, Gauss sums for expressions, with no sample arrays over the
    whole mesh.  The pattern is built once, from the cells' triplet keys;
    K_p, K_q and M are summed onto it by one bincount each, and K_p + K_q
    is added there, so an exact cancellation stays an explicit zero.
    Raises CoefficientError if p or w is not positive and finite, or q not
    finite, naming the first such edge in mesh order: exactly for constants
    and tables, at the Gauss points for expressions.  The mass matrix is
    then positive definite by construction.
    """
    edge, left, a, b = _cells(mesh)
    acc = _kernels.accumulate(field, mesh.edge_ids, edge, a, b)
    del edge
    rows, cols, vp, vq, vm = _kernels.triplets(mesh.dof[left], mesh.dof[left + 1], b - a, *acc)
    del left, a, b, acc
    # the stable sort keeps each entry's triplets in scatter order, so
    # bincount sums them in the order scipy's COO to CSR conversion does;
    # each sort array is freed once read
    n = mesh.n_free
    keys = rows * n + cols
    del rows, cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0
    pattern = keys[first]
    del keys
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    del order, first
    indices, indptr = pattern % n, np.searchsorted(pattern, np.arange(n + 1) * n)

    def summed(v):
        return np.bincount(slot, weights=v, minlength=len(pattern))

    K, M = _pencil(summed(vp) + summed(vq), summed(vm), indices, indptr)
    return AssembledForms(K, M, mesh)


def kirchhoff_residual(mesh: GraphMesh, field: CoefficientField, f: np.ndarray, vertices) -> dict:
    """Absolute flux imbalance |sum over incident edges of p f'| at each vertex.

    Derivatives are one-sided difference quotients on the adjacent cell,
    weighted by the cell average of p; for the discrete eigenfunctions this
    shrinks linearly with the mesh size.  A loop contributes both of its end
    cells.  Returns ``{vertex: residual}``.
    """
    vertices = list(vertices)
    requested = np.zeros(mesh.n_free, dtype=bool)
    for vertex in vertices:
        if vertex not in mesh.vertex_dof:
            raise MeshError(f"vertex {vertex!r} not in mesh")
        requested[mesh.vertex_dof[vertex]] = True
    # every edge's two end cells, src end first, in edge order: the end node
    # carries its vertex's dof, so a vertex sums its cells in that order
    at = np.column_stack((mesh.start[:-1], mesh.start[1:] - 1)).ravel()
    inner = at + np.tile([1, -1], len(mesh.edge_ids))
    ends = np.flatnonzero(requested[mesh.dof[at]])
    at, inner, edge = at[ends], inner[ends], ends // 2
    lo, hi = mesh.x[np.minimum(at, inner)], mesh.x[np.maximum(at, inner)]
    delta = hi - lo
    p_int = edge_integrals(field, "p", mesh.edge_ids, edge, lo, hi)
    if not np.all(np.isfinite(p_int)):
        raise IntegrabilityError("integral of p over an end cell is not finite")
    f = np.asarray(f)
    flux = p_int / delta * (f[mesh.dof[inner]] - f[mesh.dof[at]]) / delta
    totals = np.bincount(mesh.dof[at], weights=flux, minlength=mesh.n_free)
    return {v: float(abs(totals[mesh.vertex_dof[v]])) for v in vertices}

