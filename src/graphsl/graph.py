"""Metric graphs, the path metric, and nested exhaustions.

A metric graph is a combinatorial graph whose edges carry positive lengths;
an edge's coordinate runs from 0 at its ``src`` end.  Graphs are
loaded from a strict JSON document as given: loops and parallel edges are
ordinary edges, and a loop counts twice toward the degree of its vertex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import GraphFormatError, GraphStructureError


@dataclass(frozen=True)
class Edge:
    """One metric edge, running from ``src`` (offset 0) to ``dst`` (offset ``length``)."""

    id: str
    src: str
    dst: str
    length: float


def _check_length(edge_id: str, length) -> None:
    """Reject an edge length that is not a positive finite float."""
    if not isinstance(length, float):
        raise GraphStructureError(f"edge {edge_id!r} length {length!r} is not a float")
    if not math.isfinite(length):
        raise GraphStructureError(f"edge {edge_id!r} has non-finite length {length!r}")
    if length <= 0:
        raise GraphStructureError(f"edge {edge_id!r} has nonpositive length {length!r}")


class MetricGraph:
    """Immutable metric graph with a path metric; loops and parallel edges allowed.

    Construct via :func:`load_graph`, from a document of your own or of
    :mod:`graphsl.families`.  Vertices and edge ids are strings.  Each
    vertex keeps only its degree, the count of edge ends at it, so a loop
    counts twice; ``boundary`` holds the degree-1 vertices.
    """

    def __init__(self, vertices, edges, root=None):
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = tuple(edges)
        self.root = root
        self._edge_by_id = {e.id: e for e in self.edges}
        if len(self._edge_by_id) != len(self.edges):
            raise GraphFormatError("duplicate edge id")
        degree = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            if e.src not in degree or e.dst not in degree:
                raise GraphFormatError(f"edge {e.id!r} references unknown vertex")
            _check_length(e.id, e.length)
            degree[e.src] += 1
            degree[e.dst] += 1
        self._degree = degree
        if root is not None and root not in degree:
            raise GraphFormatError(f"root {root!r} is not a vertex")
        if not self.edges:
            raise GraphStructureError("graph has no edges")
        self._check_connected()
        self.min_edge_length = min(e.length for e in self.edges)
        self.boundary = frozenset(v for v, k in degree.items() if k == 1)

    # -- structure ----------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphFormatError(f"unknown edge {edge_id!r}") from None

    def degree(self, vertex: str) -> int:
        return self._degree[vertex]

    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _lengths(self) -> csr_matrix:
        """Sparse weighted adjacency: one entry ``length`` at (src, dst) per vertex pair.

        Of parallel edges only the shortest is entered, since the matrix
        would add them; the kept entries stay in edge order.
        """
        n = len(self.vertices)
        idx = self._vertex_index
        src = np.array([idx[e.src] for e in self.edges])
        dst = np.array([idx[e.dst] for e in self.edges])
        length = np.array([e.length for e in self.edges])
        pair = np.minimum(src, dst) * n + np.maximum(src, dst)
        order = np.lexsort((length, pair))
        keep = np.sort(order[np.diff(pair[order], prepend=-1) != 0])
        return csr_matrix((length[keep], (src[keep], dst[keep])), shape=(n, n))

    def _check_connected(self) -> None:
        ncomp, labels = connected_components(self._lengths, directed=False)
        if ncomp > 1:
            comps: dict[int, list[str]] = {}
            for v, lab in zip(self.vertices, labels):
                comps.setdefault(int(lab), []).append(v)
            listing = "; ".join(",".join(vs) for vs in comps.values())
            raise GraphStructureError(f"graph is disconnected: components [{listing}]")

    # -- metric -------------------------------------------------------------

    def vertex_distances(self, v: str) -> dict[str, float]:
        """Path distance from ``v`` to every vertex.

        One single-source Dijkstra over the sparse adjacency, O(E log V) time
        and O(V) memory; no V×V distance matrix is built or kept.  Raises
        GraphFormatError for an unknown vertex.
        """
        if v not in self._vertex_index:
            raise GraphFormatError(f"unknown vertex {v!r}")
        row = dijkstra(self._lengths, directed=False, indices=self._vertex_index[v])
        return dict(zip(self.vertices, row.tolist()))


# --- loading -------------------------------------------------------------------

_EDGE_KEYS = {"id", "from", "to", "length"}


def _require_id(value, what: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GraphFormatError(f"{what} id must be a string or integer, got {value!r}")
    text = str(value)
    if not text:
        raise GraphFormatError(f"{what} id must be nonempty")
    return text


def load_graph(document) -> MetricGraph:
    """Load a metric graph from a JSON document (text, path contents, or dict).

    Schema::

        {"vertices": [id, ...],
         "edges": [{"id": id, "from": id, "to": id, "length": positive}, ...],
         "root": id}            # optional

    Ids are nonempty strings (integers are coerced).  Unknown keys are
    rejected.  Loops and parallel edges are kept as loaded, each one edge.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(document) - {"vertices", "edges", "root"}
    if unknown:
        raise GraphFormatError(f"unknown keys in graph document: {sorted(unknown)}")
    if "vertices" not in document or "edges" not in document:
        raise GraphFormatError("graph document needs 'vertices' and 'edges'")
    vertices = [_require_id(v, "vertex") for v in document["vertices"]]
    if len(set(vertices)) != len(vertices):
        raise GraphFormatError("duplicate vertex id")
    edges = []
    for entry in document["edges"]:
        if not isinstance(entry, dict):
            raise GraphFormatError("each edge must be an object")
        unknown = set(entry) - _EDGE_KEYS
        if unknown:
            raise GraphFormatError(f"unknown keys in edge entry: {sorted(unknown)}")
        missing = _EDGE_KEYS - set(entry)
        if missing:
            raise GraphFormatError(f"edge entry missing keys: {sorted(missing)}")
        eid = _require_id(entry["id"], "edge")
        src = _require_id(entry["from"], "edge endpoint")
        dst = _require_id(entry["to"], "edge endpoint")
        if isinstance(entry["length"], bool) or not isinstance(entry["length"], (int, float)):
            raise GraphFormatError(f"edge {eid!r} length must be a number")
        edges.append(Edge(eid, src, dst, float(entry["length"])))
    root = None
    if "root" in document and document["root"] is not None:
        root = _require_id(document["root"], "root")
    return MetricGraph(vertices, edges, root=root)


# --- exhaustions -------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustion:
    """Nested compact pieces of a graph around a root vertex, in memory linear in the edges.

    ``edges`` sorts every edge id by the root distance of its farther end,
    in graph order among equals.  Level n, ``edges[:cuts[n]]``, holds the
    edges whose endpoints both lie within path distance n of the root, so
    the levels nest.  ``halo_radius`` is the largest distance from the root
    to the nearer endpoint of an edge: every edge has an endpoint within
    distance ``n`` exactly when ``halo_radius <= n`` (to 1e-12, as the
    levels are cut).
    """

    root: str
    edges: tuple[str, ...]
    cuts: tuple[int, ...]
    halo_radius: float

    @property
    def max_level(self) -> int:
        return len(self.cuts) - 1

    def level(self, n: int) -> tuple[str, ...]:
        return self.edges[: self.cuts[n]]

    def annulus(self, n: int, N: int) -> tuple[str, ...]:
        """The edges of level N outside level n."""
        return self.edges[self.cuts[n] : self.cuts[N]]


def build_exhaustion(g: MetricGraph, root: str, max_level: int) -> Exhaustion:
    """Build distance-ball levels Gamma_0 .. Gamma_max_level around ``root``."""
    if root not in g._vertex_index:
        raise GraphFormatError(f"root {root!r} is not a vertex")
    if max_level < 0:
        raise GraphStructureError("max_level must be >= 0")
    dist = g.vertex_distances(root)
    ends = np.array([(dist[e.src], dist[e.dst]) for e in g.edges])
    # level n: the edges with both ends within n + 1e-12, a prefix of one sort by the farther end
    reach = ends.max(axis=1)
    order = np.argsort(reach, kind="stable")
    cuts = np.searchsorted(reach[order], np.arange(max_level + 1) + 1e-12, side="right")
    ids = tuple(g.edges[i].id for i in order)
    return Exhaustion(root, ids, tuple(cuts.tolist()), float(ends.min(axis=1).max()))
