"""Metric graphs, the path metric, and nested exhaustions.

A metric graph is a combinatorial graph whose edges carry positive lengths;
points live either at vertices or at an offset along an edge.  Graphs are
loaded from a strict JSON document and normalized so that downstream code
only ever sees a simple graph: loops and parallel edges are split at
artificial midpoint vertices, which is spectrally neutral because a
degree-two vertex with natural (Kirchhoff) matching conditions is
indistinguishable from an interior point.
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

_ID_SEPARATOR = ":"  # reserved for synthetic vertex/edge ids


@dataclass(frozen=True)
class Edge:
    """One metric edge.

    ``origin``/``origin_offset`` track provenance through midpoint splitting:
    a point at offset ``s`` on this edge sits at ``origin_offset + s`` on the
    originally loaded edge ``origin``.  Unsplit edges have ``origin == id``
    and offset 0.
    """

    id: str
    src: str
    dst: str
    length: float
    origin: str
    origin_offset: float

    def other(self, vertex: str) -> str:
        return self.dst if vertex == self.src else self.src


class MetricGraph:
    """Immutable simple metric graph with a path metric.

    Construct via :func:`load_graph` (applies normalization) or from the
    generators in :mod:`graphsl.families`.  Vertices and edge ids are
    strings.
    """

    def __init__(self, vertices, edges, root=None, synthetic_vertices=()):
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = tuple(edges)
        self.root = root
        self.synthetic_vertices = frozenset(synthetic_vertices)
        self._edge_by_id = {e.id: e for e in self.edges}
        if len(self._edge_by_id) != len(self.edges):
            raise GraphFormatError("duplicate edge id")
        vset = set(self.vertices)
        adjacency: dict[str, list[str]] = {v: [] for v in self.vertices}
        seen_pairs = set()
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise GraphFormatError(f"edge {e.id!r} references unknown vertex")
            if not (isinstance(e.length, float) and math.isfinite(e.length) and e.length > 0):
                raise GraphStructureError(f"edge {e.id!r} has nonpositive length {e.length!r}")
            if e.src == e.dst:
                raise GraphStructureError(f"edge {e.id!r} is a loop; normalize before constructing")
            pair = frozenset((e.src, e.dst))
            if pair in seen_pairs:
                raise GraphStructureError(f"parallel edge {e.id!r}; normalize before constructing")
            seen_pairs.add(pair)
            adjacency[e.src].append(e.id)
            adjacency[e.dst].append(e.id)
        self.adjacency = {v: tuple(sorted(ids)) for v, ids in adjacency.items()}
        if root is not None and root not in vset:
            raise GraphFormatError(f"root {root!r} is not a vertex")
        if not self.edges:
            raise GraphStructureError("graph has no edges")
        self._check_connected()
        lengths = [e.length for e in self.edges]
        self.min_edge_length = min(lengths)
        self.max_edge_length = max(lengths)
        self.boundary = frozenset(v for v in self.vertices if len(self.adjacency[v]) == 1)

    # -- structure ----------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise GraphFormatError(f"unknown edge {edge_id!r}") from None

    def degree(self, vertex: str) -> int:
        return len(self.adjacency[vertex])

    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _lengths(self) -> csr_matrix:
        """Sparse weighted adjacency: one entry ``length`` per edge (src, dst)."""
        n = len(self.vertices)
        idx = self._vertex_index
        rows = [idx[e.src] for e in self.edges]
        cols = [idx[e.dst] for e in self.edges]
        data = [e.length for e in self.edges]
        return csr_matrix((data, (rows, cols)), shape=(n, n))

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
        and O(V) memory; no V×V distance matrix is built or kept.
        """
        row = dijkstra(self._lengths, directed=False, indices=self._vertex_index[v])
        return dict(zip(self.vertices, row.tolist()))

    def _as_point(self, point):
        if isinstance(point, str):
            if point not in self._vertex_index:
                raise GraphFormatError(f"unknown vertex {point!r}")
            return None, point, 0.0
        try:
            edge_id, offset = point
        except (TypeError, ValueError):
            raise GraphFormatError(f"point must be a vertex id or (edge, offset), got {point!r}")
        e = self.edge(edge_id)
        offset = float(offset)
        if not (-1e-12 <= offset <= e.length + 1e-12):
            raise GraphStructureError(
                f"offset {offset} outside edge {edge_id!r} of length {e.length}"
            )
        return e, min(max(offset, 0.0), e.length), 0.0

    def distance(self, x, y) -> float:
        """Path metric between two points (vertex id or (edge, offset))."""
        ex, vx, _ = self._as_point(x)
        ey, vy, _ = self._as_point(y)
        # map each point to candidate (vertex, tail) pairs
        if ex is None:
            cand_x = [(vx, 0.0)]
        else:
            sx = min(max(float(x[1]), 0.0), ex.length)
            cand_x = [(ex.src, sx), (ex.dst, ex.length - sx)]
        if ey is None:
            cand_y = [(vy, 0.0)]
        else:
            sy = min(max(float(y[1]), 0.0), ey.length)
            cand_y = [(ey.src, sy), (ey.dst, ey.length - sy)]
        idx = self._vertex_index
        rows = dijkstra(self._lengths, directed=False, indices=[idx[u] for u, _ in cand_x])
        best = math.inf
        for row, (_, tu) in zip(rows, cand_x):
            for v, tv in cand_y:
                best = min(best, tu + float(row[idx[v]]) + tv)
        if ex is not None and ey is not None and ex.id == ey.id:
            best = min(best, abs(float(x[1]) - float(y[1])))
        return best


# --- loading and normalization ----------------------------------------------

_EDGE_KEYS = {"id", "from", "to", "length"}


def _require_id(value, what: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GraphFormatError(f"{what} id must be a string or integer, got {value!r}")
    text = str(value)
    if not text:
        raise GraphFormatError(f"{what} id must be nonempty")
    if _ID_SEPARATOR in text:
        raise GraphFormatError(f"{what} id {text!r} uses reserved character {_ID_SEPARATOR!r}")
    return text


def load_graph(document) -> MetricGraph:
    """Load a metric graph from a JSON document (text, path contents, or dict).

    Schema::

        {"vertices": [id, ...],
         "edges": [{"id": id, "from": id, "to": id, "length": positive}, ...],
         "root": id}            # optional

    Ids are strings (integers are coerced); the character ``:`` is reserved
    for synthetic vertices created by normalization.  Unknown keys are
    rejected.  Loops and parallel edges are split at midpoints so that the
    returned graph is simple; split edges keep provenance in
    ``Edge.origin``/``Edge.origin_offset``.
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
        length = float(entry["length"])
        if not (math.isfinite(length) and length > 0):
            raise GraphStructureError(f"edge {eid!r} has nonpositive length {length}")
        edges.append(Edge(eid, src, dst, length, eid, 0.0))
    root = None
    if "root" in document and document["root"] is not None:
        root = _require_id(document["root"], "root")
        if root not in set(vertices):
            raise GraphFormatError(f"root {root!r} is not a vertex")
    vertices, edges, synthetic = _normalize(vertices, edges)
    return MetricGraph(vertices, edges, root=root, synthetic_vertices=synthetic)


def _split(edge: Edge) -> tuple[str, Edge, Edge]:
    """Split an edge at its midpoint; halves keep the original orientation."""
    mid = f"{edge.id}{_ID_SEPARATOR}m"
    half = edge.length / 2.0
    first = Edge(f"{edge.id}{_ID_SEPARATOR}a", edge.src, mid, half, edge.origin, edge.origin_offset)
    second = Edge(
        f"{edge.id}{_ID_SEPARATOR}b", mid, edge.dst, half, edge.origin, edge.origin_offset + half
    )
    return mid, first, second


def _normalize(vertices, edges):
    """Split loops and parallel edges until the graph is simple."""
    vertices = list(vertices)
    synthetic = set()
    # loops first: each loop becomes two parallel halves handled below
    out = []
    for e in edges:
        if e.src == e.dst:
            mid, first, second = _split(e)
            vertices.append(mid)
            synthetic.add(mid)
            out.extend([first, second])
        else:
            out.append(e)
    # parallel classes: keep the lexicographically first edge, split the rest;
    # fresh midpoints make the new pairs unique, so one pass suffices
    while True:
        groups: dict[frozenset, list[Edge]] = {}
        for e in out:
            groups.setdefault(frozenset((e.src, e.dst)), []).append(e)
        offenders = [g for g in groups.values() if len(g) > 1]
        if not offenders:
            break
        result = []
        to_split = set()
        for group in offenders:
            group.sort(key=lambda e: e.id)
            to_split.update(e.id for e in group[1:])
        for e in out:
            if e.id in to_split:
                mid, first, second = _split(e)
                vertices.append(mid)
                synthetic.add(mid)
                result.extend([first, second])
            else:
                result.append(e)
        out = result
    return vertices, out, synthetic


def original_edges(g: MetricGraph) -> list[tuple[str, str, str, float]]:
    """Reconstruct the pre-normalization edge list from provenance.

    Returns tuples (id, from, to, length) with synthetic midpoints removed;
    useful for reporting and for checking that splitting is reversible.
    """
    chains: dict[str, list[Edge]] = {}
    for e in g.edges:
        chains.setdefault(e.origin, []).append(e)
    restored = []
    for origin, parts in chains.items():
        parts.sort(key=lambda e: e.origin_offset)
        restored.append((origin, parts[0].src, parts[-1].dst, sum(p.length for p in parts)))
    restored.sort(key=lambda item: item[0])
    return restored


# --- exhaustions -------------------------------------------------------------


@dataclass(frozen=True)
class Exhaustion:
    """Nested compact pieces of a graph around a root vertex.

    ``levels[n]`` holds the ids of edges whose endpoints both lie within
    path distance ``n`` of the root; ``haloes[n]`` additionally holds edges
    with exactly one endpoint within distance ``n``.
    """

    graph: MetricGraph
    root: str
    levels: tuple[frozenset, ...]
    haloes: tuple[frozenset, ...]

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1


def build_exhaustion(g: MetricGraph, root: str, max_level: int) -> Exhaustion:
    """Build distance-ball levels Gamma_0 .. Gamma_max_level around ``root``."""
    if root not in set(g.vertices):
        raise GraphFormatError(f"root {root!r} is not a vertex")
    if max_level < 0:
        raise GraphStructureError("max_level must be >= 0")
    dist = g.vertex_distances(root)
    ends = np.array([(dist[e.src], dist[e.dst]) for e in g.edges])
    bounds = np.arange(max_level + 1) + 1e-12

    def balls(reach: np.ndarray) -> tuple[frozenset, ...]:
        # edges with reach <= n + 1e-12, as prefixes of one sort by reach
        order = np.argsort(reach, kind="stable")
        ids = [g.edges[i].id for i in order]
        cuts = np.searchsorted(reach[order], bounds, side="right")
        return tuple(frozenset(ids[:k]) for k in cuts)

    # level n: both endpoints within n of the root; halo n: at least one
    ex = Exhaustion(g, root, balls(ends.max(axis=1)), balls(ends.min(axis=1)))
    for n in range(max_level):
        if not ex.levels[n] <= ex.levels[n + 1]:
            raise GraphStructureError("exhaustion levels failed to nest")
    return ex
