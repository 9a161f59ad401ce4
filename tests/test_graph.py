import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from graphsl.errors import GraphFormatError, GraphStructureError
from graphsl.families import cycle, ladder, path, star, tree
from graphsl.graph import build_exhaustion, load_graph, original_edges
from graphsl.spectral import subgraph_vertices


def interval_doc():
    return {
        "vertices": ["a", "b"],
        "edges": [{"id": "e1", "from": "a", "to": "b", "length": 1.0}],
        "root": "a",
    }


# --- loading and validation ---------------------------------------------------


def test_single_edge():
    g = load_graph(interval_doc())
    assert g.boundary == {"a", "b"}
    assert g.min_edge_length == g.max_edge_length == 1.0
    assert g.degree("a") == 1


def test_star_degrees():
    g = load_graph(star(3))
    assert g.degree("c") == 3
    assert g.boundary == {"l1", "l2", "l3"}


def test_integer_ids_coerced():
    doc = {
        "vertices": [1, 2],
        "edges": [{"id": 10, "from": 1, "to": 2, "length": 1.0}],
    }
    g = load_graph(doc)
    assert set(g.vertices) == {"1", "2"}
    assert g.edge("10").length == 1.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["edges"][0].update(color="red"),
        lambda d: d["edges"][0].pop("length"),
        lambda d: d.pop("vertices"),
        lambda d: d.update(root="zzz"),
        lambda d: d["vertices"].append("a"),
    ],
)
def test_malformed_documents_rejected(mutate):
    doc = interval_doc()
    mutate(doc)
    with pytest.raises(GraphFormatError):
        load_graph(doc)


def test_reserved_id_character_rejected():
    doc = interval_doc()
    doc["edges"][0]["id"] = "e:1"
    with pytest.raises(GraphFormatError):
        load_graph(doc)


@pytest.mark.parametrize("length", [0.0, -2.0, math.inf, math.nan])
def test_bad_lengths_rejected(length):
    doc = interval_doc()
    doc["edges"][0]["length"] = length
    with pytest.raises((GraphStructureError, GraphFormatError)):
        load_graph(doc)


def test_unknown_endpoint_rejected():
    doc = interval_doc()
    doc["edges"][0]["to"] = "ghost"
    with pytest.raises(GraphFormatError):
        load_graph(doc)


def test_duplicate_edge_id_rejected():
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "e", "from": "a", "to": "b", "length": 1.0},
            {"id": "e", "from": "b", "to": "c", "length": 1.0},
        ],
    }
    with pytest.raises(GraphFormatError):
        load_graph(doc)


def test_disconnected_error_lists_components():
    doc = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"id": "e1", "from": "a", "to": "b", "length": 1.0},
            {"id": "e2", "from": "c", "to": "d", "length": 1.0},
        ],
    }
    with pytest.raises(GraphStructureError) as err:
        load_graph(doc)
    message = str(err.value)
    assert "a" in message and "c" in message


# --- normalization of loops and parallel edges ---------------------------------


def test_loop_split_into_three_edges():
    doc = {
        "vertices": ["a"],
        "edges": [{"id": "loop", "from": "a", "to": "a", "length": 2.0}],
        "root": "a",
    }
    g = load_graph(doc)
    # midpoint split produces two parallel halves; the second half is split
    # again, so the loop ends up as three edges of lengths 1, 1/2, 1/2
    assert sorted(e.length for e in g.edges) == [0.5, 0.5, 1.0]
    assert all(e.origin == "loop" for e in g.edges)
    assert len(g.synthetic_vertices) == 2


def test_parallel_edges_split():
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "p1", "from": "a", "to": "b", "length": 1.0},
            {"id": "p2", "from": "a", "to": "b", "length": 2.0},
        ],
    }
    g = load_graph(doc)
    ids = sorted(e.id for e in g.edges)
    assert ids == ["p1", "p2:a", "p2:b"]
    assert g.edge("p2:a").length == 1.0


def test_original_edges_reconstruction():
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "loop", "from": "a", "to": "a", "length": 2.0},
            {"id": "p1", "from": "a", "to": "b", "length": 1.0},
            {"id": "p2", "from": "a", "to": "b", "length": 3.0},
        ],
    }
    g = load_graph(doc)
    restored = original_edges(g)
    assert restored == [
        ("loop", "a", "a", 2.0),
        ("p1", "a", "b", 1.0),
        ("p2", "a", "b", 3.0),
    ]


def test_loop_split_is_spectrally_neutral():
    """Direct periodic FEM on a lollipop loop matches the split-graph solve.

    The loop (length 1) is discretized by hand with its two ends identified
    at the junction vertex; the stick carries Dirichlet data at the far
    end.  With h = 0.05 the split graph meshes the same node set, so the
    two discrete problems are the same operator up to dof ordering.
    """
    from graphsl.coeff import load_coefficients
    from graphsl.eig import smallest_eigenpair, solve_pencil
    from graphsl.fem import assemble, build_mesh
    import scipy.sparse as sp

    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "loop", "from": "a", "to": "a", "length": 1.0},
            {"id": "stick", "from": "a", "to": "b", "length": 1.0},
        ],
        "root": "a",
    }
    g = load_graph(doc)
    field = load_coefficients({}, g)
    mesh = build_mesh(g, 0.05, dirichlet_vertices=frozenset({"b"}))
    lam_split = smallest_eigenpair(assemble(mesh, field), tol=1e-10).value

    # hand assembly: loop nodes 0..19 cyclic (node 0 = vertex a), stick
    # nodes 1..19 interior (node 20 = vertex b eliminated by Dirichlet)
    m = 20
    h = 1.0 / m
    n = m + (m - 1)
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    loop_ids = list(range(m))
    for c in range(m):
        i, j = loop_ids[c], loop_ids[(c + 1) % m]
        K[np.ix_([i, j], [i, j])] += np.array([[1, -1], [-1, 1]]) / h
        M[np.ix_([i, j], [i, j])] += np.array([[2, 1], [1, 2]]) * h / 6
    stick_ids = [0] + list(range(m, n)) + [-1]
    for c in range(m):
        i, j = stick_ids[c], stick_ids[c + 1]
        block = [(a, b) for a in (0, 1) for b in (0, 1)]
        for a, b in block:
            ii, jj = (i, j)[a], (i, j)[b]
            if ii < 0 or jj < 0:
                continue
            K[ii, jj] += (1.0 if a == b else -1.0) / h
            M[ii, jj] += (2.0 if a == b else 1.0) * h / 6
    lam_direct = solve_pencil(sp.csr_matrix(K), sp.csr_matrix(M), tol=1e-10).value
    assert lam_split == pytest.approx(lam_direct, abs=1e-10)


# --- metric -------------------------------------------------------------------


def test_distance_same_point_zero():
    g = load_graph(interval_doc())
    assert g.distance("a", "a") == 0.0
    assert g.distance(("e1", 0.4), ("e1", 0.4)) == 0.0


def test_distance_two_edge_path():
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "e1", "from": "a", "to": "b", "length": 1.0},
            {"id": "e2", "from": "b", "to": "c", "length": 2.0},
        ],
    }
    g = load_graph(doc)
    assert g.distance("a", "c") == 3.0


def test_distance_cycle_opposite_vertices():
    g = load_graph(cycle(4))
    # v0 and v2 are opposite on the 4-cycle
    assert g.distance("v0", "v2") == 2.0


def test_distance_within_edge():
    g = load_graph(interval_doc())
    assert g.distance(("e1", 0.3), ("e1", 0.7)) == pytest.approx(0.4)
    assert g.distance("a", ("e1", 0.25)) == pytest.approx(0.25)


def test_distance_off_graph_point():
    g = load_graph(interval_doc())
    with pytest.raises(GraphFormatError):
        g.distance("nope", "a")
    with pytest.raises(GraphStructureError):
        g.distance(("e1", 5.0), "a")


def test_metric_axioms_random_points(rng):
    g = load_graph(tree(3))
    edges = [e.id for e in g.edges]
    points = [
        (edges[int(rng.integers(0, len(edges)))], float(rng.uniform(0, 1)))
        for _ in range(12)
    ]
    for x, y, z in itertools.combinations(points, 3):
        dxy = g.distance(x, y)
        assert dxy == pytest.approx(g.distance(y, x), abs=1e-12)
        assert dxy >= 0
        assert dxy <= g.distance(x, z) + g.distance(z, y) + 1e-12


# --- exhaustions ----------------------------------------------------------------


def test_exhaustion_two_edge_path():
    g = load_graph(path(2))
    ex = build_exhaustion(g, "v00", 2)
    assert ex.levels[1] == {"e01"}
    assert ex.haloes[1] == {"e01", "e02"}


def test_exhaustion_level_zero_degenerate():
    g = load_graph(star(3))
    ex = build_exhaustion(g, "c", 1)
    assert ex.levels[0] == frozenset()
    assert ex.haloes[0] == {"a1", "a2", "a3"}


def test_exhaustion_binary_tree_level_two():
    g = load_graph(tree(3))
    ex = build_exhaustion(g, "n0", 3)
    assert len(ex.levels[2]) == 6
    assert len(ex.levels[3]) == len(g.edges)


@pytest.mark.parametrize("doc", [tree(3), ladder(4), cycle(7)], ids=["tree3", "ladder4", "cycle7"])
def test_exhaustion_nesting(doc):
    g = load_graph(doc)
    max_level = 4
    ex = build_exhaustion(g, g.root, max_level)
    for n in range(ex.max_level):
        assert ex.levels[n] <= ex.levels[n + 1]
        assert ex.levels[n] <= ex.haloes[n]
        assert not ex.levels[n] & (ex.haloes[n] - ex.levels[n])
    # all-pairs reference; unit lengths put vertices exactly on level boundaries
    n_v = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = np.zeros((n_v, n_v))
    for e in g.edges:
        adj[idx[e.src], idx[e.dst]] = e.length
    dist = floyd_warshall(adj, directed=False)[idx[g.root]]
    for n in range(max_level + 1):
        inside = [
            (dist[idx[e.src]] <= n + 1e-12, dist[idx[e.dst]] <= n + 1e-12) for e in g.edges
        ]
        assert ex.levels[n] == {e.id for e, ins in zip(g.edges, inside) if all(ins)}
        assert ex.haloes[n] == {e.id for e, ins in zip(g.edges, inside) if any(ins)}


def test_exhaustion_memory_is_linear_in_edges():
    g = load_graph(tree(11))
    tracemalloc.start()
    try:
        build_exhaustion(g, g.root, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2048 * len(g.edges)


def test_exhaustion_unknown_root():
    g = load_graph(path(2))
    with pytest.raises(GraphFormatError):
        build_exhaustion(g, "ghost", 1)


def test_level_vertices():
    g = load_graph(path(3))
    ex = build_exhaustion(g, "v00", 2)
    assert subgraph_vertices(g, ex.levels[2]) == {"v00", "v01", "v02"}
