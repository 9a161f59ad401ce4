import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import floyd_warshall

from oracles import dirichlet_vertices

from graphsl.errors import GraphFormatError, GraphStructureError
from graphsl.families import cycle, ladder, path, star, tree
from graphsl.fem import subgraph_vertices
from graphsl.graph import build_exhaustion, load_graph


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
    assert g.min_edge_length == 1.0
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


@pytest.mark.parametrize(
    "length, message",
    [
        (0.0, "nonpositive length 0.0"),
        (-2.0, "nonpositive length -2.0"),
        (math.inf, "non-finite length inf"),
        (math.nan, "non-finite length nan"),
    ],
    ids=["0.0", "-2.0", "inf", "nan"],
)
def test_bad_lengths_rejected(length, message):
    doc = interval_doc()
    doc["edges"][0]["length"] = length
    with pytest.raises((GraphStructureError, GraphFormatError), match=message):
        load_graph(doc)


def test_duplicate_ids_on_parallel_edges_rejected():
    # a parallel pair with one id is caught like any other duplicate
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "e", "from": "a", "to": "b", "length": 1.0},
            {"id": "e", "from": "b", "to": "a", "length": 1.0},
        ],
    }
    with pytest.raises(GraphFormatError, match="duplicate edge id"):
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


# --- loops and parallel edges --------------------------------------------------

# a loop of length 2 at "a" with a stick of length 1 to "b"
LOLLIPOP = {
    "vertices": ["a", "b"],
    "edges": [
        {"id": "loop", "from": "a", "to": "a", "length": 2.0},
        {"id": "stick", "from": "a", "to": "b", "length": 1.0},
    ],
    "root": "a",
}


def test_loop_is_one_edge_counted_twice_in_the_degree():
    g = load_graph(
        {"vertices": ["a"], "edges": [{"id": "loop", "from": "a", "to": "a", "length": 2.0}]}
    )
    assert [(e.id, e.length) for e in g.edges] == [("loop", 2.0)]
    assert g.degree("a") == 2
    assert sum(map(g.degree, g.vertices)) == 2 * len(g.edges)
    assert g.boundary == frozenset()


@pytest.mark.parametrize("reverse", [False, True], ids=["same-way", "opposite-ways"])
def test_parallel_edges_keep_the_shorter_distance(reverse):
    ends = ("b", "a") if reverse else ("a", "b")
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "p1", "from": "a", "to": "b", "length": 3.0},
            {"id": "p2", "from": ends[0], "to": ends[1], "length": 1.0},
        ],
    }
    g = load_graph(doc)
    assert sorted(e.id for e in g.edges) == ["p1", "p2"]
    assert g.degree("a") == g.degree("b") == 2
    assert g.vertex_distances("a") == {"a": 0.0, "b": 1.0}
    assert g.vertex_distances("b") == {"a": 1.0, "b": 0.0}


def test_colon_in_ids_accepted():
    doc = interval_doc()
    doc["edges"][0]["id"] = "e:1"
    assert load_graph(doc).edge("e:1").length == 1.0


def test_loop_at_the_root_lies_in_level_zero():
    ex = build_exhaustion(load_graph(LOLLIPOP), "a", 1)
    assert set(ex.level(0)) == {"loop"}
    assert ex.halo_radius == 0.0  # the stick's nearer end is the root
    assert set(ex.level(1)) == {"loop", "stick"}


def test_loop_matches_periodic_assembly():
    """Direct periodic FEM on a lollipop loop matches the loaded loop's solve.

    The loop (length 1) is discretized by hand with its two ends identified
    at the junction vertex; the stick carries Dirichlet data at the far
    end.  With h = 0.05 both mesh the same node set, so the two discrete
    problems are the same operator up to dof ordering.
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
    mesh = build_mesh(g, 0.05)
    assert dirichlet_vertices(g, mesh.edge_ids, True) == {"b"}
    lam_loop = smallest_eigenpair(assemble(mesh, field).restrict(mesh.edge_ids, host_boundary=True), tol=1e-10).value

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
    assert lam_loop == pytest.approx(lam_direct, abs=1e-10)


# --- metric -------------------------------------------------------------------


def test_distance_same_point_zero():
    g = load_graph(interval_doc())
    assert g.vertex_distances("a")["a"] == 0.0


def test_distance_two_edge_path():
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "e1", "from": "a", "to": "b", "length": 1.0},
            {"id": "e2", "from": "b", "to": "c", "length": 2.0},
        ],
    }
    g = load_graph(doc)
    assert g.vertex_distances("a") == {"a": 0.0, "b": 1.0, "c": 3.0}


def test_distance_cycle_opposite_vertices():
    g = load_graph(cycle(4))
    # v0 and v2 are opposite on the 4-cycle
    assert g.vertex_distances("v0")["v2"] == 2.0


def test_distance_off_graph_point():
    g = load_graph(interval_doc())
    with pytest.raises(GraphFormatError, match="unknown vertex 'nope'"):
        g.vertex_distances("nope")


def test_metric_axioms_random_points(rng):
    # random vertices of a graph with cycles and unequal lengths
    doc = ladder(4)
    for edge in doc["edges"]:
        edge["length"] = float(rng.uniform(0.5, 2.0))
    g = load_graph(doc)
    points = [g.vertices[k] for k in rng.integers(0, len(g.vertices), size=6)]
    d = {x: g.vertex_distances(x) for x in points}
    for x, y, z in itertools.combinations(points, 3):
        assert d[x][y] == pytest.approx(d[y][x], abs=1e-12)
        assert d[x][y] >= 0
        assert d[x][y] <= d[x][z] + d[z][y] + 1e-12


# --- exhaustions ----------------------------------------------------------------


def test_exhaustion_two_edge_path():
    g = load_graph(path(2))
    ex = build_exhaustion(g, "v00", 2)
    assert set(ex.level(1)) == {"e01"}
    assert ex.halo_radius == 1.0  # e02's nearer end is at distance 1


def test_exhaustion_level_zero_degenerate():
    g = load_graph(star(3))
    ex = build_exhaustion(g, "c", 1)
    assert set(ex.level(0)) == set()
    assert ex.halo_radius == 0.0  # every arm has the centre as an end


def test_exhaustion_binary_tree_level_two():
    g = load_graph(tree(3))
    ex = build_exhaustion(g, "n0", 3)
    assert len(ex.level(2)) == 6
    assert len(ex.level(3)) == len(g.edges)


@pytest.mark.parametrize("doc", [tree(3), ladder(4), cycle(7)], ids=["tree3", "ladder4", "cycle7"])
def test_exhaustion_nesting(doc):
    g = load_graph(doc)
    max_level = 4
    ex = build_exhaustion(g, g.root, max_level)
    for n in range(ex.max_level):
        assert set(ex.level(n)) <= set(ex.level(n + 1))
        assert set(ex.annulus(n, n + 1)) == set(ex.level(n + 1)) - set(ex.level(n))
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
        assert set(ex.level(n)) == {e.id for e, ins in zip(g.edges, inside) if all(ins)}
        # every edge has an endpoint within n exactly when the halo radius is at most n
        assert (ex.halo_radius <= n + 1e-12) == all(map(any, inside))
    assert ex.halo_radius == max(min(dist[idx[e.src]], dist[idx[e.dst]]) for e in g.edges)
    # one order for every level: by the farther end's distance, graph order among equals
    reach = [max(dist[idx[e.src]], dist[idx[e.dst]]) for e in g.edges]
    assert ex.edges == tuple(g.edges[k].id for k in sorted(range(len(g.edges)), key=reach.__getitem__))


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
    with pytest.raises(GraphFormatError, match="root 'ghost' is not a vertex"):
        build_exhaustion(g, "ghost", 1)


def test_level_vertices():
    g = load_graph(path(3))
    ex = build_exhaustion(g, "v00", 2)
    assert subgraph_vertices(g, ex.level(2)) == {"v00", "v01", "v02"}
