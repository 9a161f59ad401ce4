import math
import tracemalloc

import numpy as np
import pytest

from oracles import dirichlet_vertices, mesh_samples

from graphsl import _kernels
from graphsl.coeff import CoefficientField, load_coefficients, validate_hypotheses
from graphsl.eig import Pencil, dense_reference, smallest_eigenpair
from graphsl.errors import CoefficientError, MeshError
from graphsl.families import cycle, ladder, path, star, tree
from graphsl.fem import (
    assemble,
    build_mesh,
    kirchhoff_residual,
)
from graphsl.graph import build_exhaustion, load_graph


def unit_interval():
    return load_graph(
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "e1", "from": "a", "to": "b", "length": 1.0}],
            "root": "a",
        }
    )


# --- meshing --------------------------------------------------------------------


def dirichlet_whole(g, h, doc=None):
    """The forms of the free mesh of ``g`` and its Dirichlet pencil, cut at the leaves."""
    forms = assemble(build_mesh(g, h), load_coefficients(doc or {}, g))
    return forms, forms.restrict(forms.mesh.edge_ids, host_boundary=True)


def test_unit_edge_half_h_dirichlet_one_dof():
    g = unit_interval()
    mesh = build_mesh(g, 0.5)
    assert mesh.n_free == 3
    assert mesh.free_dofs(mesh.edge_ids, host_boundary=True).tolist() == [mesh.n_free - 1]


def test_star_half_h_dirichlet_four_dofs():
    g = load_graph(star(3))
    mesh = build_mesh(g, 0.5)
    assert mesh.n_free == 7
    kept = mesh.free_dofs(mesh.edge_ids, host_boundary=True)
    assert len(kept) == 4  # center + one midpoint per arm
    assert mesh.vertex_dof["c"] in kept


def test_free_two_edge_path_seven_dofs():
    g = load_graph(path(2))
    mesh = build_mesh(g, 1.0 / 3.0)
    assert mesh.n_free == 7  # 6 cells + 1


def test_cell_sizes_at_most_h():
    g = load_graph(
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "e1", "from": "a", "to": "b", "length": 0.7}],
        }
    )
    mesh = build_mesh(g, 0.2)
    offs = mesh.x[mesh.start[0] : mesh.start[1]]
    assert np.max(np.diff(offs)) <= 0.2 + 1e-12


def assert_dof_layout(mesh):
    """Vertices take dofs 0.. in sorted order, interior nodes follow in node order."""
    assert mesh.dof.min() >= 0
    free = sorted(mesh.vertex_dof)
    assert [mesh.vertex_dof[v] for v in free] == list(range(len(free)))
    first, last = mesh.start[:-1], mesh.start[1:] - 1
    interior = np.ones(len(mesh.x), dtype=bool)
    interior[first] = False
    interior[last] = False
    assert np.array_equal(mesh.dof[interior], np.arange(len(free), mesh.n_free))
    assert list(mesh.edge_ids) == sorted(mesh.edge_ids)
    for k, eid in enumerate(mesh.edge_ids):
        e = mesh.graph.edge(eid)
        assert mesh.dof[first[k]] == mesh.vertex_dof[e.src]
        assert mesh.dof[last[k]] == mesh.vertex_dof[e.dst]
        offsets = mesh.x[first[k] : last[k] + 1]
        assert np.array_equal(offsets, np.linspace(0.0, e.length, len(offsets)))


def test_dof_layout_after_build_and_restrict():
    g = load_graph(tree(3))
    ex = build_exhaustion(g, "n0", 3)
    whole = build_mesh(g, 0.15, edges=ex.level(3))
    assert_dof_layout(whole)
    level = ex.level(2)
    boundary = dirichlet_vertices(g, level, True)
    assert boundary
    direct = build_mesh(g, 0.15, edges=level)
    assert_dof_layout(direct)
    # the level's own mesh with its Dirichlet vertices' dofs removed
    direct_kept = np.setdiff1d(np.arange(direct.n_free), [direct.vertex_dof[v] for v in boundary])
    direct_renumber = np.full(direct.n_free, -1)
    direct_renumber[direct_kept] = np.arange(len(direct_kept))
    # a piece keeps the whole mesh's dofs, numbered as the direct elimination numbers them
    kept = whole.free_dofs(level, host_boundary=True)
    renumber = np.full(whole.n_free, -1)
    renumber[kept] = np.arange(len(kept))
    on_level = np.repeat([eid in level for eid in whole.edge_ids], np.diff(whole.start))
    assert np.array_equal(renumber[whole.dof[on_level]], direct_renumber[direct.dof])


def test_mesh_memory_is_linear_in_edges():
    # build_mesh plus the free dofs of the whole graph peak near 300 bytes per edge
    # at two cells per edge; a dict entry or a Python object per edge or per
    # node costs on the order of 100 bytes each and breaks the bound
    for doc in (tree(14), path(20000)):
        g = load_graph(doc)
        tracemalloc.start()
        try:
            mesh = build_mesh(g, 0.5)
            mesh.free_dofs(mesh.edge_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(g.edges) < 600


def test_graph_memory_is_linear_in_edges():
    # loading peaks near 350 bytes per edge (the edges, a degree per vertex
    # and the sparse length matrix); a tuple of edge ids kept per vertex
    # adds over 150 more and breaks the bound
    for doc in (tree(14), path(20000)):
        tracemalloc.start()
        try:
            g = load_graph(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(g.edges) < 500


def test_exhaustion_and_validation_memory_is_linear_in_edges():
    # every solving command builds the exhaustion to full radius and searches
    # it for a compact; on a path that peaks near 250 bytes per edge, while a
    # set of edge ids kept per level grows with the square of the radius
    # (about 29 and 75 KB per edge here) and breaks the bound
    for n in (1000, 2000):
        g = load_graph(path(n))
        field = load_coefficients({}, g)
        tracemalloc.start()
        try:
            validate_hypotheses(g, field, exhaustion=build_exhaustion(g, g.root, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(g.edges) < 1000


def test_bad_h_rejected():
    g = unit_interval()
    with pytest.raises(MeshError):
        build_mesh(g, 0.0)
    with pytest.raises(MeshError):
        build_mesh(g, -1.0)


def test_empty_selection_rejected():
    g = unit_interval()
    with pytest.raises(MeshError):
        build_mesh(g, 0.1, edges=[])


# --- assembly against hand-computed elements --------------------------------------


def cell_moments(mesh, field):
    """``_kernels.accumulate`` over every cell of ``mesh``: the seven moments assembly reads."""
    cells = np.diff(mesh.start) - 1
    left = np.setdiff1d(np.arange(mesh.start[-1]), mesh.start[1:] - 1)  # every node but an edge's last
    edge = np.repeat(np.arange(len(cells)), cells)
    return _kernels.accumulate(field, mesh.edge_ids, edge, mesh.x[left], mesh.x[left + 1])


def test_interval_third_h_interior_matrices():
    """p=w=1, q=0, h=1/3, Dirichlet ends: classical tridiagonal blocks."""
    g = unit_interval()
    field = load_coefficients({}, g)
    mesh = build_mesh(g, 1.0 / 3.0)
    piece = assemble(mesh, field).restrict(mesh.edge_ids, host_boundary=True)
    K = piece.K.toarray()
    M = piece.M.toarray()
    np.testing.assert_allclose(K, [[6.0, -3.0], [-3.0, 6.0]], atol=1e-13)
    np.testing.assert_allclose(M, [[2 / 9, 1 / 18], [1 / 18, 2 / 9]], atol=1e-15)
    # the potential's cell moments, which K adds to the stiffness, are exact zeros
    _, q00, q01, q11, *_ = cell_moments(mesh, field)
    assert np.all(np.concatenate((q00, q01, q11)) == 0.0)


def test_constant_q_matches_scaled_mass():
    # compared on the cell moments: K - K_p would add eps/h^2 rounding
    g = load_graph(path(2))
    _, *qm, m00, m01, m11 = cell_moments(build_mesh(g, 0.2), load_coefficients({"default": {"q": 3.0}}, g))
    np.testing.assert_allclose(np.array(qm), 3.0 * np.array([m00, m01, m11]), rtol=1e-14, atol=1e-16)


def test_star_center_row():
    g = load_graph(star(3))
    forms, piece = dirichlet_whole(g, 0.5)
    K = piece.K.toarray()
    mesh = forms.mesh
    c = int(np.searchsorted(mesh.free_dofs(mesh.edge_ids, host_boundary=True), mesh.vertex_dof["c"]))
    assert K[c, c] == pytest.approx(6.0)
    off = sorted(K[c, j] for j in range(piece.n) if j != c)
    assert off == pytest.approx([-2.0, -2.0, -2.0])


def test_matrices_bitwise_symmetric():
    g = load_graph(star(4))
    doc = {"default": {"p": {"expr": "1+0.3*sin(2*x)"}, "q": {"piecewise": [[0, -1], [0.3, 2]]}}}
    mesh = build_mesh(g, 0.13)
    forms = assemble(mesh, load_coefficients(doc, g))
    for mat in (forms.K, forms.M):
        a = mat.tocsr()
        a.sort_indices()
        b = mat.T.tocsr()
        b.sort_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)


def test_constant_kernel_of_stiffness():
    g = load_graph(star(3))
    mesh = build_mesh(g, 0.1)
    forms = assemble(mesh, load_coefficients({}, g))
    ones = np.ones(mesh.n_free)
    resid = np.abs(forms.K @ ones).max()  # q = 0, so K is the stiffness alone
    scale = np.abs(forms.K.data).max()
    assert resid <= 1e-12 * scale


def test_mass_positive_definite():
    g = load_graph(path(2))
    mesh = build_mesh(g, 0.25)
    forms = assemble(mesh, load_coefficients({"default": {"w": 0.7}}, g))
    eigs = np.linalg.eigvalsh(forms.M.toarray())
    assert eigs.min() > 0


def test_nonpositive_w_raises():
    g = unit_interval()
    mesh = build_mesh(g, 0.25)
    with pytest.raises(CoefficientError):
        assemble(mesh, load_coefficients({"e1": {"w": -1.0}}, g))
    with pytest.raises(CoefficientError):
        assemble(mesh, load_coefficients({"e1": {"p": 0.0}}, g))


# a loop and a pair of parallel edges, each one edge with its own tables
LOOP_AND_PAIR = {
    "vertices": ["a", "b"],
    "edges": [
        {"id": "loop", "from": "a", "to": "a", "length": 1.3},
        {"id": "s1", "from": "a", "to": "b", "length": 1.0},
        {"id": "s2", "from": "a", "to": "b", "length": 1.2},
    ],
    "root": "a",
}


def form_value(mesh, field, f):
    """Direct quadrature of the form integral p|f'|^2 + q|f|^2 for nodal f.

    Independent of the assembled matrices; cross-checks that x^T K x
    reproduces the quadrature value of the form.
    """
    s = mesh_samples(mesh, field)
    value, slope = s.p1(f)
    return float(np.dot(s.wq, s.p * slope**2 + s.q * value**2))


def mass_value(mesh, field, f):
    """Direct quadrature of integral w |f|^2 for a nodal vector."""
    s = mesh_samples(mesh, field)
    value, _ = s.p1(f)
    return float(np.dot(s.wq, s.w * value**2))


def graph_integral(field, name):
    """Integral of the field ``name`` over the graph: 40-point Gauss-Legendre between its breakpoints.

    Every field in these tests is a constant, a table or an analytic
    expression, so each smooth piece integrates to rounding.
    """
    t, wt = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for e in field.graph.edges:
        cuts = [0.0, *field.breakpoints(e.id), e.length]
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += 0.5 * (b - a) * wt @ field.evaluate(e.id, name, 0.5 * (a + b) + 0.5 * (b - a) * t)
    return total


@pytest.mark.parametrize(
    "doc, coeffs",
    [
        (star(3), {"default": {"p": 2.0, "q": {"expr": "cos(3*x)"}, "w": {"expr": "1+x"}}}),
        (star(3), {"default": {"p": {"expr": "1+0.3*x"}, "q": {"piecewise": [[0.0, -1.0], [0.43, 2.5]]}}}),
        (
            LOOP_AND_PAIR,
            {
                "loop": {"p": {"piecewise": [[0.0, 1.0], [0.37, 2.0], [0.9, 1.5]]}},
                "s2": {"q": {"piecewise": [[0.0, -1.0], [0.55, 0.5]]}},
                "default": {"w": {"expr": "1+0.2*cos(x)"}},
            },
        ),
    ],
    ids=["expression", "piecewise-q", "split-edges"],
)
def test_form_value_matches_matrix_quadratic_form(rng, doc, coeffs):
    g = load_graph(doc)
    field = load_coefficients(coeffs, g)
    mesh = build_mesh(g, 0.1)
    forms = assemble(mesh, field)
    f = rng.normal(size=mesh.n_free)
    quad = form_value(mesh, field, f)
    matrix = f @ (forms.K @ f)
    assert quad == pytest.approx(matrix, rel=1e-12, abs=1e-12)
    assert mass_value(mesh, field, f) == pytest.approx(f @ (forms.M @ f), rel=1e-12)
    # the constant function integrates q and w exactly across the breakpoints
    ones = np.ones(mesh.n_free)
    for value, which in ((form_value, "q"), (mass_value, "w")):
        assert value(mesh, field, ones) == pytest.approx(graph_integral(field, which), rel=1e-12, abs=1e-12)


def test_assemble_evaluates_each_distinct_spec_once(monkeypatch):
    """Edges that share an expression are sampled in one call; constants and tables never are."""
    g = load_graph(tree(3))
    field = load_coefficients({"default": {"q": {"expr": "-1+0.3*sin(2*x)"}}, "t003": {"p": 2.0}}, g)
    mesh = build_mesh(g, 0.1)
    calls = []
    evaluate = CoefficientField.evaluate

    def counting(self, edge_id, name, x):
        calls.append(name)
        return evaluate(self, edge_id, name, x)

    monkeypatch.setattr(CoefficientField, "evaluate", counting)
    assemble(mesh, field)
    # p (the t003 entry and the built-in) and w (built-in) are constants; q is one expression
    assert calls == ["q"]


def test_domain_monotonicity_under_constraints():
    """A smaller form domain never lowers the smallest eigenvalue.

    The pieces' domains are nested: the free path, the path Dirichlet at
    its ends, the piece cut at the interior vertex v01, and that piece
    cut again at v02.
    """
    g = load_graph(path(3))
    forms = assemble(build_mesh(g, 0.1), load_coefficients({}, g))
    values = []
    for edges, host in [({"e01", "e02", "e03"}, False), ({"e01", "e02", "e03"}, True),
                        ({"e02", "e03"}, True), ({"e03"}, True)]:
        values.append(smallest_eigenpair(forms.restrict(edges, host_boundary=host), tol=1e-9).value)
    assert dirichlet_vertices(g, {"e02", "e03"}, True) == {"v01", "v03"}
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def test_q_shift_is_exact():
    g = load_graph(star(3))
    _, base = dirichlet_whole(g, 0.2)
    _, shifted = dirichlet_whole(g, 0.2, {"default": {"q": 4.0}})
    a = smallest_eigenpair(base, tol=1e-10).value
    b = smallest_eigenpair(shifted, tol=1e-10).value
    assert b - a == pytest.approx(4.0, abs=1e-12 * max(1, abs(a)))


def test_coefficient_scaling_is_exact():
    g = load_graph(star(3))
    _, base = dirichlet_whole(g, 0.2, {"default": {"q": -1.0}})
    _, scaled = dirichlet_whole(g, 0.2, {"default": {"p": 0.3, "q": -0.3, "w": 0.3}})
    a = smallest_eigenpair(base, tol=1e-10).value
    b = smallest_eigenpair(scaled, tol=1e-10).value
    assert b == pytest.approx(a, rel=1e-12)


# --- one pattern ------------------------------------------------------------------


PATTERN_CASES = {
    "tree3": (tree(3), {"default": {"p": {"piecewise": [[0.0, 1.0], [0.4, 2.5]]}, "q": {"expr": "-0.5+0.3*sin(3*x)"}}}),
    "ladder3": (ladder(3), {}),
    "star12": (star(12), {"default": {"q": {"piecewise": [[0.0, -1.0], [0.3, 2.0]]}}}),
}


@pytest.mark.parametrize("case", sorted(PATTERN_CASES))
def test_one_pattern_scatter_equals_scipy_coo_conversion(monkeypatch, case):
    """bincount on the one pattern gives scipy's COO to CSR arrays, bit for bit.

    M is the mass's conversion; K has the same pattern, and its values are
    the stiffness's plus the potential's, added once on that pattern.
    """
    from scipy.sparse import coo_matrix

    from graphsl import _kernels

    doc, coeffs = PATTERN_CASES[case]
    g = load_graph(doc)
    scattered = []
    real = _kernels.triplets

    def spy(*args):
        scattered.append(real(*args))
        return scattered[-1]

    monkeypatch.setattr(_kernels, "triplets", spy)
    forms = assemble(build_mesh(g, 0.09), load_coefficients(coeffs, g))
    (rows, cols, *values), = scattered
    if case == "star12":
        assert np.bincount(rows).max() == 24   # the center row: 12 arms, 2 entries per end cell
    n = forms.M.shape[0]
    stiffness, potential, mass = (coo_matrix((v, (rows, cols)), shape=(n, n)).tocsr() for v in values)
    for want in (stiffness, potential, mass):
        want.sum_duplicates()
        for got in (forms.K, forms.M):
            for part in ("indices", "indptr"):
                x, y = getattr(got, part), getattr(want, part)
                assert x.dtype == y.dtype and np.array_equal(x, y), part
    for got, want in ((forms.K.data, stiffness.data + potential.data), (forms.M.data, mass.data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # K and M share the one pattern's arrays
    assert np.shares_memory(forms.K.indices, forms.M.indices) and np.shares_memory(forms.K.indptr, forms.M.indptr)


def test_exact_cancellation_keeps_the_pencil_on_one_pattern(monkeypatch):
    """K_p + K_q cancels to exact zeros off the diagonal, and K keeps them as entries."""
    import graphsl.eig as eig

    g = load_graph(path(1))
    forms = assemble(build_mesh(g, 0.2), load_coefficients({"default": {"q": 149.99999999999997}}, g))
    K, M = forms.K, forms.M
    assert np.count_nonzero(K.data == 0.0) == 4
    assert np.array_equal(K.indices, M.indices) and np.array_equal(K.indptr, M.indptr)

    def refuse(K, M):
        raise AssertionError("assembled forms reached the pattern union")

    monkeypatch.setattr(eig, "_on_union", refuse)
    pencil = Pencil(K, M)
    assert pencil.K.nnz == M.nnz
    solved = smallest_eigenpair(pencil, tol=1e-10)
    assert solved.value == pytest.approx(dense_reference(pencil)[0], rel=1e-10)


# --- restriction ------------------------------------------------------------------


def eliminated(g, h, field, edges, vertices):
    """The piece ``edges`` assembled on its own mesh, with the rows and columns of ``vertices`` removed."""
    forms = assemble(build_mesh(g, h, edges=edges), field)
    mesh = forms.mesh
    assert mesh.dof.min() >= 0
    kept = np.setdiff1d(np.arange(mesh.n_free), [mesh.vertex_dof[v] for v in vertices])
    return forms.K[kept][:, kept], forms.M[kept][:, kept]


def assert_same_pencil(piece, reference):
    """A restricted piece equals the analysed pencil of a reference (K, M), array for array."""
    direct = Pencil(*reference)
    for name in ("K", "M"):
        x, y = getattr(piece, name), getattr(direct, name)
        assert x.shape == y.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(x, part), getattr(y, part)), (name, part)


def test_restrict_equals_direct_assembly():
    """Levels, annuli and certificate blocks are slices of one assembly.

    The reference is each piece assembled on its own mesh, with its
    Dirichlet rows and columns removed by scipy's indexing.
    """
    g = load_graph(tree(3))
    ex = build_exhaustion(g, "n0", 3)
    field = load_coefficients(
        {"default": {"p": {"piecewise": [[0.0, 1.0], [0.4, 2.5]]}, "q": {"expr": "-0.5+0.3*sin(3*x)"}}},
        g,
    )
    h = 0.15
    parent = assemble(build_mesh(g, h, edges=ex.level(3)), field)

    pieces = [ex.level(n) for n in (1, 2, 3)]
    pieces += [ex.annulus(n, N) for n, N in ((1, 2), (1, 3), (2, 3))]
    for edges in pieces:
        for host in (True, False):
            vertices = dirichlet_vertices(g, edges, host)
            assert_same_pencil(parent.restrict(edges, host_boundary=host), eliminated(g, h, field, edges, vertices))

    # certificate: the forms of a level, whose interior block is the
    # level's Dirichlet pencil
    level = ex.level(2)
    free = assemble(build_mesh(g, h, edges=level), field)
    boundary = dirichlet_vertices(g, level, True)
    inner = free.restrict(level, host_boundary=True)
    assert_same_pencil(inner, eliminated(g, h, field, level, boundary))
    bdofs = sorted(free.mesh.vertex_dof[v] for v in boundary)
    idofs = np.setdiff1d(np.arange(free.M.shape[0]), bdofs)
    for name in ("K", "M"):
        block = getattr(free, name)[np.ix_(idofs, idofs)]
        assert (block != getattr(inner, name)).nnz == 0


def test_restrict_rejects_edge_outside_parent():
    g = load_graph(tree(2))
    ex = build_exhaustion(g, "n0", 2)
    with pytest.raises(MeshError, match="not in the parent mesh"):
        assemble(build_mesh(g, 0.25, edges=ex.level(1)), load_coefficients({}, g)).restrict(
            ex.level(2)
        )


def test_restrict_constrains_the_cut():
    # level 1 of tree(2) is cut from the level-2 mesh at n1 and n2, whose
    # children's edges stay outside; the root has both edges inside
    g = load_graph(tree(2))
    ex = build_exhaustion(g, "n0", 2)
    field = load_coefficients({"default": {"q": {"expr": "0.5+x"}}}, g)
    parent = assemble(build_mesh(g, 0.25, edges=ex.level(2)), field)
    for host in (False, True):
        piece = parent.restrict(ex.level(1), host_boundary=host)
        kept = parent.mesh.free_dofs(ex.level(1), host_boundary=host)
        assert not {parent.mesh.vertex_dof[v] for v in ("n1", "n2")} & set(kept)
        assert parent.mesh.vertex_dof["n0"] in kept
        assert_same_pencil(piece, eliminated(g, 0.25, field, ex.level(1), {"n1", "n2"}))


def test_restrict_takes_no_vertex_set():
    g = load_graph(tree(2))
    ex = build_exhaustion(g, "n0", 2)
    forms = assemble(build_mesh(g, 0.25, edges=ex.level(2)), load_coefficients({}, g))
    for cut in (forms.restrict, forms.mesh.free_dofs):
        for positional in (frozenset({"n1", "n2"}), "free"):
            with pytest.raises(TypeError):
                cut(ex.level(1), positional)


LOLLIPOP = {
    "vertices": ["a", "b"],
    "edges": [
        {"id": "loop", "from": "a", "to": "a", "length": 2.0},
        {"id": "stick", "from": "a", "to": "b", "length": 1.0},
    ],
}
# a and b joined by two parallel edges, with a tail from b to c
PARALLEL = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "p1", "from": "a", "to": "b", "length": 1.0},
        {"id": "p2", "from": "b", "to": "a", "length": 1.5},
        {"id": "tail", "from": "b", "to": "c", "length": 0.5},
    ],
}
# a loop at a, a and b joined by two parallel edges, a tail from b to c
MULTIGRAPH = {
    "vertices": ["a", "b", "c"],
    "edges": [
        {"id": "loop", "from": "a", "to": "a", "length": 2.0},
        {"id": "p1", "from": "a", "to": "b", "length": 1.0},
        {"id": "p2", "from": "b", "to": "a", "length": 1.3},
        {"id": "tail", "from": "b", "to": "c", "length": 0.7},
    ],
}


@pytest.mark.parametrize(
    "doc, edges, off, on",
    [
        # a loop has two ends at its vertex, so a's degree is 3
        (LOLLIPOP, {"stick"}, {"a"}, {"a", "b"}),
        (LOLLIPOP, {"loop"}, {"a"}, {"a"}),
        (LOLLIPOP, {"loop", "stick"}, set(), {"b"}),
        (PARALLEL, {"p1"}, {"a", "b"}, {"a", "b"}),
        (PARALLEL, {"p2"}, {"a", "b"}, {"a", "b"}),
        (PARALLEL, {"p1", "p2"}, {"b"}, {"b"}),
        (PARALLEL, {"tail"}, {"b"}, {"b", "c"}),
    ],
)
def test_dirichlet_vertices_on_multigraphs(doc, edges, off, on):
    g = load_graph(doc)
    assert dirichlet_vertices(g, edges, False) == off
    assert dirichlet_vertices(g, edges, True) == on


def test_restrict_equals_direct_assembly_on_a_multigraph():
    # a loop's two ends and both parallel edges meet at a; at h = 0.7 the
    # tail is one cell, so b's row holds c's entry unless c is constrained
    g = load_graph(MULTIGRAPH)
    field = load_coefficients({"default": {"q": {"expr": "-0.5+0.3*sin(3*x)"}}, "loop": {"p": 2.5}}, g)
    parent = assemble(build_mesh(g, 0.7), field)
    for edges in ({"loop", "p1"}, {"p1", "p2"}, {"loop", "p1", "p2"}, {"p2", "tail"}, {e.id for e in g.edges}):
        for host in (True, False):
            vertices = dirichlet_vertices(g, edges, host)
            assert_same_pencil(parent.restrict(edges, host_boundary=host), eliminated(g, 0.7, field, edges, vertices))


# --- closed-form cell moments against Gauss panels ---------------------------------


def panel_reference(mesh, field):
    """Dense K and M from the Gauss panels of ``mesh_samples``, summed by scipy.

    Every cell takes Gauss-5 on each panel between its nodes and the
    breakpoints of p, q and w on its edge.
    """
    from scipy.sparse import coo_matrix

    s = mesh_samples(mesh, field)
    b0, b1 = 1.0 - s.tloc, s.tloc

    def cell_sums(v):
        return np.bincount(s.cell_idx, weights=s.wq * v, minlength=len(s.hcell))

    stiff = cell_sums(s.p) / s.hcell**2
    q00, q01, q11 = (cell_sums(s.q * u * v) for u, v in ((b0, b0), (b0, b1), (b1, b1)))
    m00, m01, m11 = (cell_sums(s.w * u * v) for u, v in ((b0, b0), (b0, b1), (b1, b1)))
    rows = np.concatenate((s.d0, s.d0, s.d1, s.d1))
    cols = np.concatenate((s.d0, s.d1, s.d0, s.d1))
    n = mesh.n_free
    K = coo_matrix((np.concatenate((stiff + q00, q01 - stiff, q01 - stiff, stiff + q11)), (rows, cols)), (n, n))
    M = coo_matrix((np.concatenate((m00, m01, m01, m11)), (rows, cols)), (n, n))
    return K.toarray(), M.toarray()


# Edges of length 1 at h = 0.25 have nodes at 0.25, 0.5 and 0.75: a start
# at 0.3 cuts a cell, one at 0.5 falls on a node, one at 1.2 lies past the
# edge's end (its value is never read).  Assembly takes Gauss-5 on whole
# cells for an expression, the panels on each side of a breakpoint; a
# quadratic w times a hat moment is a quartic, which both integrate
# exactly, and a smooth w is compared on an edge that no breakpoint cuts.
TABLES = {
    "p": {"piecewise": [[0.0, 1.0], [0.3, 2.5], [0.5, 1.5], [1.2, -4.0]]},
    "q": {"piecewise": [[0.0, -1.0], [0.3, 2.0], [0.5, 0.5], [1.2, math.nan]]},
    "w": {"expr": "1+0.5*x*x"},
}
MOMENT_CASES = {
    "constants": (star(3), 0.1, {"default": {"p": 2.0, "q": -0.7, "w": 1.5}}),
    "tables": (path(2), 0.25, {"e01": TABLES, "e02": {"p": 1.2, "w": {"expr": "1+0.5*sin(3*x)"}}}),
    # at h = 0.7 the tail is one cell, which its q table cuts
    "multigraph": (
        MULTIGRAPH,
        0.7,
        {
            "loop": {"p": {"piecewise": [[0.0, 1.0], [0.37, 2.0], [0.9, 1.5]]}},
            "p2": {"q": {"piecewise": [[0.0, -1.0], [0.65, 0.5]]}},
            "tail": {"q": {"piecewise": [[0.0, 1.0], [0.2, -2.0]]}, "p": 0.6},
            "default": {"w": {"expr": "1+0.2*x*(2-x)"}},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(MOMENT_CASES))
def test_assembled_entries_match_gauss_panels(case):
    doc, h, coeffs = MOMENT_CASES[case]
    g = load_graph(doc)
    field = load_coefficients(coeffs, g)
    mesh = build_mesh(g, h)
    forms = assemble(mesh, field)
    for got, want in zip((forms.K.toarray(), forms.M.toarray()), panel_reference(mesh, field)):
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_assembly_memory_per_cell():
    # the cell moments come without sample arrays over the whole mesh;
    # Gauss samples of p, q and w at every cell took about 680 bytes per cell
    g = load_graph(tree(8))
    field = load_coefficients({"default": {"q": {"expr": "-1+0.3*sin(2*x)"}}}, g)
    mesh = build_mesh(g, 0.02)
    cells = mesh.start[-1] - len(mesh.edge_ids)
    assert cells == 25500
    tracemalloc.start()
    try:
        assemble(mesh, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cells < 400


def test_coefficient_error_names_the_first_edge_then_p_w_q():
    g = load_graph(path(2))
    mesh = build_mesh(g, 0.1)
    # w is positive at every node of e01 but zero at the middle Gauss point
    # of its first cell, x = 0.05; p is negative on the later edge e02
    doc = {"e01": {"w": {"expr": "(x-0.05)^2"}}, "e02": {"p": -1.0}}
    with pytest.raises(CoefficientError, match=r"^w must be positive and finite on edge 'e01'$"):
        assemble(mesh, load_coefficients(doc, g))
    doc = {"e02": {"p": -1.0, "w": {"piecewise": [[0.0, 1.0], [0.5, 0.0]]}, "q": math.inf}}
    with pytest.raises(CoefficientError, match=r"^p must be positive and finite on edge 'e02'$"):
        assemble(mesh, load_coefficients(doc, g))
    doc = {"e02": {"w": {"piecewise": [[0.0, 1.0], [0.95, 0.0]]}, "q": math.inf}}
    with pytest.raises(CoefficientError, match=r"^w must be positive and finite on edge 'e02'$"):
        assemble(mesh, load_coefficients(doc, g))
    # a piece that starts past the edge's end is never read
    doc = {"default": {"p": {"piecewise": [[0.0, 1.0], [1.5, -2.0]]}, "w": {"piecewise": [[0.0, 1.0], [1.0, 0.0]]}}}
    assemble(mesh, load_coefficients(doc, g))


# --- kirchhoff flux checks ---------------------------------------------------------


def test_kirchhoff_constant_function_zero():
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    mesh = build_mesh(g, 0.25)
    f = np.ones(mesh.n_free)
    assert kirchhoff_residual(mesh, field, f, ["c"]) == {"c": 0.0}


def test_kirchhoff_linear_through_degree_two_vertex():
    g = load_graph(path(2))
    field = load_coefficients({}, g)
    mesh = build_mesh(g, 0.25)
    f = np.empty(mesh.n_free)
    for k, eid in enumerate(mesh.edge_ids):
        nodes = slice(mesh.start[k], mesh.start[k + 1])
        x = mesh.x[nodes] + (0.0 if eid == "e01" else 1.0)
        f[mesh.dof[nodes]] = 0.5 * x  # globally linear along the path
    assert [f[mesh.vertex_dof[v]] for v in ("v00", "v01", "v02")] == [0.0, 0.5, 1.0]
    assert kirchhoff_residual(mesh, field, f, ["v01"])["v01"] <= 1e-13


def test_kirchhoff_residual_decreases_under_refinement():
    g = load_graph(star(3))
    field = load_coefficients({}, g)
    residuals = []
    for h in (0.1, 0.05):
        mesh = build_mesh(g, h)
        result = smallest_eigenpair(assemble(mesh, field).restrict(mesh.edge_ids, host_boundary=True), tol=1e-10)
        f = np.zeros(mesh.n_free)  # the eigenvector, zero at the Dirichlet leaves
        f[mesh.free_dofs(mesh.edge_ids, host_boundary=True)] = result.vector
        residuals.append(kirchhoff_residual(mesh, field, f, ["c"])["c"])
    assert residuals[1] < residuals[0]
    # one-sided quotients are first order
    assert residuals[0] / residuals[1] == pytest.approx(2.0, rel=0.35)


def test_kirchhoff_one_call_matches_vertex_by_vertex(rng):
    # every vertex of a cycle is the source of one edge and the target of
    # another; the batched fluxes equal the single-vertex ones bitwise
    g = load_graph(cycle(3))
    field = load_coefficients({"default": {"p": {"expr": "1+0.5*sin(3*x)"}}}, g)
    mesh = build_mesh(g, 0.2)
    f = rng.normal(size=mesh.n_free)
    vertices = sorted(mesh.vertex_dof)
    together = kirchhoff_residual(mesh, field, f, vertices)
    assert together == {v: kirchhoff_residual(mesh, field, f, [v])[v] for v in vertices}
    assert kirchhoff_residual(mesh, field, f.tolist(), vertices) == together  # a list reads as its array
    assert all(type(r) is float and r > 0 for r in together.values())
    assert kirchhoff_residual(mesh, field, f, []) == {}


def test_kirchhoff_counts_each_end_of_a_loop_once(rng):
    # the flux sum at a vertex is minus its row of K_p times f (K, with
    # q = 0); reading a loop's end cells twice, or a parallel edge's once,
    # would break that
    cases = [
        (LOLLIPOP, {"loop": {"p": 2.5}, "stick": {"p": 0.75}}),
        (MULTIGRAPH, {"default": {"p": {"expr": "1+0.5*sin(3*x)"}}}),
    ]
    for doc, coeffs in cases:
        g = load_graph(doc)
        field = load_coefficients(coeffs, g)
        mesh = build_mesh(g, 0.1)
        f = rng.normal(size=mesh.n_free)
        row = (assemble(mesh, field).K @ f)[mesh.vertex_dof["a"]]
        assert kirchhoff_residual(mesh, field, f, ["a"])["a"] == pytest.approx(abs(row), rel=1e-12)

