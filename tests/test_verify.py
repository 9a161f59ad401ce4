import io

import numpy as np
from oracles import mesh_samples

from graphsl import verify
from graphsl.coeff import load_coefficients
from graphsl.fem import build_mesh
from graphsl.graph import load_graph


def test_full_suite_passes_at_default_seed():
    stream = io.StringIO()
    assert verify.run_suite(0, stream=stream) == 0
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(verify.CHECKS)
    assert all(line.startswith("PASS ") for line in lines)


def test_suite_is_seed_stable():
    a, b = io.StringIO(), io.StringIO()
    verify.run_suite(11, stream=a)
    verify.run_suite(11, stream=b)
    assert a.getvalue() == b.getvalue()


def test_name_filter_runs_single_check():
    stream = io.StringIO()
    failures = verify.run_suite(0, names=["pencil-shift"], stream=stream)
    assert failures == 0
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("PASS pencil-shift:")


def test_selection_does_not_change_draws():
    """A check's random draws depend only on (seed, its name)."""
    name = verify.CHECKS[4][0]
    full, only = io.StringIO(), io.StringIO()
    verify.run_suite(5, stream=full)
    verify.run_suite(5, names=[name], stream=only)
    matching = [l for l in full.getvalue().splitlines() if f" {name}:" in l]
    assert matching == only.getvalue().splitlines()


def test_deleting_a_check_does_not_change_other_draws(monkeypatch):
    """Every check after the deleted first one moves up a place; no line changes."""
    full, fewer = io.StringIO(), io.StringIO()
    verify.run_suite(5, stream=full)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[1:])
    verify.run_suite(5, stream=fewer)
    assert fewer.getvalue().splitlines() == full.getvalue().splitlines()[1:]


def test_crashing_check_counts_as_failure(monkeypatch):
    def boom(rng):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(verify, "CHECKS", [("boom", boom)])
    stream = io.StringIO()
    assert verify.run_suite(0, stream=stream) == 1
    assert "FAIL boom: raised RuntimeError: synthetic crash" in stream.getvalue()


def test_sobolev_energies_match_the_gauss_panel_oracle():
    """The check's per-edge energies, from assembly's cell moments, equal the Gauss panels'.

    A loop and two parallel edges take a p table whose starts cut cells (no
    start is a node at h = 0.1), so the panels split those cells while the
    moments integrate the table exactly; w is an expression.
    """
    g = load_graph(
        {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "loop", "from": "a", "to": "a", "length": 1.3},
                {"id": "s1", "from": "a", "to": "b", "length": 1.0},
                {"id": "s2", "from": "b", "to": "a", "length": 1.2},
            ],
        }
    )
    field = load_coefficients(
        {"default": {"p": {"piecewise": [[0.0, 1.0], [0.37, 2.5], [0.81, 0.6]]}, "w": {"expr": "1+0.3*sin(2*x)"}}},
        g,
    )
    mesh = build_mesh(g, 0.1)
    energies, s = verify._edge_energies(mesh, field), mesh_samples(mesh, field)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.normal(size=mesh.n_free)
        value, slope = s.p1(f)
        grad, mass = energies(f)
        np.testing.assert_allclose(grad, s.edge_sums(s.wq * s.p * slope**2), rtol=1e-13, atol=0)
        np.testing.assert_allclose(mass, s.edge_sums(s.wq * s.w * value**2), rtol=1e-13, atol=0)
