import json
import math
import re

import numpy as np
import pytest

from oracles import compact_search

from graphsl import expressions
from graphsl.coeff import (
    edge_integrals,
    load_coefficients,
    validate_hypotheses,
)
from graphsl.errors import CoefficientError, IntegrabilityError
from graphsl.families import ladder, path, star, tree
from graphsl.graph import build_exhaustion, load_graph
from graphsl.spectral import sobolev_constant


def unit_interval():
    return load_graph(
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "e1", "from": "a", "to": "b", "length": 1.0}],
            "root": "a",
        }
    )


def edge_integral(field, edge_id, which, a=0.0, b=None):
    """The integral of ``which`` over [a, b] on one edge (default: the whole edge), by ``edge_integrals``."""
    b = field.graph.edge(edge_id).length if b is None else b
    return float(edge_integrals(field, which, [edge_id], [0], [a], [b])[0])


def test_defaults_are_free_laplacian():
    g = unit_interval()
    f = load_coefficients({}, g)
    xs = np.linspace(0, 1, 5)
    np.testing.assert_array_equal(f.evaluate("e1", "p", xs), np.ones(5))
    np.testing.assert_array_equal(f.evaluate("e1", "q", xs), np.zeros(5))
    np.testing.assert_array_equal(f.evaluate("e1", "w", xs), np.ones(5))


def test_constant_integral():
    g = unit_interval()
    f = load_coefficients({}, g)
    assert edge_integral(f, "e1", "p") == 1.0


def test_piecewise_negative_positive_parts():
    # q = -2 on [0, 0.5), +1 on [0.5, 1]
    g = unit_interval()
    f = load_coefficients({"e1": {"q": {"piecewise": [[0, -2], [0.5, 1]]}}}, g)
    assert edge_integral(f, "e1", "q-") == pytest.approx(1.0, abs=1e-15)
    assert edge_integral(f, "e1", "|q|") == pytest.approx(1.5, abs=1e-15)
    # the positive part and the signed integral are |q| less one or two negative parts
    assert edge_integral(f, "e1", "|q|") - edge_integral(f, "e1", "q-") == pytest.approx(0.5, abs=1e-15)
    assert edge_integral(f, "e1", "|q|") - 2 * edge_integral(f, "e1", "q-") == pytest.approx(-0.5, abs=1e-15)
    for which in ("q+", "q"):
        with pytest.raises(CoefficientError, match=re.escape(f"unknown integrand '{which}'")):
            edge_integral(f, "e1", which)


def test_exponential_weight_integral():
    g = unit_interval()
    f = load_coefficients({"e1": {"w": {"expr": "exp(x)"}}}, g)
    assert edge_integral(f, "e1", "w") == pytest.approx(math.e - 1.0, abs=1e-12)


def test_partial_range_and_additivity():
    g = unit_interval()
    # sin(3x) > 0 on (0, 1], so |q| is q
    f = load_coefficients({"e1": {"q": {"expr": "sin(3*x)"}}}, g)
    whole = edge_integral(f, "e1", "|q|")
    split = edge_integral(f, "e1", "|q|", 0.0, 0.37) + edge_integral(f, "e1", "|q|", 0.37, 1.0)
    assert split == pytest.approx(whole, rel=1e-13, abs=1e-15)


def test_positive_negative_parts_multiply_to_zero(rng):
    g = unit_interval()
    f = load_coefficients({"e1": {"q": {"expr": "sin(7*x)-0.2"}}}, g)
    xs = rng.uniform(0, 1, 200)
    qp = np.maximum(f.evaluate("e1", "q", xs), 0.0)
    qm = np.maximum(-f.evaluate("e1", "q", xs), 0.0)
    assert np.all(qp * qm == 0.0)
    np.testing.assert_allclose(qp - qm, f.evaluate("e1", "q", xs), atol=1e-15)


def test_default_entry_applies_to_all_edges():
    g = load_graph(star(3))
    f = load_coefficients({"default": {"p": 2.5}}, g)
    for eid in ("a1", "a2", "a3"):
        assert edge_integral(f, eid, "p") == pytest.approx(2.5)


def test_edge_entry_overrides_default():
    g = load_graph(star(3))
    f = load_coefficients({"default": {"q": 1.0}, "a2": {"q": -3.0}}, g)
    assert edge_integral(f, "a1", "|q|") == pytest.approx(1.0)
    assert edge_integral(f, "a1", "q-") == 0.0
    assert edge_integral(f, "a2", "q-") == pytest.approx(3.0)


def test_loop_coefficient_runs_along_the_whole_loop():
    # a loop is one edge: its coordinate runs from 0 to its full length
    doc = {
        "vertices": ["a"],
        "edges": [{"id": "loop", "from": "a", "to": "a", "length": 2.0}],
        "root": "a",
    }
    g = load_graph(doc)
    f = load_coefficients({"loop": {"w": {"expr": "x"}}}, g)
    assert edge_integral(f, "loop", "w") == pytest.approx(2.0, abs=1e-12)  # int_0^2 x dx
    assert float(f.evaluate("loop", "w", 1.5)) == 1.5


def test_split_ids_are_unknown_keys():
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "p1", "from": "a", "to": "b", "length": 1.0},
            {"id": "p2", "from": "a", "to": "b", "length": 2.0},
        ],
    }
    g = load_graph(doc)
    assert edge_integral(load_coefficients({"p2": {"q": 3.0}}, g), "p2", "|q|") == 6.0
    with pytest.raises(CoefficientError, match="unknown edge 'p2:a'"):
        load_coefficients({"p2:a": {"q": 1.0}}, g)


def test_unknown_key_rejected():
    g = unit_interval()
    with pytest.raises(CoefficientError):
        load_coefficients({"nope": {"q": 1.0}}, g)
    with pytest.raises(CoefficientError):
        load_coefficients({"e1": {"zz": 1.0}}, g)
    with pytest.raises(CoefficientError):
        load_coefficients({"e1": {"p": {"bad": 1}}}, g)


def test_piecewise_validation():
    g = unit_interval()
    with pytest.raises(CoefficientError):
        load_coefficients({"e1": {"q": {"piecewise": [[0.2, 1.0]]}}}, g)  # must start at 0
    with pytest.raises(CoefficientError):
        load_coefficients({"e1": {"q": {"piecewise": [[0, 1], [0, 2]]}}}, g)


def test_sampled_min_sees_both_sides_of_jumps():
    g = unit_interval()
    # drops to 0.25 exactly at the last table start; right-continuous value
    # holds to the end, so the minimum must be found on the jump's right side
    f = load_coefficients({"e1": {"w": {"piecewise": [[0, 1], [0.9999, 0.25]]}}}, g)
    assert validate_hypotheses(g, f).essinf_w_outside == 0.25


def test_grouped_integrals_match_one_by_one():
    # entries of several specs in one call: each equals its own integral,
    # and a nonfinite one comes back nonfinite instead of raising
    g = load_graph(star(3))
    f = load_coefficients(
        {
            "a1": {"q": {"expr": "sin(3*x)-0.2"}},
            "a2": {"q": {"piecewise": [[0, -2], [0.3, 1]]}},
            "a3": {"q": {"expr": "sqrt(x-0.5)"}},
        },
        g,
    )
    ids = ["a1", "a2", "a3"]
    edge = [0, 1, 0, 1, 0, 2]
    a = [0.0, 0.0, 0.1, 0.25, 0.3, 0.0]
    b = [1.0, 1.0, 0.7, 0.35, 0.3, 1.0]
    for which in ("q-", "|q|"):
        values = edge_integrals(f, which, ids, edge, a, b)
        assert not np.isfinite(values[-1])
        expected = [edge_integral(f, ids[e], which, lo, hi) for e, lo, hi in zip(edge[:-1], a, b)]
        assert values[:-1].tolist() == expected


def test_nonintegrable_reciprocal_raises():
    # the integral comes back infinite, exactly and through the quadrature
    # path (an expression that vanishes at nodes), and its reader raises
    g = unit_interval()
    for p in (0.0, {"expr": "x-x"}):
        f = load_coefficients({"e1": {"p": p}}, g)
        assert edge_integral(f, "e1", "1/p") == math.inf
        with pytest.raises(IntegrabilityError, match="integral of 1/p over edge 'e1' is not finite"):
            sobolev_constant(g, f, 1.0)


# --- hypothesis validation ------------------------------------------------------


def test_hypotheses_all_pass_for_free_field():
    g = load_graph(star(3))
    f = load_coefficients({}, g)
    report = validate_hypotheses(g, f)
    assert report.passed
    assert report.sup_edge_neg_q == 0.0
    assert report.essinf_w_outside == 1.0
    assert report.min_edge_length == 1.0


def test_hypotheses_well_gives_cq_five():
    g = load_graph(path(4))
    f = load_coefficients({"e01": {"q": -5.0}}, g)
    report = validate_hypotheses(g, f)
    assert report.sup_edge_neg_q == pytest.approx(5.0)
    assert report.passed


def test_hypotheses_exp_weight_essinf():
    """w = exp(-x) per edge: the sampled minimum outside any compact is 1/e."""
    g = load_graph(path(4))
    f = load_coefficients({"default": {"w": {"expr": "exp(-x)"}}}, g)
    ex = build_exhaustion(g, "v00", 4)
    report = validate_hypotheses(g, f, exhaustion=ex)
    assert report.flags[2]
    assert report.essinf_w_outside == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_hypotheses_zero_weight_tail_fails_clause_two():
    g = load_graph(path(4))
    f = load_coefficients({"e04": {"w": 0.0}}, g)
    ex = build_exhaustion(g, "v00", 4)
    report = validate_hypotheses(g, f, exhaustion=ex)
    assert not report.flags[2]
    assert report.failures() == [2]


def test_unevaluable_weight_fails_clause_two_with_edges_named():
    # sqrt(x-0.5) has no value on [0, 0.5) of any arm; level 1 of the
    # exhaustion is the whole star, which leaves no edge outside to check
    g = load_graph(star(3))
    f = load_coefficients({"default": {"w": {"expr": "sqrt(x-0.5)"}}}, g)
    report = validate_hypotheses(g, f, exhaustion=build_exhaustion(g, "c", 1))
    assert not report.flags[2]
    assert math.isnan(report.essinf_w_outside)
    assert report.details[2] == [f"{e.id}: w not evaluable" for e in g.edges]


def test_weight_with_minimum_minus_inf_fails_clause_two():
    # 1e400 reads as inf, so w = -inf on every edge; the empty compact leaves
    # every edge outside, so clause 2 sees that minimum
    g = load_graph(path(3))
    report = validate_hypotheses(g, load_coefficients({"default": {"w": {"expr": "x-x-1e400"}}}, g))
    assert report.essinf_w_outside == -math.inf
    assert report.flags[2] is False
    assert 2 in report.failures()


@pytest.mark.parametrize("doc", [path(9), tree(3), ladder(5), star(4)], ids=["path9", "tree3", "ladder5", "star4"])
def test_compact_search_matches_the_direct_search(doc):
    # random weights with zero edges and edges where w cannot be evaluated,
    # against every exhaustion depth and none
    g = load_graph(doc)
    rng = np.random.default_rng(len(g.edges))
    depths = [None, *range(len(g.edges) + 1)]
    for trial in range(30):
        coeffs = {}
        for e in g.edges:
            u = rng.random()
            if u < 0.2:
                coeffs[e.id] = {"w": 0.0}
            elif u < 0.27:
                coeffs[e.id] = {"w": {"expr": "sqrt(x-0.5)"}}
            else:
                coeffs[e.id] = {"w": {"expr": f"{rng.uniform(-0.5, 2.0)!r}+x"}}
        field = load_coefficients(coeffs, g)
        depth = depths[trial % len(depths)]
        ex = None if depth is None else build_exhaustion(g, g.root, depth)
        report = validate_hypotheses(g, field, exhaustion=ex)
        compact, essinf, flag, details = compact_search(g, field, ex)
        assert report.compact == compact
        assert report.essinf_w_outside == essinf or math.isnan(report.essinf_w_outside) and math.isnan(essinf)
        assert report.flags[2] == flag
        assert report.details.get(2) == details


def test_hypotheses_declared_eta():
    g = unit_interval()
    f = load_coefficients({"eta": 2.0, "e1": {"p": 4.0}}, g)
    report = validate_hypotheses(g, f)
    assert report.eta == 2.0
    assert report.inv_p_power_total == pytest.approx((1 / 4.0) ** 2)
    assert report.passed


def test_eta_inf_sees_narrow_pieces_of_p():
    # p dips to 0.01 on [0.5001, 0.5002), between two points of the grid
    g = unit_interval()
    doc = {"eta": "inf", "default": {"p": {"piecewise": [[0, 1], [0.5001, 0.01], [0.5002, 1]]}}}
    report = validate_hypotheses(g, load_coefficients(doc, g))
    assert report.inv_p_power_total == 100.0


def test_eta_is_read_from_the_document():
    g = unit_interval()
    assert load_coefficients({}, g).eta == 1.0
    assert load_coefficients({"eta": 3}, g).eta == 3.0
    field = load_coefficients(json.dumps({"eta": "inf", "default": {"p": 2.0}}), g)
    assert field.eta == math.inf
    assert field.evaluate("e1", "p", [0.5]) == [2.0]


@pytest.mark.parametrize("eta", ["abc", None, True, [2]], ids=["string", "null", "bool", "list"])
def test_malformed_eta_is_rejected_by_the_library(eta):
    with pytest.raises(CoefficientError, match=r'eta must be a number or "inf", got '):
        load_coefficients({"eta": eta, "default": {"p": 4.0}}, unit_interval())


def test_eta_below_one_is_rejected():
    with pytest.raises(CoefficientError, match="eta must be >= 1"):
        load_coefficients({"eta": 0.5}, unit_interval())


def edge_named(eid):
    """Two edges in a path, the first of them named ``eid``."""
    return load_graph(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": eid, "from": "a", "to": "b", "length": 1.0},
                {"id": "e2", "from": "b", "to": "c", "length": 1.0},
            ],
        }
    )


def test_edge_named_eta_clashes_with_the_reserved_key():
    g = edge_named("eta")
    with pytest.raises(CoefficientError, match="coefficient key 'eta' is reserved, but the graph has an edge 'eta'"):
        load_coefficients({"eta": {"p": 2.0}}, g)
    with pytest.raises(CoefficientError, match="edge 'eta'"):
        load_coefficients({"eta": 2.0}, g)
    # without the key the edge is an ordinary edge
    assert load_coefficients({"e2": {"p": 2.0}}, g).evaluate("eta", "p", [0.5]) == [1.0]


def test_edge_named_default_clashes_with_the_reserved_key():
    g = edge_named("default")
    with pytest.raises(CoefficientError, match="coefficient key 'default' is reserved, but the graph has an edge 'default'"):
        load_coefficients({"default": {"p": 2.0}}, g)
    # without the key no entry spills onto the other edges
    field = load_coefficients({"e2": {"q": 1.0}}, g)
    assert field.evaluate("default", "q", [0.5]) == [0.0]


def test_validation_evaluates_each_expression_spec_once(monkeypatch):
    calls = []
    original = expressions.evaluate

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(expressions, "evaluate", counted)
    g = load_graph(tree(6))
    f = load_coefficients({"default": {"q": {"expr": "-1+0.3*sin(2*x)"}}}, g)
    assert validate_hypotheses(g, f).passed
    assert len(calls) <= 2  # |q| and q-, each over every edge at once
