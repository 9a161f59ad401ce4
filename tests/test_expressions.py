import math

import numpy as np
import pytest

from graphsl.errors import EvaluationError, ExpressionError
from graphsl.expressions import (
    Binary,
    Call,
    Const,
    Coord,
    Neg,
    evaluate,
    parse_expression,
    pretty,
)


def ev(src, x):
    return evaluate(parse_expression(src), x)


def test_constant():
    assert ev("1", 0.3) == 1.0


def test_coordinate_square():
    assert ev("x*x", 3.0) == 9.0


def test_sin_combination():
    assert ev("1+0.5*sin(x)", math.pi / 2) == pytest.approx(1.5, abs=1e-15)


def test_whitespace_insensitive():
    assert ev(" 1 +2* x ", 4.0) == ev("1+2*x", 4.0) == 9.0


def test_precedence():
    assert ev("2+3*4", 0.0) == 14.0
    assert ev("2*3^2", 0.0) == 18.0
    assert ev("(2+3)*4", 0.0) == 20.0


def test_power_right_associative():
    assert ev("2^3^2", 0.0) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert ev("-x^2", 3.0) == -9.0
    assert ev("(-x)^2", 3.0) == 9.0


def test_unary_minus_chains():
    assert ev("- -3", 0.0) == 3.0
    assert ev("--x", 5.0) == 5.0


def test_functions():
    assert ev("sqrt(abs(x))", -4.0) == 2.0
    assert ev("exp(0)", 1.0) == 1.0
    assert ev("cos(x)", 0.0) == 1.0


def test_division():
    assert ev("x/4", 2.0) == 0.5


def test_vectorized_evaluation():
    xs = np.linspace(0.0, 1.0, 7)
    out = ev("x^2+1", xs)
    assert out.shape == xs.shape
    np.testing.assert_allclose(out, xs**2 + 1)


def test_scalar_returns_float():
    assert isinstance(ev("x+1", 2.0), float)


@pytest.mark.parametrize(
    "src,offset",
    [
        ("2*", 2),       # dangling operator
        ("(1+2", 4),     # unclosed parenthesis
        ("1 @ 2", 2),    # stray character
        ("", 0),         # nothing to parse
        ("1 + + 2", 4),  # operator where an operand was expected
    ],
)
def test_syntax_error_offsets(src, offset):
    with pytest.raises(ExpressionError) as err:
        parse_expression(src)
    assert err.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2*foo(x)")
    assert err.value.offset == 2


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("1+2)")


def test_pole_raises_evaluation_error():
    with pytest.raises(EvaluationError):
        ev("1/x", 0.0)


def test_sqrt_of_negative_raises():
    with pytest.raises(EvaluationError):
        ev("sqrt(x)", -1.0)


def test_structural_division_allowed():
    # dividing is fine as long as no evaluation point hits the pole
    assert ev("1/(x-1)", 3.0) == 0.5
    with pytest.raises(EvaluationError):
        ev("1/(x-1)", 1.0)


def test_vectorized_pole_detected():
    with pytest.raises(EvaluationError):
        ev("1/x", np.array([0.5, 0.0, 2.0]))


def test_pretty_parenthesizes_by_precedence():
    assert pretty(parse_expression("x*(x+1)")) == "x * (x + 1.0)"
    assert pretty(parse_expression("x*x+1")) == "x * x + 1.0"
    assert pretty(parse_expression("(x^2)^3")) == "(x ^ 2.0) ^ 3.0"


def test_round_trip_random_expressions(rng):
    """pretty(parse(...)) must evaluate identically to the original tree.

    Trees are built directly so that associativity-sensitive shapes (like a
    product whose right factor is a quotient) are guaranteed to appear.
    """

    def random_tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return Coord() if rng.random() < 0.5 else Const(float(np.round(rng.uniform(0.25, 4), 3)))
        roll = rng.random()
        if roll < 0.6:
            op = ["+", "-", "*", "/", "^"][int(rng.integers(0, 5))]
            right = random_tree(depth - 1)
            if op == "^":
                right = Const(float(rng.integers(1, 4)))
            return Binary(op, random_tree(depth - 1), right)
        if roll < 0.75:
            return Neg(random_tree(depth - 1))
        name = ["sin", "cos", "exp", "sqrt", "abs"][int(rng.integers(0, 5))]
        return Call(name, random_tree(depth - 1))

    xs = rng.uniform(0.05, 2.0, size=100)
    for _ in range(100):
        tree = random_tree(4)
        text = pretty(tree)
        reparsed = parse_expression(text)
        assert pretty(reparsed) == text
        for x in xs[:10]:
            try:
                want = evaluate(tree, float(x))
            except EvaluationError:
                continue
            got = evaluate(reparsed, float(x))
            assert got == pytest.approx(want, abs=1e-14, rel=1e-14)


def full_array_eval(node, x):
    """The evaluator with every literal a full array, the reference for bitwise checks."""
    if isinstance(node, Const):
        return np.full(x.shape, node.value)
    if isinstance(node, Coord):
        return x
    if isinstance(node, Neg):
        return -full_array_eval(node.arg, x)
    if isinstance(node, Call):
        return getattr(np, node.name)(full_array_eval(node.arg, x))
    left, right = full_array_eval(node.left, x), full_array_eval(node.right, x)
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}[node.op](left, right)


@pytest.mark.parametrize(
    "src",
    [
        "x+0.3", "0.3+x", "x-0.3", "0.3-x", "x*0.3", "0.3*x", "x/0.3", "0.3/x", "-x", "-(0.3)*x",
        "x^0.5", "x^2", "x^3", "x^-1", "x^(1/2)", "2^x", "0.5^x",
        "sin(2)*x", "cos(0.3)+x", "exp(-1)*x", "sqrt(2)/x", "abs(-3)-x", "2^0.5+x",
        "-1+0.3*sin(2*x+0.2)", "1/(1+0.04+x)",
    ],
)
def test_literals_as_scalars_round_like_full_arrays(src):
    # literals are scalars that numpy broadcasts; every result is bitwise the
    # one full arrays give, also for the exponents numpy's power computes by
    # sqrt, square or reciprocal when it is handed a scalar
    xs = np.concatenate((np.random.default_rng(3).uniform(0.01, 20.0, 20_000), [1.0, 2.0, 0.5]))
    node = parse_expression(src)
    got, want = evaluate(node, xs), full_array_eval(node, xs)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_evaluation_memory_is_two_results():
    # certificate-tree's q on its 507,065 Gauss points: with every literal a
    # full array the evaluation peaked at five times the result (20.3 MB for
    # 4.1 MB); with scalars only an operator's operand and result are alive
    import tracemalloc

    xs = np.linspace(0.0, 1.0, 507_065)
    node = parse_expression("-1+0.3*sin(2*x+0.2)")
    tracemalloc.start()
    try:
        result = evaluate(node, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * result.nbytes
