"""Tiny arithmetic expressions for edgewise coefficients.

The accepted language is deliberately small: floating literals, the edge
coordinate ``x``, the operators ``+ - * / ^`` (with ``^`` meaning power,
right associative), parentheses, unary minus, and the functions ``sin``,
``cos``, ``exp``, ``sqrt`` and ``abs``.  Everything evaluates elementwise
over numpy arrays so quadrature can sample many points in one call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


def _tokenize(source: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None or match.end() == pos:
            # Skip over whitespace-only tails before declaring failure.
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExpressionError(f"unexpected character {source[bad]!r}", bad)
        if match.lastgroup == "num":
            tokens.append(Token("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "ident":
            tokens.append(Token("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(Token("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(Token("eof", "", len(source)))
    return tokens


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


class _Parser:
    """Recursive descent over the token list.

    Precedence, loosest first: additive, multiplicative, unary minus, power.
    Power binds tighter than unary minus on its left (-x^2 == -(x^2)) and is
    right associative.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(f"expected {text!r}", tok.offset)
        self.advance()

    def parse(self):
        node = self.additive()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def additive(self):
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right associative; exponent may carry its own unary minus
            return Binary("^", base, self.unary())
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "x":
                return Coord()
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.additive()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.additive()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input",
            tok.offset,
        )


def parse_expression(source: str):
    """Parse ``source`` into an AST; raises ExpressionError with a byte offset."""
    if not isinstance(source, str):
        raise ExpressionError("expression must be a string", 0)
    return _Parser(source).parse()


def evaluate(node, x):
    """Evaluate an AST elementwise at ``x`` (scalar or ndarray).

    Division by zero and invalid operations (sqrt of a negative, 0/0) raise
    EvaluationError instead of silently propagating inf/nan.
    """
    x = np.asarray(x, dtype=float)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            result = _eval(node, x)
    except FloatingPointError as exc:
        raise EvaluationError(f"expression evaluation failed: {exc}") from exc
    if np.shape(result) != x.shape:
        result = np.broadcast_to(np.asarray(result, dtype=float), x.shape).copy()
    return result if x.shape else float(result)


def _eval(node, x):
    if isinstance(node, Const):
        # a scalar that every operator broadcasts; np.float64 keeps scalar
        # arithmetic under errstate control
        return np.float64(node.value)
    if isinstance(node, Coord):
        return x
    if isinstance(node, Neg):
        return -_eval(node.arg, x)
    if isinstance(node, Call):
        return _FUNCTIONS[node.name](_eval(node.arg, x))
    assert isinstance(node, Binary)
    left = _eval(node.left, x)
    right = _eval(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return np.divide(left, right)
    if np.ndim(right) < x.ndim:
        # numpy's power computes a scalar exponent 0.5, 2 or -1 as sqrt, square
        # or reciprocal, which can round differently from pow: as elsewhere, the
        # exponent goes in as an array
        right = np.full(x.shape, right)
    return np.power(left, right)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(node) -> str:
    """Render an AST back to source; parse(pretty(t)) evaluates identically."""
    text, _ = _pretty(node)
    return text


def _pretty(node):
    if isinstance(node, Const):
        return repr(node.value), 5
    if isinstance(node, Coord):
        return "x", 5
    if isinstance(node, Call):
        inner, _ = _pretty(node.arg)
        return f"{node.name}({inner})", 5
    if isinstance(node, Neg):
        inner, prec = _pretty(node.arg)
        if prec < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PRECEDENCE["neg"]
    assert isinstance(node, Binary)
    mine = _PRECEDENCE[node.op]
    left, lp = _pretty(node.left)
    right, rp = _pretty(node.right)
    if node.op == "^":
        # right associative: parenthesize an equal-precedence left child
        if lp <= mine:
            left = f"({left})"
        if rp < mine:
            right = f"({right})"
    else:
        # left associative; an equal-precedence right child keeps its parens
        # even under + and * because float arithmetic is not associative
        if lp < mine:
            left = f"({left})"
        if rp <= mine:
            right = f"({right})"
    return f"{left} {node.op} {right}", mine
