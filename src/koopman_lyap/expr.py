"""Scalar expressions over state variables with exact structural differentiation.

The grammar covers +, -, *, integer ^, unary minus, parentheses, the functions
sin/cos/exp/tanh, decimal constants, and state variables x1..xd. Division is
excluded on purpose: every expression evaluates totally on finite inputs.

ASTs are immutable trees. Differentiation is structural (no numerics) and the
constructors fold constant subtrees, so derivative trees stay small. Each
expression is lowered once, on first evaluation, to a tree of closures, one
per node, that apply Python and numpy operators, so a variable may be bound
to a scalar or to an ndarray; arrays broadcast through every operation.
Parsed constants, literal or folded, are finite. Parsing, lowering, evaluation
and differentiation recurse once per level, so nesting and tree depth are
capped.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "ExprAST",
    "VectorField",
    "parse_expression",
    "parse_vector_field",
]

_MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {_MAX_DEPTH} levels"
_OUT_OF_RANGE = "constant outside the floating-point range"

_FUNCTIONS = {
    "sin": (np.sin, math.sin),
    "cos": (np.cos, math.cos),
    "exp": (np.exp, math.exp),
    "tanh": (np.tanh, math.tanh),
}


class ExprError(ValueError):
    """Invalid expression input: bad syntax, unknown name, or bad index."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- AST nodes -------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    pass


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 1-based, matching the surface syntax x1..xd


@dataclass(frozen=True)
class Neg(_Node):
    arg: _Node


@dataclass(frozen=True)
class Add(_Node):
    left: _Node
    right: _Node


@dataclass(frozen=True)
class Sub(_Node):
    left: _Node
    right: _Node


@dataclass(frozen=True)
class Mul(_Node):
    left: _Node
    right: _Node


@dataclass(frozen=True)
class Pow(_Node):
    base: _Node
    exponent: int  # nonnegative integer


@dataclass(frozen=True)
class Call(_Node):
    name: str
    arg: _Node


# Folding constructors. Exact float arithmetic, hence deterministic.


def _const(v) -> Const:
    return Const(float(v))


def _add(a: _Node, b: _Node) -> _Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def _sub(a: _Node, b: _Node) -> _Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return Sub(a, b)


def _neg(a: _Node) -> _Node:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: _Node, b: _Node) -> _Node:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return _const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return _const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def _pow(base: _Node, k: int) -> _Node:
    if k == 0:
        return _const(1.0)
    if k == 1:
        return base
    if isinstance(base, Const):
        return _const(base.value**k)
    return Pow(base, k)


def _call(name: str, a: _Node) -> _Node:
    if isinstance(a, Const):
        return _const(_FUNCTIONS[name][1](a.value))
    return Call(name, a)


# --- lowering / differentiation ---------------------------------------------

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _lower(node: _Node):
    """node as a function of x, or as its float for a Const, which the parent
    applies directly. Every other node has an operand that is not a Const,
    as the folding constructors guarantee. Each closure applies the node's
    operation to the same operands in the same order as the tree reads, so
    scalars stay Python floats and arrays stay numpy."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return operator.itemgetter(node.index - 1)
    if isinstance(node, Neg):
        f = _lower(node.arg)
        return lambda x: -f(x)
    if isinstance(node, Pow):
        f, k = _lower(node.base), node.exponent
        return lambda x: f(x) ** k
    if isinstance(node, Call):
        f, g = _lower(node.arg), _FUNCTIONS[node.name][0]
        return lambda x: g(f(x))
    op, a, b = _BINARY[type(node)], _lower(node.left), _lower(node.right)
    if isinstance(node.left, Const):
        return lambda x: op(a, b(x))
    if isinstance(node.right, Const):
        return lambda x: op(a(x), b)
    return lambda x: op(a(x), b(x))


def _deriv(node: _Node, var: int) -> _Node:
    if isinstance(node, Const):
        return _const(0.0)
    if isinstance(node, Var):
        return _const(1.0 if node.index == var else 0.0)
    if isinstance(node, Neg):
        return _neg(_deriv(node.arg, var))
    if isinstance(node, Add):
        return _add(_deriv(node.left, var), _deriv(node.right, var))
    if isinstance(node, Sub):
        return _sub(_deriv(node.left, var), _deriv(node.right, var))
    if isinstance(node, Mul):
        return _add(
            _mul(_deriv(node.left, var), node.right),
            _mul(node.left, _deriv(node.right, var)),
        )
    if isinstance(node, Pow):
        inner = _mul(_const(node.exponent), _pow(node.base, node.exponent - 1))
        return _mul(inner, _deriv(node.base, var))
    if isinstance(node, Call):
        da = _deriv(node.arg, var)
        if node.name == "sin":
            outer = _call("cos", node.arg)
        elif node.name == "cos":
            outer = _neg(_call("sin", node.arg))
        elif node.name == "exp":
            outer = _call("exp", node.arg)
        else:  # tanh
            outer = _sub(_const(1.0), _pow(_call("tanh", node.arg), 2))
        return _mul(outer, da)
    raise TypeError(f"unknown node {node!r}")


# --- public wrapper types ---------------------------------------------------


@dataclass(frozen=True)
class ExprAST:
    """A parsed scalar expression in dim state variables."""

    root: _Node
    dim: int

    def evaluate(self, x):
        """Evaluate with x a sequence of dim scalars or broadcastable arrays."""
        if len(x) != self.dim:
            raise ExprError(f"expected {self.dim} variables, got {len(x)}")
        return self._fn(x)

    @cached_property
    def _fn(self):
        # built on first use; not a field, so equality and hashing ignore it
        f = _lower(self.root)
        return f if callable(f) else lambda x: f

    def derivative(self, var: int) -> "ExprAST":
        """Exact partial derivative with respect to x<var> (1-based)."""
        if not 1 <= var <= self.dim:
            raise ExprError(f"variable index {var} out of range 1..{self.dim}")
        return ExprAST(_deriv(self.root, var), self.dim)


@dataclass(frozen=True)
class VectorField:
    """A vector field on R^d given componentwise by expressions."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ExprError("vector field needs at least one component")
        d = comps[0].dim
        if len(comps) != d or any(c.dim != d for c in comps):
            raise ExprError(
                "vector field must be square: d components in d variables"
            )
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def evaluate(self, x) -> np.ndarray:
        """f(x). For x of shape (d,) returns (d,); for a batch x of shape
        (d,) + S returns (d,) + S, one component written per row."""
        x = np.asarray(x, dtype=float)
        if len(x) != self.dim:
            raise ExprError(f"expected {self.dim} variables, got {len(x)}")
        out = np.empty(x.shape)
        for i, comp in enumerate(self.components):
            out[i] = comp._fn(x)
        return out

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """f at a batch of points of shape (m, d), returned as (m, d)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ExprError(f"expected {self.dim} variables, got {pts.shape[-1]}")
        cols = [pts[:, i] for i in range(self.dim)]
        out = np.empty_like(pts)
        for j, comp in enumerate(self.components):
            out[:, j] = np.broadcast_to(comp._fn(cols), (pts.shape[0],))
        return out


# --- tokenizer / recursive-descent parser ----------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)

_VAR_RE = re.compile(r"^x(\d+)$")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # unary() calls open, one per nesting level

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> _Node:
        node = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return node

    def expression(self) -> _Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = _add(node, rhs) if value == "+" else _sub(node, rhs)
            else:
                return node

    def term(self) -> _Node:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = _mul(node, self.unary())
            else:
                return node

    def unary(self) -> _Node:
        kind, value, pos = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        if kind == "op" and value == "-":
            self.advance()
            node = _neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> _Node:
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = _pow(node, self.exponent())
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                raise ParseError("chained ^ needs parentheses", pos)
        return node

    def exponent(self) -> int:
        kind, value, pos = self.peek()
        if kind != "number" or not value.isdigit():
            raise ParseError("exponent must be a nonnegative integer", pos)
        self.advance()
        return int(value)

    def atom(self) -> _Node:
        kind, value, pos = self.advance()
        if kind == "number":
            return _const(float(value))
        if kind == "ident":
            m = _VAR_RE.match(value)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"variable x{index} out of range x1..x{self.dim}", pos
                    )
                return Var(index)
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str, dim: int) -> ExprAST:
    """Parse text into an immutable AST over variables x1..x<dim>."""
    if dim < 1:
        raise ExprError("dim must be at least 1")
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    try:
        root = _Parser(text, dim).parse()
    except OverflowError:  # folding ^ or a function of a constant
        raise ExprError(_OUT_OF_RANGE) from None
    level = [root]  # the tree, one level at a time
    for _ in range(_MAX_DEPTH):
        if any(isinstance(n, Const) and not math.isfinite(n.value) for n in level):
            raise ExprError(_OUT_OF_RANGE)
        level = [c for n in level for c in vars(n).values() if isinstance(c, _Node)]
        if not level:
            return ExprAST(root, dim)
    raise ExprError(_TOO_DEEP)


def parse_vector_field(texts) -> VectorField:
    """Parse one expression per component; dimension equals the count."""
    texts = list(texts)
    d = len(texts)
    return VectorField(tuple(parse_expression(t, d) for t in texts))
