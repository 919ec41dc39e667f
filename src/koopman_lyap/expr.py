"""Scalar expressions over state variables with exact structural differentiation.

The grammar covers +, -, *, integer ^, unary minus, parentheses, the functions
sin/cos/exp/tanh, decimal constants, and state variables x1..xd. Division is
excluded on purpose: every expression evaluates totally on finite inputs.

An expression tree is nested tuples (op, *operands): ("const", v), ("var", i)
with i 1-based, ("pow", base, k) with k a nonnegative integer, and
(op, a[, b]) for "neg", "add", "sub", "mul" and each function name. One
constructor, _node, builds every inner node: it folds constant operands and
drops the zeros and ones that drop out, so derivative trees stay small.
Differentiation is structural (no numerics). Each expression is lowered
once, on first evaluation, to a tree of closures, one per node, that apply
Python and numpy operators, so a variable may be bound to a scalar or to an
ndarray; arrays broadcast through every operation.
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

# name: (numpy function, math function, derivative rule d name(a) / da)
_FUNCTIONS = {
    "sin": (np.sin, math.sin, lambda a: _node("cos", a)),
    "cos": (np.cos, math.cos, lambda a: _node("neg", _node("sin", a))),
    "exp": (np.exp, math.exp, lambda a: _node("exp", a)),
    "tanh": (np.tanh, math.tanh, lambda a: _node("sub", _ONE, _node("pow", _node("tanh", a), 2))),
}


class ExprError(ValueError):
    """Invalid expression input: bad syntax, unknown name, or bad index."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- nodes -----------------------------------------------------------------

_ZERO, _ONE = ("const", 0.0), ("const", 1.0)
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_FOLD = {"neg": operator.neg, **_BINARY, **{k: f[1] for k, f in _FUNCTIONS.items()}}


def _node(op: str, a: tuple, b=None) -> tuple:
    """The node (op, a[, b]), b the integer exponent of a "pow". Constant
    operands fold in exact Python and math arithmetic, hence
    deterministically, and the zeros and ones that drop out are dropped."""
    if op == "pow":
        if b == 0:
            return _ONE
        if b == 1:
            return a
        return ("const", a[1] ** b) if a[0] == "const" else (op, a, b)
    args = (a,) if b is None else (a, b)
    if all(n[0] == "const" for n in args):
        return ("const", float(_FOLD[op](*(n[1] for n in args))))
    if op == "neg" and a[0] == "neg":
        return a[1]
    if op == "add" and _ZERO in args:
        return b if a == _ZERO else a
    if op == "sub" and _ZERO in args:
        return a if b == _ZERO else _node("neg", b)
    if op == "mul":
        if _ZERO in args:
            return _ZERO
        if _ONE in args:
            return b if a == _ONE else a
    return (op, *args)


# --- lowering / differentiation ---------------------------------------------


def _lower(node: tuple):
    """node as a function of x, or as its float for a "const", which the
    parent applies directly. Every other node has an operand that is not a
    "const", as _node guarantees. Each closure applies the node's operation
    to the same operands in the same order as the tree reads, so scalars
    stay Python floats and arrays stay numpy."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return operator.itemgetter(node[1] - 1)
    f = _lower(node[1])
    if op == "neg":
        return lambda x: -f(x)
    if op == "pow":
        k = node[2]
        return lambda x: f(x) ** k
    if op in _FUNCTIONS:
        g = _FUNCTIONS[op][0]
        return lambda x: g(f(x))
    op, a, b = _BINARY[op], f, _lower(node[2])
    if node[1][0] == "const":
        return lambda x: op(a, b(x))
    if node[2][0] == "const":
        return lambda x: op(a(x), b)
    return lambda x: op(a(x), b(x))


def _deriv(node: tuple, var: int) -> tuple:
    op = node[0]
    if op == "const":
        return _ZERO
    if op == "var":
        return _ONE if node[1] == var else _ZERO
    a = node[1]
    if op == "pow":
        k = node[2]
        inner = _node("mul", ("const", float(k)), _node("pow", a, k - 1))
        return _node("mul", inner, _deriv(a, var))
    da = _deriv(a, var)
    if op == "neg":
        return _node("neg", da)
    if op in _FUNCTIONS:
        return _node("mul", _FUNCTIONS[op][2](a), da)
    b = node[2]
    if op == "mul":
        return _node("add", _node("mul", da, b), _node("mul", a, _deriv(b, var)))
    return _node(op, da, _deriv(b, var))  # add, sub


# --- public wrapper types ---------------------------------------------------


@dataclass(frozen=True)
class ExprAST:
    """A parsed scalar expression in dim state variables."""

    root: tuple
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

    def parse(self) -> tuple:
        node = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return node

    def expression(self) -> tuple:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = _node("add" if value == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> tuple:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = _node("mul", node, self.unary())
            else:
                return node

    def unary(self) -> tuple:
        kind, value, pos = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        if kind == "op" and value == "-":
            self.advance()
            node = _node("neg", self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> tuple:
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = _node("pow", node, self.exponent())
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

    def atom(self) -> tuple:
        kind, value, pos = self.advance()
        if kind == "number":
            return ("const", float(value))
        if kind == "ident":
            m = _VAR_RE.match(value)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"variable x{index} out of range x1..x{self.dim}", pos
                    )
                return ("var", index)
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _node(value, arg)
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
        if any(n[0] == "const" and not math.isfinite(n[1]) for n in level):
            raise ExprError(_OUT_OF_RANGE)
        level = [c for n in level for c in n[1:] if type(c) is tuple]
        if not level:
            return ExprAST(root, dim)
    raise ExprError(_TOO_DEEP)


def parse_vector_field(texts) -> VectorField:
    """Parse one expression per component; dimension equals the count."""
    texts = list(texts)
    d = len(texts)
    return VectorField(tuple(parse_expression(t, d) for t in texts))
