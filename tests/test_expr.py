import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopman_lyap.expr import (
    ExprError,
    ParseError,
    VectorField,
    parse_expression,
    parse_vector_field,
)

import expr_reference
from fdtools import rel_err


def test_parse_linear_component():
    ast = parse_expression("-2*x1", 2)
    assert ast.evaluate((1.0, 0.0)) == -2.0
    assert ast.evaluate((-3.0, 7.0)) == 6.0


def test_parse_nested_component():
    ast = parse_expression("-3*(x2 - x1^2)", 2)
    assert ast.evaluate((1.0, 0.0)) == 3.0
    assert ast.evaluate((2.0, 4.0)) == 0.0


def test_variable_evaluation():
    assert parse_expression("x1", 2).evaluate((0.0, 0.0)) == 0.0
    assert parse_expression("x2", 2).evaluate((2.0, 5.0)) == 5.0


def test_evaluate_broadcasts_arrays():
    ast = parse_expression("x1*x2 + 1", 2)
    x1 = np.array([0.0, 1.0, 2.0])
    x2 = np.array([5.0, 5.0, 5.0])
    np.testing.assert_array_equal(ast.evaluate((x1, x2)), [1.0, 6.0, 11.0])


def test_derivative_of_quadratic():
    ast = parse_expression("-3*(x2 - x1^2)", 2)
    d1 = ast.derivative(1)
    pts = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
    for p in pts:
        assert d1.evaluate(p) == pytest.approx(6.0 * p[0], abs=1e-12)
    d11 = d1.derivative(1)
    assert d11 == parse_expression("6", 2)
    assert d11.evaluate((0.3, -0.4)) == 6.0


def test_derivative_of_missing_variable_is_zero():
    d = parse_expression("x1", 2).derivative(2)
    assert d == parse_expression("0", 2)
    assert d.evaluate((3.0, 4.0)) == 0.0


def test_derivative_is_linear():
    a = parse_expression("x1^3 - 2*x2", 2)
    b = parse_expression("sin(x1*x2)", 2)
    s = parse_expression("x1^3 - 2*x2 + sin(x1*x2)", 2)
    pts = np.random.default_rng(1).uniform(-2, 2, size=(20, 2))
    for var in (1, 2):
        da, db, ds = a.derivative(var), b.derivative(var), s.derivative(var)
        for p in pts:
            assert ds.evaluate(p) == pytest.approx(
                da.evaluate(p) + db.evaluate(p), rel=1e-12, abs=1e-12
            )


def test_known_function_derivatives():
    pts = np.random.default_rng(2).uniform(-1.5, 1.5, size=(30,))
    cases = [
        ("sin(x1)", np.cos),
        ("cos(x1)", lambda t: -np.sin(t)),
        ("exp(x1)", np.exp),
        ("tanh(x1)", lambda t: 1.0 / np.cosh(t) ** 2),
    ]
    for text, dfun in cases:
        d = parse_expression(text, 1).derivative(1)
        for t in pts:
            assert d.evaluate((t,)) == pytest.approx(dfun(t), rel=1e-12, abs=1e-12)


def test_evaluate_and_derivative_of_a_square():
    ast = parse_expression("x1^2", 1)
    assert ast.evaluate((3.0,)) == 9.0
    assert ast.derivative(1).evaluate((3.0,)) == 6.0


_X1 = ("var", 1)


@pytest.mark.parametrize(
    "text, root",
    [
        *((t, ("const", 0.0)) for t in ("0*x1", "x1*0", "sin(0)")),
        *((t, _X1) for t in ("1*x1", "x1*1", "x1+0", "0+x1", "x1-0", "--x1", "x1^1")),
        ("0-x1", ("neg", _X1)),
        ("x1^0", ("const", 1.0)),
        ("2*3+1", ("const", 7.0)),
        ("2^3*x1", ("mul", ("const", 8.0), _X1)),
    ],
)
def test_constructor_folds_constants_zeros_and_ones(text, root):
    assert parse_expression(text, 2).root == root


def test_duffing_derivative_trees():
    # estimate_b_bound differentiates f2 twice
    d1 = parse_expression("-3*x2 - x1 - x1^3", 2).derivative(1)
    three = ("const", 3.0)
    assert d1.root == ("sub", ("const", -1.0), ("mul", three, ("pow", _X1, 2)))
    d11 = d1.derivative(1).root
    assert d11 == ("neg", ("mul", three, ("mul", ("const", 2.0), _X1)))


# --- parser error handling --------------------------------------------------


def test_truncated_input_reports_position():
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_expression("x1 +", 2)
    err = pytest.raises(ParseError, parse_expression, "x1 +", 2).value
    assert "at position" in str(err)
    assert err.position >= 3


def test_chained_power_rejected():
    with pytest.raises(ParseError, match="chained \\^"):
        parse_expression("x1^2^3", 2)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_expression("x1^2.5", 2)
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_expression("x1^x2", 2)


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("foo(x1)", 2)


def test_variable_out_of_range():
    with pytest.raises(ParseError, match="x3 out of range"):
        parse_expression("x3", 2)


def test_empty_expression_rejected():
    with pytest.raises(ParseError, match="empty expression"):
        parse_expression("   ", 2)


@pytest.mark.parametrize(
    "text",
    ["x1 + 10^400", "x1 + exp(1000)", "x1 + 1e400", "1e200*1e200*x1", "(1e300)^2 + x2"],
    ids=["folded-power", "folded-exp", "literal", "folded-product", "folded-power-of-literal"],
)
def test_constant_outside_float_range_rejected(text):
    with pytest.raises(ExprError, match="constant outside the floating-point range"):
        parse_expression(text, 2)


def test_deep_nesting_rejected():
    # x1 is one level, and each parenthesis, call or minus sign around it
    # one more: 100 levels parse, 101 do not
    assert parse_expression("(" * 99 + "x1" + ")" * 99, 2).evaluate((2.0, 0.0)) == 2.0
    assert parse_expression("-" * 99 + "x1", 2).evaluate((2.0, 0.0)) == -2.0
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse_expression("(" * 100 + "x1" + ")" * 100, 2)
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse_expression("-" * 100 + "x1", 2)
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse_expression("sin(" * 100 + "x1" + ")" * 100, 2)


def test_deep_trees_evaluate_at_the_default_recursion_limit():
    # lowering and evaluating recurse once per level, as the walk did
    assert sys.getrecursionlimit() == 1000
    x = (0.5, 0.0)
    for text in ("sin(" * 99 + "x1" + ")" * 99, "x2" + " + x1" * 99):
        ast = parse_expression(text, 2)
        for e in (ast, ast.derivative(1)):
            assert e.evaluate(x) == expr_reference.evaluate(e.root, x)


def test_deep_tree_rejected():
    # a chain of n sums is n levels deep; evaluating and differentiating
    # recurse once per level
    chain = "x2" + " + x1" * 99
    assert parse_expression(chain, 2).derivative(1).evaluate((0.0, 0.0)) == 99.0
    with pytest.raises(ExprError, match="nested deeper than 100 levels"):
        parse_expression(chain + " + x1", 2)


def test_stray_character_rejected():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("x1 / 2", 2)


def test_evaluate_wrong_arity():
    ast = parse_expression("x1 + x2", 2)
    with pytest.raises(ExprError, match="expected 2 variables"):
        ast.evaluate((1.0,))


def test_vector_field_wrong_arity():
    # checked once per call: a state of the wrong length would otherwise
    # leave rows of the output unwritten
    fld = parse_vector_field(["x2", "-x1"])
    for bad in (np.zeros((3, 4)), np.zeros((1, 4)), (1.0, 2.0, 3.0)):
        with pytest.raises(ExprError, match=f"expected 2 variables, got {len(bad)}"):
            fld.evaluate(bad)
    for bad in (np.zeros((4, 3)), np.zeros((4, 1))):
        with pytest.raises(ExprError, match=f"expected 2 variables, got {bad.shape[1]}"):
            fld.evaluate_at(bad)


def test_derivative_index_out_of_range():
    ast = parse_expression("x1", 2)
    with pytest.raises(ExprError, match="out of range"):
        ast.derivative(3)
    with pytest.raises(ExprError, match="out of range"):
        ast.derivative(0)


# --- vector fields -----------------------------------------------------------


def test_vector_field_square_validation():
    c1 = parse_expression("x1", 2)
    with pytest.raises(ExprError, match="square"):
        VectorField((c1,))
    with pytest.raises(ExprError, match="at least one"):
        VectorField(())


def test_parse_vector_field_evaluates():
    fld = parse_vector_field(["-2*x1", "-3*(x2 - x1^2)"])
    assert fld.dim == 2
    np.testing.assert_allclose(fld.evaluate((1.0, 1.0)), [-2.0, 0.0])
    pts = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 4.0]])
    out = fld.evaluate_at(pts)
    np.testing.assert_allclose(out, [[-2.0, 0.0], [0.0, 0.0], [-4.0, 0.0]])


def test_vector_field_batch_evaluate_matches_loop():
    fld = parse_vector_field(["x2", "-1*x1 - 0.5*x2 + x1^3"])
    pts = np.random.default_rng(3).uniform(-2, 2, size=(40, 2))
    batch = fld.evaluate_at(pts)
    for row, p in zip(batch, pts):
        # scalar and column paths may round differently by one ulp
        np.testing.assert_allclose(row, fld.evaluate(p), rtol=1e-14, atol=1e-14)


def test_constant_component_broadcasts_in_batch():
    # a component with no variables still has to fill its output column
    fld = parse_vector_field(["x2 + 0*x1", "2 + 0*x2"])
    out = fld.evaluate_at(np.array([[1.0, 5.0], [2.0, 6.0]]))
    np.testing.assert_allclose(out, [[5.0, 2.0], [6.0, 2.0]])


# --- property tests ----------------------------------------------------------

_CONST = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
    lambda v: format(float(v), ".6g")
)
_LEAF = st.one_of(_CONST, st.sampled_from(["x1", "x2"]))


def _expr_strings(depth):
    if depth == 0:
        return _LEAF
    sub = _expr_strings(depth - 1)
    return st.one_of(
        _LEAF,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.integers(0, 2)).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    )


_PROBES = np.array(
    [[0.0, 0.0], [1.0, -1.0], [0.5, 0.25], [-1.5, 0.75], [1.25, 1.5]]
)


_PYTHON_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_expr_strings(3))
def test_parse_matches_python_arithmetic(text):
    # the generated strings are valid Python once ^ is spelled **
    ast = parse_expression(text, 2)
    python = compile(text.replace("^", "**"), "<expr>", "eval")
    for p in _PROBES:
        v1 = ast.evaluate(p)
        v2 = eval(python, {"__builtins__": {}}, {**_PYTHON_NAMES, "x1": p[0], "x2": p[1]})
        assert np.isfinite(v1)
        assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-9)


def _same(a, b):
    # bitwise: the same type, shape and bytes (so -0.0 differs from 0.0)
    return (
        type(a) is type(b)
        and np.shape(a) == np.shape(b)
        and np.asarray(a).tobytes() == np.asarray(b).tobytes()
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_expr_strings(3))
def test_lowering_matches_reference_walk_bitwise(text):
    ast = parse_expression(text, 2)
    d1 = [ast.derivative(v) for v in (1, 2)]
    exprs = [ast, *d1, *(e.derivative(v) for e in d1 for v in (1, 2))]
    states = [tuple(map(float, p)) for p in _PROBES] + list(_PROBES)
    states += [_PROBES.T, list(_PROBES.T)]  # a (2, c) batch and its columns
    for e in exprs:
        for x in states:
            assert _same(e.evaluate(x), expr_reference.evaluate(e.root, x))


def test_constant_expression_evaluates_to_a_float():
    for ast in (parse_expression("2*3 + 1", 2), parse_expression("x1^2", 2).derivative(2)):
        for x in ((1.0, 2.0), np.ones((2, 3))):
            v = ast.evaluate(x)
            assert type(v) is float and v == expr_reference.evaluate(ast.root, x)


def test_evaluated_field_equals_a_fresh_parse():
    # the lowered closures are cached on the instance, not compared or hashed
    texts = ["x2", "-3*x2 - x1 - x1^3"]
    fld = parse_vector_field(texts)
    fld.evaluate((0.5, 0.25))
    fld.evaluate_at(np.ones((3, 2)))
    fresh = parse_vector_field(texts)
    assert fld == fresh and hash(fld) == hash(fresh)
    assert fld.components[1].derivative(1) == fresh.components[1].derivative(1)


def _poly_strings(depth):
    if depth == 0:
        return _LEAF
    sub = _poly_strings(depth - 1)
    return st.one_of(
        _LEAF,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.integers(0, 2)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_poly_strings(3), st.integers(1, 2))
def test_polynomial_derivative_matches_finite_difference(text, var):
    ast = parse_expression(text, 2)
    exact = ast.derivative(var)
    for p in _PROBES[1:]:
        h = 1e-5 * max(1.0, abs(p[var - 1]))
        xp = p.copy()
        xm = p.copy()
        xp[var - 1] += h
        xm[var - 1] -= h
        fd = (ast.evaluate(xp) - ast.evaluate(xm)) / (2.0 * h)
        assert rel_err(fd, exact.evaluate(p)) <= 1e-6
