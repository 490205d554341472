"""The spec grammar: the one reader, and compiled expressions pinned to the
tree walker they replace.

compile_expr checks an expression once and builds one closure per node.
The walker below re-visits the tree on every call; it is the evaluator the
closures replaced, kept here as the oracle they must match bit for bit.
"""

import ast
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degparab import compile_expr, parse_coefficients, parse_profile
from degparab.spec import Call, number, read_call

_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "log1p": np.log1p,
    "sqrt": np.sqrt, "abs": np.abs,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "arctan": np.arctan,
    "min": np.minimum, "max": np.maximum,
}
_CONSTS = {"pi": np.pi, "e": np.e}
_BINOPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.divide, ast.Pow: np.power,
}


def walk(text, t):
    """Evaluate text at t by walking its syntax tree (the oracle)."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ValueError(f"bad literal {node.value!r} in {text!r}")
        if isinstance(node, ast.Name):
            if node.id == "t":
                return t
            if node.id in _CONSTS:
                return _CONSTS[node.id]
            raise ValueError(f"unknown name {node.id!r} in {text!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -ev(node.operand)
            if isinstance(node.op, ast.UAdd):
                return ev(node.operand)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ValueError(f"unsupported call in {text!r}")
            fn = _FUNCS.get(node.func.id)
            if fn is None:
                raise ValueError(f"unknown function {node.func.id!r} in {text!r}")
            return fn(*[ev(a) for a in node.args])
        raise ValueError(f"unsupported syntax in expression {text!r}")

    return ev(ast.parse(text, mode="eval"))


def assert_same(text, t):
    """Compiled and walked values agree bit for bit, in type and dtype."""
    with np.errstate(all="ignore"):
        new = compile_expr(text)(t)
        old = walk(text, t)
    assert type(new) is type(old), text
    assert np.asarray(new).dtype == np.asarray(old).dtype, text
    assert np.array_equal(new, old, equal_nan=True), text


literals = st.one_of(
    st.integers(-5, 5),
    st.floats(-10.0, 10.0, allow_nan=False).map(lambda x: round(x, 3)),
).map(repr)
leaves = st.one_of(literals, st.sampled_from(["0", "t", "pi", "e"]))
UNARY_FUNCS = sorted(name for name in _FUNCS if name not in ("min", "max"))


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**"]),
                  children).map(lambda x: f"({x[0]} {x[1]} {x[2]})"),
        st.tuples(st.sampled_from(["-", "+"]), children).map(
            lambda x: f"{x[0]}({x[1]})"),
        st.tuples(st.sampled_from(UNARY_FUNCS), children).map(
            lambda x: f"{x[0]}({x[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda x: f"{x[0]}({x[1]}, {x[2]})"),
    )


expressions = st.recursive(leaves, _extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(text=expressions, t=st.floats(-3.0, 3.0, allow_nan=False))
def test_compiled_expression_matches_walker(text, t):
    assert_same(text, np.array([0.0, t, 0.25, 1.0, -2.0]))
    assert_same(text, float(t))
    assert_same(text, np.float64(t))


@pytest.mark.parametrize("text, check", [
    ("(-8)**(1/3)", np.isnan),   # real nan, not a complex root
    ("1/0", np.isposinf),        # inf, not ZeroDivisionError
    ("10**400", np.isposinf),    # inf, not OverflowError
])
def test_literal_arithmetic_stays_in_numpy(text, check):
    for t in (0.5, np.float64(0.5), np.array([0.0, 0.5])):
        assert_same(text, t)
    with np.errstate(all="ignore"):
        assert check(compile_expr(text)(0.5))


def test_parsing_evaluates_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_profile('expr("1+sin(1/t)")')
        compile_expr("log(t) / t")


@pytest.mark.parametrize("text", [
    "sin(t, t)", "sin()", "min(t)", "max(t, t, t)", "sin + t", "t(1)",
    "t // 2", "x + 1", "sin(t, out=t)", "'a'",
    pytest.param("1" + "0" * 400, id="huge-literal"),
])
def test_compile_rejects_outside_whitelist(text):
    with pytest.raises(ValueError):
        compile_expr(text)


@pytest.mark.parametrize("spec", [
    "constant(2.5)", "power(-0.5)", "oscillatory()", 'expr("1+sin(1/t)")',
    'piecewise([(0.0, "0"), (1.0, "t")])',
])
def test_profile_spec_reads_back_to_itself(spec):
    profile = parse_profile(spec)
    assert parse_profile(profile.spec).spec == profile.spec


def test_numeric_matrix_keeps_closed_form_cumulative():
    for text in ('matrix([["1", "0"], ["0", "1"]])',
                 'matrix([[2, -0.5], [-0.5, 1]])'):
        path = parse_coefficients(text, 2)
        assert path.cumulative is not None
    assert np.array_equal(path.cumulative(2.0), [[4.0, -1.0], [-1.0, 2.0]])
    path = parse_coefficients('matrix([["1", "t"], ["t", "1"]])', 2)
    assert path.cumulative is None


def test_read_call_parses_nested_arguments():
    assert read_call(' separable("1 - t", gaussian(1.5)) ', "forcing") == \
        Call("separable", ("1 - t", Call("gaussian", (1.5,))))
    assert read_call('piecewise([(0, "0"), (-1e-3, "t")])', "profile") == \
        Call("piecewise", ([(0.0, "0"), (-1e-3, "t")],))
    assert read_call("mode(--2, 3)", "initial") == Call("mode", (2.0, 3.0))
    assert read_call("oscillatory()", "profile") == Call("oscillatory", ())


@pytest.mark.parametrize("text", [
    "", "power", "power(1", "power(x)", "power(alpha=1)", "f(1)(2)",
    "power(1 + 1)", "power(-'a')", "power({1: 2})",
    pytest.param("power(1" + "0" * 400 + ")", id="huge-literal"),
])
def test_read_call_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        read_call(text, "profile")


def test_number_recognizes_literals_only():
    assert number("2") == 2.0
    assert number("-0.5") == -0.5
    assert number("1e-3") == 1e-3
    for text in ("t", "1 + 1", '"1"', "+1", "sin(1)", "(1, 2)"):
        assert number(text) is None
