"""The spec grammar shared by the library parsers and the CLI.

A spec is a call `name(arg, ...)`; an argument is a number (an int or
float literal, optionally negated), a string, a list or tuple of
arguments, or a nested call.  Expressions in t are compiled by
compile_expr: checked once against a whitelist of names, operators and
function arities, then built into one closure per node.  Nothing is
evaluated while parsing.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

import numpy as np

# name -> (numpy function, number of arguments)
_FUNCS = {
    "sin": (np.sin, 1), "cos": (np.cos, 1), "tan": (np.tan, 1),
    "exp": (np.exp, 1), "log": (np.log, 1), "log1p": (np.log1p, 1),
    "sqrt": (np.sqrt, 1), "abs": (np.abs, 1),
    "sinh": (np.sinh, 1), "cosh": (np.cosh, 1), "tanh": (np.tanh, 1),
    "arctan": (np.arctan, 1), "min": (np.minimum, 2), "max": (np.maximum, 2),
}
_CONSTS = {"pi": np.pi, "e": np.e}
_BINOPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.divide, ast.Pow: np.power,
}


class Call(NamedTuple):
    """A spec `name(arg, ...)`; args holds floats, strs, lists, tuples and Calls."""

    name: str
    args: tuple


def read_call(text, kind):
    """Read spec text `name(arg, ...)` into a Call; ValueError outside the
    grammar, with kind ("profile", "initial", ...) naming the spec."""
    try:
        node = ast.parse(text.strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"bad {kind} spec {text!r}: {exc.msg}") from None
    if not isinstance(node, ast.Call):
        raise ValueError(f"{kind} spec must be a call, got {text!r}")
    try:
        return _argument(node, text)
    except OverflowError:
        raise ValueError(f"number out of range in {text!r}") from None


def number(text):
    """The value of text if it is a number in the spec grammar, else None."""
    try:
        value = _argument(ast.parse(text, mode="eval").body, text)
    except (SyntaxError, ValueError, OverflowError):
        return None
    return value if isinstance(value, float) else None


def _argument(node, text):
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ValueError(f"unsupported call in {text!r}")
        return Call(node.func.id, tuple(_argument(a, text) for a in node.args))
    if isinstance(node, (ast.List, ast.Tuple)):
        items = [_argument(el, text) for el in node.elts]
        return items if isinstance(node, ast.List) else tuple(items)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _argument(node.operand, text)
        if isinstance(value, float):
            return -value
    elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    raise ValueError(f"spec arguments must be numbers, strings, lists, "
                     f"tuples or calls: {text!r}")


def compile_expr(text):
    """Compile an arithmetic expression in t into a vectorized callable.

    Supported: numbers, t, + - * / **, unary - and +, pi, e, the functions
    sin cos tan exp log log1p sqrt abs sinh cosh tanh arctan of one
    argument and min max of two.  Anything else raises ValueError here;
    the expression is not evaluated until the callable is called, and then
    without numpy warnings: NaN and inf are the caller's to check.
    """
    try:
        fn = _compile(ast.parse(text, mode="eval").body, text)
    except SyntaxError as exc:
        raise ValueError(f"bad expression {text!r}: {exc.msg}") from None
    except OverflowError:
        raise ValueError(f"number out of range in {text!r}") from None

    def quiet(t):
        with np.errstate(all="ignore"):
            return fn(t)

    return quiet


def _compile(node, text):
    """A closure applying the node's numpy operation to its children's values."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"bad literal {node.value!r} in {text!r}")
        value = float(node.value)
        return lambda t: value
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda t: t
        if node.id not in _CONSTS:
            raise ValueError(f"unknown name {node.id!r} in {text!r}")
        value = _CONSTS[node.id]
        return lambda t: value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, text), _compile(node.right, text)
        return lambda t: op(left(t), right(t))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, text)
        return operand if isinstance(node.op, ast.UAdd) else lambda t: -operand(t)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ValueError(f"unsupported call in {text!r}")
        if node.func.id not in _FUNCS:
            raise ValueError(f"unknown function {node.func.id!r} in {text!r}")
        fn, arity = _FUNCS[node.func.id]
        args = [_compile(a, text) for a in node.args]
        if len(args) != arity:
            raise ValueError(f"{node.func.id}() takes {arity} argument(s), "
                             f"got {len(args)}, in {text!r}")
        if arity == 1:
            (arg,) = args
            return lambda t: fn(arg(t))
        first, second = args
        return lambda t: fn(first(t), second(t))
    raise ValueError(f"unsupported syntax in expression {text!r}")
