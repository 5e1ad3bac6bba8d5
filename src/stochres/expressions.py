"""Tiny arithmetic expression grammar for user-defined noise coefficients.

Grammar (identifiers: the single variable ``x``; functions: exp, tanh):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right associative
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'

An expression is parsed once into a tree.  One emitter turns the tree into
the body of ``lambda x: ...`` in two forms, as ``ast`` nodes, and each form
is compiled once into a single Python function with its arithmetic inline:
``-x^3`` becomes ``lambda x: -(x * x * x)``.

- The array form evaluates with numpy semantics, so it accepts scalars and
  arrays alike and broadcasts a constant to the shape of ``x``.
- The scalar form runs on Python floats, with no numpy conversion around it;
  the compiled function sends an argument of type ``float`` there, which is
  what a single Euler path steps on, one call per step.

No user text reaches the compiler.  The tokenizer and the parser accept
only numbers, ``x``, the operators and the function names of
``_FUNCTIONS``, and the emitter builds every node from the parse tree: a
number becomes a constant node, ``x`` the lambda's argument, and each
operation a fixed operator or a call of a fixed helper name.  The forms run
in a namespace that holds only those helpers (the ufuncs, ``float``, the
two divisions and the array conversion) and empty ``__builtins__``.

The two forms round alike, bit for bit, so a path stepped one float at a
time equals its row of an ensemble stepped on arrays:

- ``+ - * /`` and unary minus are the IEEE operators in both forms (where
  Python folds an operation on literals at compile time, it uses the same
  operator); a scalar division by zero returns numpy's inf or nan instead
  of raising;
- a literal integer exponent ``x^n``, 1 <= n <= ``_MAX_MULTIPLIED_POWER``, is
  n - 1 multiplications from the left in both forms (numpy's ``power`` and
  Python's ``**`` round differently from each other and from the product);
- exp, tanh and every other power apply the numpy ufunc, which gives the same
  double for a float as for an array element.

An expression without ``x`` is folded once, at compile time, into the
compiled function's ``constant`` attribute (``None`` when ``x`` occurs,
even where it cancels, as in ``x*0+1``).  The fold runs the scalar form,
so ``constant`` is the double every evaluation returns; a fold that divides
by zero or overflows gives numpy's inf or nan without a warning.  The
Euler-Maruyama stepper forms a constant diffusion's increments for a whole
chunk of steps at once instead of calling the coefficient at every step.
"""
from __future__ import annotations

import ast
import itertools
import re
from typing import Callable, Iterator

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ValueError):
    """Malformed coefficient expression."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS: dict[str, np.ufunc] = {"exp": np.exp, "tanh": np.tanh}

# larger literal integer exponents go through ``power``: the product's cost
# and its rounding error grow with n
_MAX_MULTIPLIED_POWER = 16

# A parse tree node is a tuple: ("num", value), ("x",), ("neg", a), (op, a, b)
# for op in + - * / ^, or (function name, a).
Node = tuple


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ExpressionError(f"expected {op!r}, found {tok[1]!r} in {self.source!r}")

    def parse(self) -> Node:
        node = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input {self.peek()[1]!r} in {self.source!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            node = (self.take()[1], node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            node = (self.take()[1], node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return ("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, text = self.take()
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            if text == "x":
                return ("x",)
            if text not in _FUNCTIONS:
                raise ExpressionError(f"unknown identifier {text!r} in {self.source!r}")
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return (text, arg)
        if (kind, text) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {text!r} in {self.source!r}")


def _multiplied_power(exponent: Node) -> int | None:
    """n when ``exponent`` is a literal integer the power multiplies out."""
    if exponent[0] != "num":
        return None
    value = exponent[1]
    return int(value) if value.is_integer() and 1 <= value <= _MAX_MULTIPLIED_POWER else None


def _has_x(node: Node) -> bool:
    return node[0] == "x" or any(_has_x(child) for child in node[1:] if isinstance(child, tuple))


def _scalar_divide(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        return float(np.divide(a, b))


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _product(base: ast.expr, n: int, names: Iterator[str]) -> ast.expr:
    """``base`` multiplied by itself n - 1 times from the left; a compound
    base is evaluated once, into a fresh local name."""
    if n == 1:
        return base
    first = again = base
    if not isinstance(base, (ast.Name, ast.Constant)):
        name = next(names)
        first = ast.NamedExpr(ast.Name(name, ast.Store()), base)
        again = ast.Name(name, ast.Load())
    out = first
    for _ in range(n - 1):
        out = ast.BinOp(out, ast.Mult(), again)
    return out


_OPERATORS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}


def _emit(node: Node, scalar: bool, names: Iterator[str]) -> ast.expr:
    """The body of the scalar (over Python floats) or the array (numpy
    semantics) form of ``node``, as an expression in ``x``."""
    kind = node[0]
    if kind == "num":
        return ast.Constant(node[1])
    if kind == "x":
        x = ast.Name("x", ast.Load())
        return x if scalar else _call("_float_array", x)
    a = _emit(node[1], scalar, names)
    if kind == "neg":
        return ast.UnaryOp(ast.USub(), a)
    if kind in _FUNCTIONS:
        return _call("float", _call(kind, a)) if scalar else _call(kind, a)
    n = _multiplied_power(node[2]) if kind == "^" else None
    if n is not None:
        return _product(a, n, names)
    b = _emit(node[2], scalar, names)
    if kind in _OPERATORS:
        return ast.BinOp(a, _OPERATORS[kind](), b)
    if kind == "/":
        return _call("_scalar_divide", a, b) if scalar else _call("divide", a, b)
    return _call("float", _call("power", a, b)) if scalar else _call("power", a, b)


def _float_array(x):
    return np.asarray(x, dtype=float)


# every global name a compiled form reads; it sees no builtins
_HELPERS = {
    "float": float,
    "_float_array": _float_array,
    "_scalar_divide": _scalar_divide,
    "divide": np.divide,
    "power": np.power,
    **_FUNCTIONS,
}


def _compile(tree: Node, scalar: bool) -> Callable:
    """``lambda x: ...`` of the scalar or the array form of ``tree``,
    compiled once from the emitted nodes."""
    body = _emit(tree, scalar, map("_b{}".format, itertools.count()))
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x")], kwonlyargs=[], kw_defaults=[], defaults=[])
    code = compile(ast.fix_missing_locations(ast.Expression(ast.Lambda(args, body))), "<coefficient>", "eval")
    return eval(code, dict(_HELPERS, __builtins__={}))


def compile_expression(text: str) -> Callable:
    """Compile a coefficient expression into a callable of x.

    A Python float goes to the scalar form and comes back a float; anything
    else goes to the array form, scalar-in scalar-out, broadcasting over
    numpy arrays.  Both forms give the same doubles (see the module
    docstring).  The callable's ``scalar`` and ``array`` are the two forms
    themselves, with no dispatch or shape handling around them, and its
    ``constant`` is the expression's value when it has no ``x``, else None.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    tree = _Parser(_tokenize(text), text).parse()
    scalar = _compile(tree, scalar=True)
    array = _compile(tree, scalar=False)

    def fn(x):
        if type(x) is float:
            return scalar(x)
        out = np.asarray(array(x), dtype=float)
        if out.ndim == 0 and np.ndim(x) == 0:
            return float(out)
        return np.broadcast_to(out, np.shape(x)).copy() if out.shape != np.shape(x) else out

    fn.scalar = scalar
    fn.array = array
    fn.constant = None
    if not _has_x(tree):
        with np.errstate(all="ignore"):
            fn.constant = scalar(0.0)
    return fn
