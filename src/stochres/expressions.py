"""Tiny arithmetic expression grammar for user-defined noise coefficients.

Grammar (identifiers: the single variable ``x``; functions: exp, tanh):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right associative
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'

An expression is parsed once into a tree, from which two closure trees are
built.  No eval() is involved.

- The array form evaluates with numpy semantics, so it accepts scalars and
  arrays alike and broadcasts a constant to the shape of ``x``.
- The scalar form runs on Python floats, with no numpy conversion around it;
  the compiled function sends an argument of type ``float`` there, which is
  what a single Euler path steps on.

The two forms round alike, bit for bit, so a path stepped one float at a
time equals its row of an ensemble stepped on arrays:

- ``+ - * /`` and unary minus are the IEEE operators in both forms; a scalar
  division by zero returns numpy's inf or nan instead of raising;
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

import re
from typing import Callable

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


def _closure(node: Node, scalar: bool) -> Callable:
    """The closure tree of ``node``: over Python floats when ``scalar``,
    with numpy semantics otherwise."""
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda x: value
    if kind == "x":
        return (lambda x: x) if scalar else (lambda x: np.asarray(x, dtype=float))
    a = _closure(node[1], scalar)
    if kind == "neg":
        return lambda x: -a(x)
    if kind in _FUNCTIONS:
        ufunc = _FUNCTIONS[kind]
        return (lambda x: float(ufunc(a(x)))) if scalar else (lambda x: ufunc(a(x)))
    n = _multiplied_power(node[2]) if kind == "^" else None
    if n is not None:
        repeats = range(n - 1)

        def power(x):
            base = a(x)
            out = base
            for _ in repeats:
                out = out * base
            return out

        return power
    b = _closure(node[2], scalar)
    if kind == "+":
        return lambda x: a(x) + b(x)
    if kind == "-":
        return lambda x: a(x) - b(x)
    if kind == "*":
        return lambda x: a(x) * b(x)
    if kind == "/":
        return (lambda x: _scalar_divide(a(x), b(x))) if scalar else (lambda x: np.divide(a(x), b(x)))
    return (lambda x: float(np.power(a(x), b(x)))) if scalar else (lambda x: np.power(a(x), b(x)))


def compile_expression(text: str) -> Callable:
    """Compile a coefficient expression into a callable of x.

    A Python float goes to the scalar form and comes back a float; anything
    else goes to the array form, scalar-in scalar-out, broadcasting over
    numpy arrays.  Both forms give the same doubles (see the module
    docstring).  The callable's ``constant`` is the expression's value when
    it has no ``x``, else None.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    tree = _Parser(_tokenize(text), text).parse()
    scalar = _closure(tree, scalar=True)
    array = _closure(tree, scalar=False)

    def fn(x):
        if type(x) is float:
            return scalar(x)
        out = np.asarray(array(x), dtype=float)
        if out.ndim == 0 and np.ndim(x) == 0:
            return float(out)
        return np.broadcast_to(out, np.shape(x)).copy() if out.shape != np.shape(x) else out

    fn.constant = None
    if not _has_x(tree):
        with np.errstate(all="ignore"):
            fn.constant = scalar(0.0)
    return fn
