"""Tiny arithmetic expression grammar for user-defined noise coefficients.

Grammar (identifiers: the single variable ``x``; functions: exp, tanh):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right associative
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    NUMBER := D+ ['.' D*] [E] | '.' D+ [E]     D a digit 0-9
    E      := ('e' | 'E') ['+' | '-'] D+

This is a subset of Python's expression grammar, with ``^`` for ``**``, so
Python's own parser reads it.  ``_parse`` makes four steps:

1. It refuses any character outside the alphabet (ASCII digits and
   letters, ``.``, ``+ - * / ^ ( )`` and whitespace), and ``**``.
2. It normalizes the text: each run of whitespace (a newline, a tab or a
   Unicode space alike) becomes one space, the zeros that lead a decimal
   integer are dropped (the grammar reads ``007`` as 7; Python refuses
   it), and ``^`` becomes ``**``.
3. ``ast.parse`` reads the result, with warnings turned into errors.  It
   builds a tree and runs nothing.
4. One walk admits the grammar's nodes only and builds the tuple tree from
   them: a literal whose source text is a NUMBER, the name ``x``, unary
   minus, ``+ - * / **``, and a call of exp or tanh, by its bare name, with
   one positional argument.  Any other node (``x.real``, ``x//2``,
   ``+x``, ``1j``, ``0x1F``, a keyword argument, ``(exp)(x)``) raises
   ExpressionError naming the part that is not allowed.

A text that Python cannot parse raises ExpressionError with the parser's
message.  A text that nests too deeply for the parser, the walk or the
compiler raises ExpressionError("... nests too deeply"), not
RecursionError or MemoryError.

An expression is parsed once.  One emitter turns the tree into
the body of ``lambda x: ...`` in two forms, as ``ast`` nodes, and each form
is compiled once into a single Python function with its arithmetic inline:
``-x^3`` becomes ``lambda x: -(x * x * x)``.

- The array form evaluates with numpy semantics, so it accepts scalars and
  arrays alike and broadcasts a constant to the shape of ``x``.
- The scalar form runs on Python floats, with no numpy conversion around it;
  the compiled function sends an argument of type ``float`` there, which is
  what a single Euler path steps on, one call per step.

No user text reaches the compiler.  The emitter builds every node it
compiles from the tuple tree: a number becomes a constant node, ``x`` the
lambda's argument, and each operation a fixed operator or a call of a
fixed helper name.  The forms run in a namespace that holds only those
helpers (the ufuncs, ``float``, the two divisions and the array
conversion) and empty ``__builtins__``.

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
import reprlib
import warnings
from typing import Callable, Iterator

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]


class ExpressionError(ValueError):
    """Malformed coefficient expression."""


_FUNCTIONS: dict[str, np.ufunc] = {"exp": np.exp, "tanh": np.tanh}

# larger literal integer exponents go through ``power``: the product's cost
# and its rounding error grow with n
_MAX_MULTIPLIED_POWER = 16

# A parse tree node is a tuple: ("num", value), ("x",), ("neg", a), (op, a, b)
# for op in + - * / ^, or (function name, a).
Node = tuple

# a character outside the grammar's alphabet, or Python's power operator
_NOT_ALLOWED = re.compile(r"[^0-9A-Za-z.+\-*/^()\s]|\*\*")
# the zeros that lead a decimal integer: the grammar reads 007 as 7
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_TOO_DEEP = "expression {} nests too deeply"
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _parse(text: str) -> Node:
    """The tree of ``text``, read by Python's parser and admitted node by
    node (see the module docstring)."""
    if bad := _NOT_ALLOWED.search(text):
        raise ExpressionError(f"{bad[0]!r} is not allowed in {reprlib.repr(text)}")
    source = _LEADING_ZEROS.sub("", " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"malformed expression {reprlib.repr(text)}: {exc.msg}") from None
    except MemoryError:  # the parser's own stack overflowed
        raise ExpressionError(_TOO_DEEP.format(reprlib.repr(text))) from None

    def walk(node: ast.expr) -> Node:
        part = source[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(part):
            return ("num", float(part))
        if isinstance(node, ast.Name) and node.id == "x":
            return ("x",)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], walk(node.left), walk(node.right))
        # the name must open the call: ``(exp)(x)`` is not in the grammar
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                and node.func.col_offset == node.col_offset and len(node.args) == 1 and not node.keywords):
            return (node.func.id, walk(node.args[0]))
        raise ExpressionError(f"{reprlib.repr(part)} is not allowed in {reprlib.repr(text)}")

    return walk(body)


def _multiplied_power(exponent: Node) -> int | None:
    """n when ``exponent`` is a literal integer the power multiplies out."""
    if exponent[0] == "num" and exponent[1].is_integer() and 1 <= exponent[1] <= _MAX_MULTIPLIED_POWER:
        return int(exponent[1])
    return None


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
    try:
        tree = _parse(text)
        scalar, array = _compile(tree, scalar=True), _compile(tree, scalar=False)
        has_x = _has_x(tree)
    except RecursionError:
        raise ExpressionError(_TOO_DEEP.format(reprlib.repr(text))) from None

    def fn(x):
        if type(x) is float:
            return scalar(x)
        out = np.asarray(array(x), dtype=float)
        if out.ndim == 0 and np.ndim(x) == 0:
            return float(out)
        return np.broadcast_to(out, np.shape(x)).copy() if out.shape != np.shape(x) else out

    fn.scalar, fn.array = scalar, array
    with np.errstate(all="ignore"):
        fn.constant = None if has_x else scalar(0.0)
    return fn
