import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochres.expressions import ExpressionError, _parse, compile_expression


def test_constants_and_variable():
    assert compile_expression("2.5")(0.0) == 2.5
    assert compile_expression("x")(3.0) == 3.0
    assert compile_expression("1e-2")(0.0) == 0.01


@pytest.mark.parametrize("text, value", [("1", 1.0), ("2*3", 6.0), ("-4", -4.0), ("exp(0)", 1.0)])
def test_expression_without_x_folds_to_its_constant(text, value):
    constant = compile_expression(text).constant
    assert type(constant) is float and constant == value


@pytest.mark.parametrize("text", ["x", "x*0+1", "1+0*x"])
def test_expression_with_x_has_no_constant(text):
    assert compile_expression(text).constant is None


def test_folding_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compile_expression("1/0").constant == math.inf
        assert math.isnan(compile_expression("0/0").constant)
        assert compile_expression("exp(1000)").constant == math.inf


def test_precedence():
    f = compile_expression("2+3*4")
    assert f(0.0) == 14.0
    assert compile_expression("(2+3)*4")(0.0) == 20.0
    assert compile_expression("2*x+1")(3.0) == 7.0


def test_power_right_associative():
    assert compile_expression("2^3^2")(0.0) == 512.0
    assert compile_expression("x^2")(4.0) == 16.0
    assert compile_expression("2^-1")(0.0) == 0.5


def test_unary_minus_binds_looser_than_power():
    assert compile_expression("-x^2")(3.0) == -9.0
    assert compile_expression("(-x)^2")(3.0) == 9.0
    assert compile_expression("--x")(2.0) == 2.0


def test_division():
    assert compile_expression("x/4")(2.0) == 0.5
    assert compile_expression("1/x")(4.0) == 0.25


def test_functions():
    assert compile_expression("exp(x)")(1.0) == pytest.approx(math.e)
    assert compile_expression("tanh(x)")(0.5) == pytest.approx(math.tanh(0.5))
    assert compile_expression("exp(-x^2)")(2.0) == pytest.approx(math.exp(-4.0))


def test_vectorized_evaluation():
    f = compile_expression("-x^3")
    xs = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(f(xs), [1.0, 0.0, -8.0])
    g = compile_expression("1")
    assert np.allclose(g(xs), [1.0, 1.0, 1.0])
    assert g(xs).shape == xs.shape


def _same_double(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def _grouped(template):
    return lambda parts: template.format(*parts)


# expressions over every grammar operation: + - * / ^ (literal integer and
# fractional exponents, a variable exponent), unary minus, exp and tanh; the
# literal 0 and x - x make divisions by zero
EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "0", "1", "2", "0.5", "3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(_grouped("({}){}({})")),
        inner.map("-({})".format),
        st.tuples(st.sampled_from(["exp", "tanh"]), inner).map(_grouped("{}({})")),
        st.tuples(inner, st.sampled_from(["2", "3", "4", "0.5", "1.5", "-1", "x"])).map(_grouped("({})^{}")),
    ),
    max_leaves=8,
)
VALUES = st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.sampled_from(["1/x", "x/(x-x)", "-x^3", "-tanh(x)", "1+0.5*exp(-x^2)"]), EXPRESSIONS),
       v=VALUES)
def test_scalar_form_rounds_like_the_array_form(text, v):
    f = compile_expression(text)
    with np.errstate(all="ignore"):
        scalar = f(float(v))
        array = f(np.array([v]))
    assert type(scalar) is float
    assert _same_double(scalar, float(array[0])), (text, v, scalar, array[0])


def _reference(node, x: float) -> float:
    """The rounding contract applied to the parse tree one node at a time."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "x":
        return x
    a = _reference(node[1], x)
    if kind == "neg":
        return -a
    if kind in ("exp", "tanh"):
        return float(getattr(np, kind)(a))
    if kind == "^" and node[2][0] == "num" and node[2][1].is_integer() and 1 <= node[2][1] <= 16:
        out = a
        for _ in range(int(node[2][1]) - 1):
            out = out * a
        return out
    b = _reference(node[2], x)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return float(np.divide(a, b))
    return float(np.power(a, b))


@settings(max_examples=400, deadline=None)
@given(text=EXPRESSIONS, v=VALUES)
def test_scalar_form_is_the_float_route_and_follows_the_tree(text, v):
    f = compile_expression(text)
    with np.errstate(all="ignore"):
        scalar = f.scalar(float(v))
        reference = _reference(_parse(text), float(v))
        called = f(float(v))
    assert type(scalar) is float
    assert _same_double(scalar, called), (text, v, scalar, called)
    assert _same_double(scalar, reference), (text, v, scalar, reference)


@pytest.mark.parametrize("text", ["x", "2", "-x^3", "((x+1)^2+1)^3", "1+0.5*exp(-x^2)", "x/(1-x)^0.5", "tanh(x)^x"])
def test_compiled_forms_see_only_their_helpers(text):
    f = compile_expression(text)
    helpers = {"float", "_float_array", "_scalar_divide", "divide", "power", "exp", "tanh"}
    for form in (f.scalar, f.array):
        assert form.__globals__["__builtins__"] == {}
        assert set(form.__globals__) == helpers | {"__builtins__"}
        assert set(form.__code__.co_names) <= helpers


def test_a_single_path_calls_the_scalar_forms_once_a_step():
    from stochres import DiffusionSpec, SimConfig, simulate_path

    drift, sigma = compile_expression("-tanh(x)"), compile_expression("1+0.5*exp(-x^2)")
    cfg = SimConfig(T=6.0, dt=0.01, seed=5)
    expected = simulate_path(DiffusionSpec(drift, sigma), cfg)
    calls = {"drift": 0, "sigma": 0}

    def counted(name, form):
        def scalar(x):
            calls[name] += 1
            return form(x)

        return scalar

    drift.scalar = counted("drift", drift.scalar)
    sigma.scalar = counted("sigma", sigma.scalar)
    path = simulate_path(DiffusionSpec(drift, sigma), cfg)
    assert calls == {"drift": cfg.n_steps, "sigma": cfg.n_steps}
    assert np.array_equal(path.values, expected.values)


def test_integer_powers_are_products_from_the_left():
    xs = np.random.default_rng(3).standard_normal(1000) * 3.0
    cube = compile_expression("x^3")
    assert np.array_equal(cube(xs), xs * xs * xs)
    assert [cube(v) for v in xs.tolist()] == (xs * xs * xs).tolist()
    assert compile_expression("x^1")(0.1) == 0.1


def test_whitespace_tolerated():
    assert compile_expression(" - x ^ 2 + 1 ")(2.0) == -3.0


# malformed text, then Python syntax outside the grammar ("1if x else 2"
# draws Python's "invalid decimal literal" warning; a fullwidth x would be
# read as x, a fullwidth digit is not a digit of the grammar)
_REJECTED = [
    "", "  ", "y", "sin(x)", "2+", "exp(x", "(x", "x)", "2 3", "x & 2", "^2",
    "x**2", "+x", "x//2", "x%2", "exp(x,)", "exp(x, 2)", "exp(x=1)", "x.real", "x[0]", "0x1F", "1_0", "1j",
    "True", "1if x else 2", "(y:=1)", "lambda: x", "\uff58", "\uff13*x", "__import__('os')", "(exp)(x)",
]


@pytest.mark.parametrize("bad", _REJECTED)
def test_malformed_expressions_rejected(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)


@pytest.mark.parametrize("bad", _REJECTED)
def test_rejection_emits_no_warning(bad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionError):
            compile_expression(bad)
    assert caught == []


# the tree of each README, workload and test expression, recorded from the
# recursive-descent parser that preceded `_parse`
_TREES = [
    ("-x^3", ("neg", ("^", ("x",), ("num", 3.0)))),
    ("1", ("num", 1.0)),
    ("-x", ("neg", ("x",))),
    ("-4*x", ("*", ("neg", ("num", 4.0)), ("x",))),
    ("2", ("num", 2.0)),
    ("-tanh(x)", ("neg", ("tanh", ("x",)))),
    ("1+0.5*exp(-x^2)", ("+", ("num", 1.0), ("*", ("num", 0.5), ("exp", ("neg", ("^", ("x",), ("num", 2.0))))))),
    ("2*x-x^3", ("-", ("*", ("num", 2.0), ("x",)), ("^", ("x",), ("num", 3.0)))),
    ("-x*(x^2-4)*(x^2-9)/10", ("/", ("*", ("*", ("neg", ("x",)), ("-", ("^", ("x",), ("num", 2.0)), ("num", 4.0))),
                                       ("-", ("^", ("x",), ("num", 2.0)), ("num", 9.0))), ("num", 10.0))),
    ("(x-0.0123)^2", ("^", ("-", ("x",), ("num", 0.0123)), ("num", 2.0))),
    ("-x/(2*(1+x^2))", ("/", ("neg", ("x",)), ("*", ("num", 2.0), ("+", ("num", 1.0), ("^", ("x",), ("num", 2.0)))))),
    ("-x^7", ("neg", ("^", ("x",), ("num", 7.0)))),
    ("-x^9", ("neg", ("^", ("x",), ("num", 9.0)))),
    ("-(x-2)", ("neg", ("-", ("x",), ("num", 2.0)))),
    ("-3*(x-1)", ("*", ("neg", ("num", 3.0)), ("-", ("x",), ("num", 1.0)))),
    ("1+x^2", ("+", ("num", 1.0), ("^", ("x",), ("num", 2.0)))),
    ("exp(x)", ("exp", ("x",))),
    ("-tanh(5*x)", ("neg", ("tanh", ("*", ("num", 5.0), ("x",))))),
    ("0.01", ("num", 0.01)),
    ("1e-2", ("num", 0.01)),
    ("2^3^2", ("^", ("num", 2.0), ("^", ("num", 3.0), ("num", 2.0)))),
    ("2^-1", ("^", ("num", 2.0), ("neg", ("num", 1.0)))),
    ("--x", ("neg", ("neg", ("x",)))),
    ("(-x)^2", ("^", ("neg", ("x",)), ("num", 2.0))),
    ("-x^2", ("neg", ("^", ("x",), ("num", 2.0)))),
    (" - x ^ 2 + 1 ", ("+", ("neg", ("^", ("x",), ("num", 2.0))), ("num", 1.0))),
]


@pytest.mark.parametrize("text, tree", _TREES)
def test_trees_are_pinned(text, tree):
    assert _parse(text) == tree


def test_leading_zeros_and_any_whitespace():
    assert _parse("007") == ("num", 7.0)
    assert _parse("x^02") == _parse("x^2")
    spaced = _parse("-x ^ 3 + 1")
    for space in ("\n", "\t", "\u3000", "\u00a0"):
        assert _parse(space.join(["-x", "^", "3", "+", "1"])) == spaced


@pytest.mark.parametrize("drift", ["-" * 2000 + "x", "-" * 100_000 + "x", "+".join(["x"] * 100_000),
                                   "(" * 250 + "x" + ")" * 250],
                         ids=["2000 minus signs", "100000 minus signs", "100000-term sum", "250 parentheses"])
def test_deep_nesting_is_a_named_error(tmp_path, capsys, drift):
    from stochres.cli import main

    assert main(["law", f"--drift={drift}", "--sigma", "1", "--out", str(tmp_path / "law")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad coefficient expression: ") and err.count("\n") == 1
    assert ("too many nested parentheses" if drift.startswith("(") else "nests too deeply") in err


def test_expression_as_diffusion_coefficient():
    from stochres import DiffusionSpec, check_ergodicity

    spec = DiffusionSpec(
        drift=compile_expression("-x^3"),
        diffusion=compile_expression("1"),
        label="cubic",
    )
    report = check_ergodicity(spec)
    assert report.c2_holds and report.c3_holds
