import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochres.expressions import ExpressionError, compile_expression


def test_constants_and_variable():
    assert compile_expression("2.5")(0.0) == 2.5
    assert compile_expression("x")(3.0) == 3.0
    assert compile_expression("1e-2")(0.0) == 0.01


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


def test_integer_powers_are_products_from_the_left():
    xs = np.random.default_rng(3).standard_normal(1000) * 3.0
    cube = compile_expression("x^3")
    assert np.array_equal(cube(xs), xs * xs * xs)
    assert [cube(v) for v in xs.tolist()] == (xs * xs * xs).tolist()
    assert compile_expression("x^1")(0.1) == 0.1


def test_whitespace_tolerated():
    assert compile_expression(" - x ^ 2 + 1 ")(2.0) == -3.0


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "y", "sin(x)", "2+", "exp(x", "(x", "x)", "2 3", "x & 2", "^2"],
)
def test_malformed_expressions_rejected(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)


def test_expression_as_diffusion_coefficient():
    from stochres import DiffusionSpec, check_ergodicity

    spec = DiffusionSpec(
        drift=compile_expression("-x^3"),
        diffusion=compile_expression("1"),
        label="cubic",
    )
    report = check_ergodicity(spec)
    assert report.c2_holds and report.c3_holds
