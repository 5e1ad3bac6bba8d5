import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochres
from stochres import (
    DiffusionSpec,
    build_invariant_law,
    check_ergodicity,
    integrate_line,
)
from stochres.errors import NotErgodic
from stochres.expressions import compile_expression

SQRT_PI = math.sqrt(math.pi)

# the closed forms of the Gaussian law N(0, 1/2), as the oracle for every law
# of the -x, 1 noise
GAUSS = statistics.NormalDist(0.0, math.sqrt(0.5))


def erfc_F(x):
    return 0.5 * math.erfc(-x)


def erfc_sf(x):
    return 0.5 * math.erfc(x)


def test_ou_ergodicity_report():
    report = check_ergodicity(DiffusionSpec(lambda x: -x, lambda x: 1.0))
    assert report.c2_holds and report.c3_holds
    assert report.G == pytest.approx(SQRT_PI, abs=1e-6)
    assert report.c2_left_limit < 0 and report.c2_right_limit < 0


def test_unstable_drift_fails_c2():
    report = check_ergodicity(DiffusionSpec(lambda x: x, lambda x: 1.0))
    assert not report.c2_holds


def test_brownian_motion_fails_c3():
    report = check_ergodicity(DiffusionSpec(lambda x: 0.0, lambda x: 1.0))
    assert not report.c3_holds
    assert math.isinf(report.G)


def test_build_rejects_non_ergodic():
    with pytest.raises(NotErgodic):
        build_invariant_law(DiffusionSpec(lambda x: 0.0, lambda x: 1.0))


@pytest.mark.parametrize(
    "drift, sigma, ergodic",
    [
        ("-x", "1", True),
        ("-x^3", "1", True),
        ("-(x-2)", "1", True),
        ("x-x^3", "1", True),
        ("-tanh(x)", "1", True),
        ("-4*x", "2", True),
        ("-x", "5", True),
        ("-x", "10", True),
        # infinite mass: Brownian motion, and a tail falling like 1/|x|
        ("0", "1", False),
        ("-x/(2*(1+x^2))", "1", False),
        # finite mass that the probe range would truncate: G = pi with a
        # 1/x^2 tail, and a Gaussian of standard deviation 21
        ("-x/(1+x^2)", "1", False),
        ("-x", "30", False),
    ],
)
def test_mass_must_decay_at_the_probe_ends(drift, sigma, ergodic):
    spec = DiffusionSpec(compile_expression(drift), compile_expression(sigma))
    report = check_ergodicity(spec)
    assert report.c3_holds is ergodic
    if ergodic:
        law = build_invariant_law(spec)
        assert report.G == pytest.approx(law.G, rel=1e-9)
        return
    assert math.isinf(report.G)
    with pytest.raises(NotErgodic, match=r"not decayed at the probe end x=50 \(tail ratio mass\*\|x\|/G = "):
        build_invariant_law(spec)


def test_nonpositive_diffusion_rejected():
    with pytest.raises(ValueError):
        check_ergodicity(DiffusionSpec(lambda x: -x, lambda x: 0.0))


def test_numeric_ou_density_and_cdf(ou_numeric):
    assert float(ou_numeric.f(0.0)) == pytest.approx(1.0 / SQRT_PI, abs=1e-6)
    assert float(ou_numeric.F(0.0)) == pytest.approx(0.5, abs=1e-9)
    assert ou_numeric.quantile(0.92135) == pytest.approx(1.000, abs=1e-3)


def test_closed_form_ou_values(ou):
    # F and the quantile read the tables, so the median is exact to rounding
    assert float(ou.F(0.0)) == pytest.approx(0.5, rel=0.0, abs=1e-15)
    assert float(ou.f(1.0)) == pytest.approx(0.2075537, abs=1e-7)
    assert ou.quantile(0.5) == pytest.approx(0.0, rel=0.0, abs=1e-15)
    # a compiled constant, so its paths take the constant-diffusion stepper
    assert ou.spec.diffusion.constant == 1.0


def test_numeric_matches_closed_form(ou_numeric):
    xs = np.linspace(-4.0, 4.0, 401)
    err = max(abs(float(ou_numeric.F(x)) - erfc_F(x)) for x in xs)
    assert err < 1e-6


@pytest.mark.parametrize("x", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_quantile_roundtrip_both_laws(ou, ou_numeric, x):
    for law in (ou, ou_numeric):
        assert law.quantile(float(law.F(x))) == pytest.approx(x, abs=1e-8)


def test_density_normalization(ou_numeric):
    total = integrate_line(lambda x: float(ou_numeric.f(x)))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_density_is_cdf_derivative(ou, ou_numeric):
    # numeric law: central differences on its own cache nodes
    nodes = ou_numeric.grid_x
    F_nodes = ou_numeric.F(nodes)
    inner = (nodes > -4.0) & (nodes < 4.0)
    idx = np.flatnonzero(inner)[1:-1]
    fd = (F_nodes[idx + 1] - F_nodes[idx - 1]) / (nodes[idx + 1] - nodes[idx - 1])
    assert np.max(np.abs(fd - ou_numeric.f(nodes[idx]))) < 1e-5

    # closed form: same stencil on a fresh grid
    xs = np.arange(-4.0, 4.0001, 0.005)
    fd = (ou.F(xs[2:]) - ou.F(xs[:-2])) / (xs[2:] - xs[:-2])
    assert np.max(np.abs(fd - ou.f(xs[1:-1]))) < 1e-5


def test_survival_function_tail_accuracy(ou_numeric):
    # 1 - F loses everything past ~ 1e-16; the stored survival must not
    for x in (3.0, 5.0, 8.0):
        numeric = float(ou_numeric.sf(x))
        assert numeric == pytest.approx(erfc_sf(x), rel=1e-6, abs=0.0)


def test_shifted_center_law():
    # mean-reverting noise centered at 2: stationary N(2, 1/2)
    spec = DiffusionSpec(lambda x: -(x - 2.0), lambda x: x * 0.0 + 1.0, label="shifted")
    law = build_invariant_law(spec)
    assert float(law.F(2.0)) == pytest.approx(0.5, abs=1e-9)
    assert law.quantile(0.5) == pytest.approx(2.0, abs=1e-9)
    assert float(law.f(2.0)) == pytest.approx(1.0 / SQRT_PI, abs=1e-8)
    assert integrate_line(lambda x: float(law.f(x))) == pytest.approx(1.0, abs=1e-8)


def test_cubic_drift_law_is_ergodic():
    spec = DiffusionSpec(lambda x: -(x**3), lambda x: 1.0, label="cubic")
    report = check_ergodicity(spec)
    assert report.c2_holds and report.c3_holds
    law = build_invariant_law(spec)
    total = integrate_line(lambda x: float(law.f(x)))
    assert total == pytest.approx(1.0, abs=1e-8)
    # mass of exp(-x^4/2)/G: even density, median at 0
    assert float(law.F(0.0)) == pytest.approx(0.5, abs=1e-9)


def test_quantile_deep_tail_expansion(ou_numeric):
    # p far in the tail forces the bracket to expand well beyond [-1, 1]
    for p in (1e-10, 1.0 - 1e-10):
        closed = GAUSS.inv_cdf(p)
        numeric = ou_numeric.quantile(p)
        assert abs(closed) > 4.0
        assert numeric == pytest.approx(closed, abs=1e-6)


def test_quantile_domain(ou, ou_numeric):
    for law in (ou, ou_numeric):
        with pytest.raises(ValueError):
            law.quantile(0.0)
        with pytest.raises(ValueError):
            law.quantile(1.0)


def test_probe_range_sets_c2_limits():
    # for drift -x the probe integral is -probe^2/2 at either end of +-50
    report = check_ergodicity(DiffusionSpec(lambda x: -x, lambda x: 1.0))
    assert report.c2_left_limit == pytest.approx(-1250.0, rel=1e-12)
    assert report.c2_right_limit == pytest.approx(-1250.0, rel=1e-12)


def test_scalar_only_and_constant_coefficients_build_the_compiled_law():
    # the drift takes floats only and the diffusion returns a constant: both
    # are lifted to array forms once, and the law is the compiled one's
    lifted = build_invariant_law(DiffusionSpec(lambda x: -4.0 * float(x), lambda x: 2.0))
    compiled = build_invariant_law(DiffusionSpec(compile_expression("-4*x"), compile_expression("2")))
    assert lifted.ergodicity == compiled.ergodicity
    np.testing.assert_array_equal(lifted.grid_x, compiled.grid_x)
    for name in ("x", "F", "m", "log_A", "log_B", "nu"):
        np.testing.assert_array_equal(getattr(lifted.tables, name), getattr(compiled.tables, name), err_msg=name)


def test_ou_law_node_grid_follows_support_rule(ou, ou_numeric):
    # exp(-x^2) falls below 1e-300 of its peak between 16 and 32
    assert ou.grid_x[0] == -32.0 and ou.grid_x[-1] == 32.0
    np.testing.assert_array_equal(ou.grid_x, ou_numeric.grid_x)


def test_upper_moments_match_closed_form(ou):
    for x in (-3.0, 0.0, 1.3, 10.0):
        e = math.exp(-x * x)
        expected = (0.5 * math.erfc(x), e / (2.0 * SQRT_PI), x * e / (2.0 * SQRT_PI) + math.erfc(x) / 4.0)
        np.testing.assert_allclose(ou.tables.upper_moments(x), expected, rtol=1e-12, atol=1e-15)


def test_upper_moments_beyond_support(ou):
    lo, hi = ou.tables.support
    np.testing.assert_allclose(ou.tables.upper_moments(lo - 1.0), (1.0, 0.0, 0.5), atol=1e-14)
    assert not np.any(ou.tables.upper_moments(hi + 1.0))


def test_second_order_lookup_needs_support(ou):
    lo, hi = ou.tables.support
    assert ou.tables.at(np.array([0.5 * hi])).log_B[0] < 0.0
    points = ou.tables.at(np.array([lo, hi, 100.0]))
    assert points.outside.tolist() == [True, True, True]
    for name in ("F", "log_A", "log_B", "m", "nu"):
        assert np.all(np.isnan(getattr(points, name))), name


@pytest.mark.parametrize("drift, sigma", [(None, None), ("-x^3", "1"), ("-4*x", "2")])
def test_array_lookup_equals_one_point_lookups(ou, drift, sigma):
    # one lookup over an array of gaps reads the same panels as one lookup
    # per point, field by field; points outside the support are flagged
    law = ou if drift is None else build_invariant_law(
        DiffusionSpec(compile_expression(drift), compile_expression(sigma)))
    tables = law.tables
    lo, hi = tables.support
    inside = np.concatenate([
        [lo + 1e-12, lo + 1e-6, hi - 1e-6, hi - 1e-12],  # next to both edges
        np.linspace(lo + 0.05, lo + 3.0, 7), np.linspace(hi - 3.0, hi - 0.05, 7),  # both tails
        tables.x[[1, len(tables.x) // 3, len(tables.x) // 2, -2]],  # exactly on nodes
        np.linspace(-2.0, 2.0, 9),
    ])
    outside = np.array([lo, hi, lo - 1.0, hi + 1.0, np.nan])
    xs = np.concatenate([inside, outside])
    points = tables.at(xs)
    np.testing.assert_array_equal(points.outside, [False] * len(inside) + [True] * len(outside))
    assert points.m.shape == (len(xs), 3) and points.nu.shape == (len(xs), 3, 3)
    for k, x in enumerate(inside):
        one = tables.at(np.array([x]))
        assert one.outside.tolist() == [False]
        for name in ("F", "log_A", "log_B", "m", "nu"):
            np.testing.assert_allclose(getattr(points, name)[k], getattr(one, name)[0], rtol=1e-13, atol=0.0,
                                       err_msg=f"{name} at x={x}")
    for name in ("F", "log_A", "log_B", "m", "nu"):
        assert np.all(np.isnan(getattr(points, name)[len(inside):]))


def test_grid_law_matches_closed_form_between_nodes(ou_numeric):
    # F, sf and quantile read the tables plus one partial panel, so the law
    # rebuilt from -x, 1 is the closed form to rounding, not only at nodes
    nodes = ou_numeric.grid_x
    inner = nodes[(nodes >= -8.0) & (nodes < 8.0)]
    xs = np.concatenate([inner + frac * np.diff(nodes)[0] for frac in (0.13, 0.5, 0.91)])
    np.testing.assert_allclose(ou_numeric.F(xs), [erfc_F(x) for x in xs], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(ou_numeric.sf(xs), [erfc_sf(x) for x in xs], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(ou_numeric.f(xs), np.exp(-xs * xs) / SQRT_PI, rtol=1e-11, atol=0.0)
    ps = np.concatenate([np.geomspace(1e-10, 0.5, 60), 1.0 - np.geomspace(1e-10, 0.5, 60)[:-1]])
    for p in ps:
        assert abs(ou_numeric.quantile(float(p)) - GAUSS.inv_cdf(float(p))) <= 1e-11


def test_grid_law_reads_its_tables(ou_numeric):
    # one representation: F and sf at the nodes are the tables' prefix and suffix
    tables = ou_numeric.tables
    np.testing.assert_array_equal(ou_numeric.F(tables.x), tables.F)
    np.testing.assert_array_equal(ou_numeric.sf(tables.x), tables.m[0])
    assert ou_numeric.G == pytest.approx(SQRT_PI, rel=1e-13)
    assert ou_numeric.ergodicity.c3_holds and ou_numeric.ergodicity.G == pytest.approx(SQRT_PI, rel=1e-9)


def test_closed_form_law_reads_its_tables(ou):
    # F, sf and the quantile of the closed-form law read the tables of its
    # exact density: the erfc and Gaussian closed forms to rounding on
    # [-8, 8], 0 or 1 beyond the support, and the same value for a float as
    # for its entry of an array
    xs = np.linspace(-8.0, 8.0, 641)
    np.testing.assert_allclose(ou.F(xs), [erfc_F(x) for x in xs], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ou.sf(xs), [erfc_sf(x) for x in xs], rtol=1e-12, atol=0.0)
    for p in (erfc_F(x) for x in xs[::8]):
        if p < 1.0:  # erfc_F(x) rounds to 1 from x = 5.9 on
            assert abs(ou.quantile(p) - GAUSS.inv_cdf(p)) <= 1e-12
    lo, hi = ou.tables.support
    assert hi == pytest.approx(26.3, abs=0.05) and lo == -hi
    beyond = np.array([-100.0, lo - 1.0, lo, hi, hi + 1.0, 100.0])
    np.testing.assert_array_equal(ou.F(beyond[:3]), 0.0)
    np.testing.assert_allclose(ou.F(beyond[3:]), 1.0, rtol=1e-14)
    np.testing.assert_allclose(ou.sf(beyond[:3]), 1.0, rtol=1e-14)
    np.testing.assert_array_equal(ou.sf(beyond[3:]), 0.0)
    both = np.concatenate([xs, beyond])
    assert [float(ou.F(x)) for x in both] == ou.F(both).tolist()
    assert [float(ou.sf(x)) for x in both] == ou.sf(both).tolist()
    assert ou.quantile(1e-300) == pytest.approx(-26.2, abs=0.1)


def test_import_path_loads_no_scipy():
    # the closed-form law, a law built from coefficients and their variance
    # tables need no scipy (only the adaptive quadrature of the test oracles
    # imports it, when called) and no statistics module
    code = (
        "import sys\n"
        "import stochres\n"
        "from stochres.expressions import compile_expression as c\n"
        "law = stochres.ou_law()\n"
        "stochres.find_resonance(0.5, 1.0, law, 'time')\n"
        "cubic = stochres.build_invariant_law(stochres.DiffusionSpec(c('-x^3'), c('1')))\n"
        "stochres.find_resonance(0.5, 1.0, cubic, 'time')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'statistics')))\n"
    )
    src = str(Path(stochres.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
