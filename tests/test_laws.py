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
        # one normalizer: the check and the report the law keeps share G to the bit
        law = build_invariant_law(spec)
        assert report.G.hex() == law.ergodicity.G.hex()
        return
    assert math.isinf(report.G)
    with pytest.raises(NotErgodic, match=r"not decayed at the probe end x=50 \(tail ratio mass\*\|x\|/G = "):
        build_invariant_law(spec)


def _far_mass_drift(x):
    # -x up to |x| = 32, where the mass exp(-1024) is below the support
    # floor; then +400 sign(x) up to 36, which lifts the exponent to 1088
    # (an infinite mass); then -2000 sign(x)
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 36.0, 400.0 * np.sign(x), -2000.0 * np.sign(x))
    return np.where(np.abs(x) <= 32.0, -x, out)


def test_mass_beyond_the_support_edges_fails_c3():
    # the mass is below the floor at |x| = 32 and overflows between |x| =
    # 34.2 and 36.4: the support rule reads the log-mass, which peaks at
    # +-36, so the grid spans the overflowing mass and G sums it to inf
    spec = DiffusionSpec(_far_mass_drift, lambda x: 1.0)
    report = check_ergodicity(spec)
    assert report.c2_holds
    assert not report.c3_holds and math.isinf(report.G)
    with pytest.raises(NotErgodic, match=r"^ergodicity checks failed: the stationary mass sums to G=inf "
                                         r"on the probe range$"):
        build_invariant_law(spec)


def test_mass_with_no_finite_peak_fails_c2_and_c3():
    # exp(1000 x^2) overflows within [-1, 1], so the support search finds no
    # finite peak; the report is still returned, with G summed over the
    # whole probe range
    spec = DiffusionSpec(compile_expression("1000*x"), compile_expression("1"))
    report = check_ergodicity(spec)
    assert report.c2_left_limit == pytest.approx(1.25e6, rel=1e-12)
    assert report.c2_right_limit == pytest.approx(1.25e6, rel=1e-12)
    assert math.isinf(report.G)
    assert not report.c2_holds and not report.c3_holds
    with pytest.raises(NotErgodic) as raised:
        build_invariant_law(spec)
    assert str(raised.value) == (
        "ergodicity checks failed: "
        "int_0^x S/sigma^2 does not fall toward -inf at the probe end x=-50 (1.25e+06, 312500 at x/2); "
        "int_0^x S/sigma^2 does not fall toward -inf at the probe end x=50 (1.25e+06, 312500 at x/2); "
        "the stationary mass sums to G=inf on the probe range"
    )


# laws whose grids the support rule is checked on: steep, narrow, shifted,
# multi-well and wide laws, and a sigma that varies
_RULE_PANEL = [
    ("-x", "1"), ("-x^3", "1"), ("-x^5", "1"), ("-x^9", "1"), ("2*x-x^3", "1"), ("-x", "0.01"), ("-x^3", "0.05"),
    ("-3*(x-1)", "0.7"), ("-(x+20)", "1"), ("-x", "10"), ("-x*(x^2-1)*(x^2-4)", "0.5"),
    ("-tanh(x)", "1+0.5*exp(-x^2)"),
]


@pytest.mark.parametrize("drift, sigma", _RULE_PANEL)
def test_support_panels_follow_the_fall_of_the_log_mass(drift, sigma):
    # no panel is wider than h_max, the log-mass falls by about c at most
    # across any panel, and every node holds mass above 1e-300 of the peak
    from stochres import laws

    law = build_invariant_law(DiffusionSpec(compile_expression(drift), compile_expression(sigma)))
    x = law.grid_x
    assert np.diff(x).max() <= laws._MAX_WIDTH * (1.0 + 1e-12)
    f = law.f(x)
    assert np.abs(np.diff(np.log(f))).max() <= 1.1 * laws._MAX_FALL
    assert f.min() > 1e-300 * f.max()


def test_a_narrow_law_gets_the_panels_of_the_wide_one():
    # -x at sigma 0.01 is -x at sigma 1 shrunk 100 times: no more panels
    # than the wide law, and its information at eps is the wide law's at
    # 100 eps, to the accuracy of the tables
    from stochres.estimators import fisher_at

    narrow, wide = (build_invariant_law(DiffusionSpec(compile_expression("-x"), compile_expression(sigma)))
                    for sigma in ("0.01", "1"))
    assert len(narrow.grid_x) <= len(wide.grid_x)
    eps = np.linspace(0.1, 3.0, 30)
    for scheme in ("time", "energy"):
        fisher, failed = fisher_at(0.5, 1.0, eps, wide, scheme)
        scaled, scaled_failed = fisher_at(0.5, 1.0, 100.0 * eps, narrow, scheme)
        assert not failed.any() and not scaled_failed.any()
        np.testing.assert_allclose(scaled, fisher, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("drift", ["-x", "-x^3"])
def test_probe_reads_the_mass_only_where_it_searches(monkeypatch, drift):
    # the probe evaluates no mass function: its support grid and the mass at
    # the probe ends come from the exponent at its nodes, never from the
    # Gauss points of the probe range
    from stochres import laws

    reads = []
    make_mass = laws._mass

    def counting_mass(drift_fn, sigma, nodes, trim=False):
        nodes, at_nodes, exponent, mass = make_mass(drift_fn, sigma, nodes, trim)
        calls = []
        reads.append(calls)
        return nodes, at_nodes, exponent, lambda x, i: calls.append(np.size(x)) or mass(x, i)

    monkeypatch.setattr(laws, "_mass", counting_mass)
    law = build_invariant_law(DiffusionSpec(compile_expression(drift), compile_expression("1")))
    probe, support = reads
    assert probe == []
    # the support's G sums the mass at 5 Gauss points of each of its panels,
    # and the tables, built with the law, read it nowhere else
    n = len(law.grid_x)
    assert support == [5 * (n - 1)]


def _c2_failure(end, e, e_mid):
    return f"int_0^x S/sigma^2 does not fall toward -inf at the probe end x={end} ({e}, {e_mid} at x/2)"


def _undecayed(ratio):
    return "; ".join(f"the stationary mass has not decayed at the probe end x={end} "
                     f"(tail ratio mass*|x|/G = {ratio} > 1e-09)" for end in (-50, 50))


# (drift, sigma, c2, c3, support edges or the NotErgodic message): the README
# and benchmark laws, shifted and narrow laws, steep and multi-well drifts,
# and laws that fail c2, c3 or both.  The verdicts and messages were
# recorded with the probe on nodes 0.005 apart, and the probe's own coarser
# grid gives the same; the supports are the ends of each law's grid, the
# nodes where its mass is still above 1e-300 of its peak.
_PROBE_PANEL = [
    ("-x^3", "1", True, True, (-6.095652173913038, 6.095652173913039)),
    ("-tanh(x)", "1+0.5*exp(-x^2)", True, True, (-50.0, 50.0)),
    ("-x", "1", True, True, (-26.275, 26.275)),
    ("-4*x", "2", True, True, (-26.275, 26.275)),
    ("-(x-20)", "1", True, True, (-6.274999999999999, 46.275000000000006)),
    ("-(x+20)", "1", True, True, (-46.275, 6.275)),
    ("-x", "0.001", True, True, (-0.026266280752530163, 0.026266280752531658)),
    ("-x", "0.01", True, True, (-0.2627272727272718, 0.26268115942028775)),
    ("-x", "0.05", True, True, (-1.3132075471698066, 1.313207547169816)),
    ("-x", "0.1", True, True, (-2.6277777777777738, 2.627777777777783)),
    ("-x", "0.3", True, True, (-7.883333333333328, 7.883333333333337)),
    ("-x", "3", True, True, (-50.0, 50.0)),
    ("-x", "10", True, True, (-50.0, 50.0)),
    ("-x", "30", True, False, "ergodicity checks failed: " + _undecayed("0.0596")),
    ("-(x-3)^3", "0.5", True, True, (-1.3106060606060588, 7.310606060606063)),
    ("-x^3", "0.2", True, True, (-2.7264705882352906, 2.726470588235293)),
    ("-x^3", "0.05", True, True, (-1.3628571428571388, 1.3628571428571377)),
    ("-x^5", "1", True, True, (-3.5703389830508416, 3.5703389830508514)),
    ("-x^9", "1", True, True, (-2.2585365853658512, 2.2585365853658574)),
    ("x-x^3", "1", True, True, (-6.1760869565217345, 6.176086956521738)),
    ("2*x-x^3", "1", True, True, (-6.258333333333331, 6.258333333333337)),
    ("x-x^3", "0.3", True, True, (-3.484883720930229, 3.484883720930236)),
    ("-x*(x^2-1)*(x^2-4)", "1", True, True, (-3.925384615384613, 3.92538461538461)),
    ("-x*(x^2-1)*(x^2-4)", "0.5", True, True, (-3.28255813953488, 3.282558139534888)),
    ("-tanh(5*x)", "1", True, True, (-50.0, 50.0)),
    ("-tanh(x)", "1", True, True, (-50.0, 50.0)),
    ("-3*(x-1)", "0.7", True, True, (-9.621428571428568, 11.621428571428568)),
    ("1000*x", "1", False, False,
     "ergodicity checks failed: " + _c2_failure(-50, "1.25e+06", "312500") + "; "
     + _c2_failure(50, "1.25e+06", "312500") + "; the stationary mass sums to G=inf on the probe range"),
    ("0", "1", False, False,
     "ergodicity checks failed: " + _c2_failure(-50, 0, 0) + "; " + _c2_failure(50, 0, 0) + "; " + _undecayed("0.5")),
    ("x", "1", False, False,
     "ergodicity checks failed: " + _c2_failure(-50, 1250, 312.5) + "; " + _c2_failure(50, 1250, 312.5)
     + "; the stationary mass sums to G=inf on the probe range"),
    ("-x/(1+x^2)", "1", True, False, "ergodicity checks failed: " + _undecayed("0.00645")),
    ("-x/(2*(1+x^2))", "1", True, False, "ergodicity checks failed: " + _undecayed("0.109")),
    ("-x", "1+x^2", True, False, "ergodicity checks failed: " + _undecayed("2.34e-06")),
    ("-x^3", "1+x^2", True, False, "ergodicity checks failed: " + _undecayed("6.12e-09")),
    ("-x^3", "exp(x)", False, True, "ergodicity checks failed: " + _c2_failure(50, -0.375, -0.375)),
]


@pytest.mark.parametrize("drift, sigma, c2, c3, outcome", _PROBE_PANEL)
def test_probe_sets_the_supports_verdicts_and_messages(drift, sigma, c2, c3, outcome):
    spec = DiffusionSpec(compile_expression(drift), compile_expression(sigma))
    report = check_ergodicity(spec)
    assert (report.c2_holds, report.c3_holds) == (c2, c3)
    if isinstance(outcome, tuple):
        law = build_invariant_law(spec)
        assert (law.grid_x[0], law.grid_x[-1]) == outcome
        return
    with pytest.raises(NotErgodic) as raised:
        build_invariant_law(spec)
    assert str(raised.value) == outcome


def test_probe_lays_its_own_coarse_grid():
    # the probe calls each coefficient once at its 2 001 nodes (the lift to
    # an array form, whose values the finite check reads) and at 5 Gauss
    # points of each of its 2 000 panels, 12 001 points; nodes 0.005 apart
    # would take 120 001, and no probe node is evaluated twice
    from stochres import laws

    seen = {"drift": [], "sigma": []}

    def counted(name, fn):
        return lambda x: seen[name].append(np.array(x, dtype=float)) or fn(np.asarray(x, dtype=float))

    spec = DiffusionSpec(counted("drift", lambda x: -x**3), counted("sigma", lambda x: 1.0 + 0.0 * x))
    laws._probe(spec)
    nodes = laws._probe_grid()
    for name, calls in seen.items():
        points = np.concatenate([np.ravel(x) for x in calls])
        assert len(points) == 12_001, name
        at_nodes = points[np.isin(points, nodes)]
        assert len(at_nodes) == len(nodes) and np.array_equal(np.unique(at_nodes), nodes), name
    # the support grid splits the probe panels, into panels at most 0.0125 wide
    law = build_invariant_law(spec)
    assert np.diff(law.grid_x).max() == pytest.approx(0.0125, rel=1e-9)


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
    # both laws: central differences on a stencil 0.005 apart, finer than
    # their node grids
    xs = np.arange(-4.0, 4.0001, 0.005)
    for law in (ou, ou_numeric):
        fd = (law.F(xs[2:]) - law.F(xs[:-2])) / (xs[2:] - xs[:-2])
        assert np.max(np.abs(fd - law.f(xs[1:-1]))) < 1e-5


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
    # p far in either tail: the root lies well beyond [-1, 1]
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
        with pytest.raises(ValueError):
            law.quantile(np.array([0.3, 1.0]))


def test_quantile_of_an_array_is_the_quantile_of_each_level(ou, ou_numeric):
    # levels on both sides of 1/2, mixed, down to the deep tails: one array
    # quantile gives each level's own quantile bit for bit
    levels = np.array([0.7, 1e-300, 0.5, 1e-6, 0.3, 1.0 - 1e-6, 0.2, 0.99, 1e-10, 0.5 + 1e-12])
    for law in (ou, ou_numeric):
        got = law.quantile(levels)
        assert [x.hex() for x in got.tolist()] == [law.quantile(float(p)).hex() for p in levels]
        assert law.quantile(levels.reshape(2, 5)).shape == (2, 5)
        assert type(law.quantile(0.3)) is float
        assert law.quantile(np.array([])).shape == (0,)


def test_probe_range_sets_c2_limits():
    # for drift -x^k the probe integral is -50^(k+1)/(k+1) at either end of
    # +-50; the 5-point rule is exact on these polynomials, so only rounding
    # separates the probe's exponent from it
    for spec, limit in [
        (DiffusionSpec(lambda x: -x, lambda x: 1.0), -1250.0),
        (DiffusionSpec(compile_expression("-x^3"), compile_expression("1")), -1562500.0),
        (DiffusionSpec(compile_expression("-x^5"), compile_expression("1")), -(50.0**6) / 6.0),
    ]:
        report = check_ergodicity(spec)
        assert report.c2_left_limit == pytest.approx(limit, rel=2e-15, abs=0.0)
        assert report.c2_right_limit == pytest.approx(limit, rel=2e-15, abs=0.0)


def test_scalar_only_and_constant_coefficients_build_the_compiled_law():
    # the drift takes floats only and the diffusion returns a constant: both
    # are lifted to array forms once, and the law is the compiled one's
    lifted = build_invariant_law(DiffusionSpec(lambda x: -4.0 * float(x), lambda x: 2.0))
    compiled = build_invariant_law(DiffusionSpec(compile_expression("-4*x"), compile_expression("2")))
    assert lifted.ergodicity == compiled.ergodicity
    np.testing.assert_array_equal(lifted.grid_x, compiled.grid_x)
    for name in ("x", "F", "m", "log_A", "log_B", "nu"):
        np.testing.assert_array_equal(getattr(lifted.tables, name), getattr(compiled.tables, name), err_msg=name)


@pytest.mark.parametrize("drift, sigma, scale", [("-x^3", "1", 1.0), ("2*x-x^3", "1", 1.0), ("-x^9", "1", 1.0),
                                                 ("-x", "0.01", 100.0)])
def test_support_rule_meets_its_stated_accuracy(monkeypatch, drift, sigma, scale):
    # the Fisher information of both schemes at theta 0.5, tau 1 and 30 noise
    # levels from 0.1 to 3 (times 1/sigma for the narrow law) stays within
    # 1.1e-12 of the same rule with c and h_max an eighth as large
    from stochres import laws
    from stochres.estimators import fisher_at

    spec = DiffusionSpec(compile_expression(drift), compile_expression(sigma))
    eps = scale * np.linspace(0.1, 3.0, 30)
    law = build_invariant_law(spec)
    monkeypatch.setattr(laws, "_MAX_FALL", laws._MAX_FALL / 8.0)
    monkeypatch.setattr(laws, "_MAX_WIDTH", laws._MAX_WIDTH / 8.0)
    fine = build_invariant_law(spec)
    assert len(fine.grid_x) > 7 * len(law.grid_x)
    for scheme in ("time", "energy"):
        (got, failed), (want, fine_failed) = (fisher_at(0.5, 1.0, eps, v, scheme) for v in (law, fine))
        np.testing.assert_array_equal(failed, fine_failed)
        np.testing.assert_allclose(got[~failed], want[~failed], rtol=1.1e-12, atol=0.0)


@pytest.mark.parametrize("sigma, fall", [("0.0004", "4.29"), ("0.0001", "17")])
def test_a_law_narrower_than_the_grid_resolves_is_refused(sigma, fall):
    # past the edge of -x at sigma below about 4.3e-4 the rule's cap leaves
    # panels across which the log-density falls by more than 4: the build
    # refuses the law rather than build tables that lose their accuracy
    # there, or turn NaN (sigma 1e-4)
    spec = DiffusionSpec(compile_expression("-x"), compile_expression(sigma))
    assert check_ergodicity(spec).c3_holds
    with pytest.raises(NotErgodic, match=rf"^too narrow a law: its density falls by {fall} > 4 across a panel$"):
        build_invariant_law(spec)


def test_ou_law_node_grid_follows_support_rule(ou, ou_numeric):
    # exp(-x^2) falls below 1e-300 of its peak between the last node and the
    # next, 0.0125 on; the grid is the one the law built from -x, 1 gets
    from stochres import laws

    lo, hi = ou.grid_x[[0, -1]]
    assert lo == -hi and math.exp(-hi * hi) > 1e-300 > math.exp(-((hi + laws._MAX_WIDTH) ** 2))
    np.testing.assert_array_equal(ou.grid_x, ou_numeric.grid_x)


def test_ou_law_f_is_the_closed_form_density(ou):
    # the one public f of every law reads the closed-form density on the
    # grid, to the bit, and is 0 off it, where exp(-x^2) has underflowed
    nodes = ou.grid_x
    lo, hi = nodes[[0, -1]]
    inside = np.concatenate([nodes, np.random.default_rng(3).uniform(lo, hi, 500)])
    expected = np.exp(-np.square(inside)) / SQRT_PI
    assert [v.hex() for v in ou.f(inside).tolist()] == [v.hex() for v in expected.tolist()]
    assert [ou.f(float(x)).hex() for x in inside[::97]] == [v.hex() for v in expected[::97].tolist()]
    outside = np.array([-1e300, -50.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), 40.0, np.inf])
    assert ou.f(outside).tolist() == [0.0] * len(outside)
    assert isinstance(ou.f(33.0), float) and ou.f(33.0) == 0.0 and ou.f(-32.5) == 0.0


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
    assert ou_numeric.ergodicity.c3_holds and ou_numeric.ergodicity.G == pytest.approx(SQRT_PI, rel=1e-13)


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


# the normalizer G, the tables at a few nodes (first, second, n//7, n//3,
# n//2, 2n//3, second last, last) and one lookup at PINNED_POINTS, as
# float.hex, for the closed-form OU law and the compiled -x^3 law: the tables
# are a fixed sequence of roundings, so a reordered sum in the panel kernels
# shows here
PINNED_POINTS = np.array([-2.3, -0.41, 0.0, 0.7, 3.1])
PINNED_BITS = {
    "ou": (4205, {
        "G": (
            "0x1.c5bf891b4ef6ap+0"
        ),
        "F": (
            "0x0.0p+0 0x1.466241ad1af5ep-1003 0x1.4f97c5066b1aep-515 0x1.32e014bb80662p-116 "
            "0x1.ffffffffffffep-2 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0"
        ),
        "m": (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
            "0x1.ffffffffffffcp-2 0x1.32e014bb80665p-116 0x1.466241ad1af5dp-1003 0x0.0p+0 "
            "0x1.5c1ba531e4f60p-56 0x1.5c1ba531e4f60p-56 0x1.5c1ba531e4f60p-56 0x1.5c1ba531e4f60p-56 "
            "0x1.20dd750429b6dp-2 0x1.52491c4f24fe4p-113 0x1.0bebc902020a9p-998 0x0.0p+0 "
            "0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1 "
            "0x1.0000000000001p-2 0x1.74ed0791c0b8fp-110 0x1.b7dc4d47dd035p-994 0x0.0p+0"
        ),
        "log_A": (
            "-inf -0x1.6095e67cca40ep+9 -0x1.6bf5021bdf57fp+8 -0x1.57e7dc4b6dfa6p+6 -0x1.c0b7fa5f194d9p+0 "
            "0x1.29fcafcac0616p+6 0x1.572a54a56ee95p+9 0x1.577e54641039dp+9"
        ),
        "log_B": (
            "0x1.577e54641039dp+9 0x1.572a54a56ee95p+9 0x1.5d72e0a109d35p+8 0x1.29fcafcac0616p+6 "
            "-0x1.c0b7fa5f194d7p+0 -0x1.57e7dc4b6dfa5p+6 -0x1.6095e67cca40ap+9 -inf"
        ),
        "nu": (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.5c1ba531e4de4p-56 "
            "0x1.5c1ba531e509dp-56 0x1.5c1ba531e4f40p-56 0x1.5c1ba531e4f6cp-56 0x1.a0be83d8d0330p-1 "
            "0x1.1bf9057969101p+3 0x1.a451798622baep+4 0x0.0p+0 0x1.ffffffffffdefp-2 0x1.00000000000f8p-1 "
            "0x1.fffffffffffefp-2 0x1.fffffffffffefp-2 0x1.b8aa3b295c180p-1 0x1.3b06c8ca29717p+6 "
            "0x1.590db8a7f3005p+9 0x0.0p+0 0x1.d95b2c1be9972p-112 0x1.d95b2c1be9972p-112 "
            "0x1.d95b2c1be9972p-112 0x1.e66c0e0653854p-110 0x1.71547652b82fdp-1 0x1.3b039cc88aa0cp+6 "
            "0x1.590db86725fa0p+9 0x0.0p+0 0x1.5c1ba531e4f35p-57 0x1.5c1ba531e4f35p-57 0x1.5c1ba531e4f35p-57 "
            "0x1.5c1ba531e4f61p-57 0x1.a0be83d8d0331p-1 0x1.5d79d9032715fp+9 0x1.1b442a25ecbc1p+14 0x0.0p+0 "
            "0x1.fffffffffffdep-3 0x1.fffffffffffdep-3 0x1.fffffffffffdep-3 0x1.000000000002fp-2 "
            "0x1.f1547652b8300p-1 0x1.83b91e2563011p+12 0x1.d115fcc74f257p+18 0x0.0p+0"
        ),
        "at.F": (
            "0x1.2bad48659485ep-11 0x1.1fc283f23f3d0p-2 0x1.ffffffffffffep-2 0x1.ad846108b8b24p-1 "
            "0x1.ffff3c9165c70p-1"
        ),
        "at.m": (
            "0x1.ffb514ade69b0p-1 0x1.74d5df00c65e8p-10 0x1.fc5b8f2cfe6c9p-2 0x1.701ebe06e0617p-1 "
            "0x1.e856698540899p-3 0x1.0c02c9acd6fdcp-2 0x1.ffffffffffffcp-2 0x1.20dd750429b6dp-2 "
            "0x1.0000000000001p-2 0x1.49ee7bdd1d373p-3 0x1.61eec74c053cbp-3 0x1.9cb7fca3c5795p-3 "
            "0x1.86dd3472492c4p-18 0x1.3d5ad068da296p-16 0x1.022a17f4d4f64p-14"
        ),
        "at.log_A": (
            "-0x1.59b8306d22087p+3 -0x1.6fea31828856dp+1 -0x1.c0b7fa5f194d9p+0 -0x1.97ba6929d86d3p-4 "
            "0x1.0d6b95f53fd57p+3"
        ),
        "at.log_B": (
            "0x1.1d1cb4bbdba17p+2 -0x1.84abb2d89a373p-1 -0x1.c0b7fa5f194d7p+0 -0x1.e2c43c17bd3dep+1 "
            "-0x1.fc0f085c166a2p+3"
        ),
        "at.nu": (
            "0x1.0000000000001p+0 0x1.b5f7148fff0e8p-7 0x1.f1bf53073d376p-2 0x1.b5f7148fff0e8p-7 "
            "0x1.7c9a9136c8945p-9 0x1.b63c6887643fcp-8 0x1.f1bf53073d376p-2 0x1.b63c6887643fcp-8 "
            "0x1.e672df8e5320ep-3 0x1.ffffffffffffep-1 0x1.23a21bb695556p-1 0x1.26858d18d2865p-1 "
            "0x1.23a21bb695556p-1 0x1.8939da7901fdap-2 0x1.a60b3773df9cap-2 0x1.26858d18d2865p-1 "
            "0x1.a60b3773df9cap-2 0x1.dc30227505085p-2 0x1.0000000000001p+0 0x1.a0be83d8d0330p-1 "
            "0x1.b8aa3b295c17fp-1 0x1.a0be83d8d0330p-1 0x1.71547652b82fep-1 0x1.a0be83d8d0332p-1 "
            "0x1.b8aa3b295c17fp-1 0x1.a0be83d8d0332p-1 0x1.f1547652b8301p-1 0x1.fffffffffffffp-1 "
            "0x1.4df85da0358fbp+0 0x1.d4e1fe89221fbp+0 0x1.4df85da0358fbp+0 0x1.bffc885551f48p+0 "
            "0x1.43c7c4edf776fp+1 0x1.d4e1fe89221fbp+0 0x1.43c7c4edf776fp+1 0x1.e2a3b46ad633fp+1 "
            "0x1.0000000000003p+0 0x1.b09d51f30cfbbp+1 0x1.6eaba0c2f65fcp+3 0x1.b09d51f30cfbbp+1 "
            "0x1.6e1088698f7cap+3 0x1.36bd0ba433361p+5 0x1.6eaba0c2f65fcp+3 0x1.36bd0ba433361p+5 "
            "0x1.08338b25da420p+7"
        ),
    }),
    "-x^3": (1883, {
        "G": (
            "0x1.13f145bc7d120p+1"
        ),
        "F": (
            "0x0.0p+0 0x1.db2d8e443ad8cp-1006 0x1.1015720b23529p-635 0x1.427c02d23283fp-156 "
            "0x1.0000000000000p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0"
        ),
        "m": (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
            "0x1.ffffffffffffep-2 0x1.427c02d23175bp-156 0x1.db2d8e4432ebdp-1006 0x0.0p+0 "
            "0x1.4aae6fa035288p-55 0x1.4aae6fa035288p-55 0x1.4aae6fa035288p-55 0x1.4aae6fa035288p-55 "
            "0x1.29a91ba90e2b5p-2 0x1.31c0139f5750ap-154 0x1.69fd6da12f92dp-1003 0x0.0p+0 "
            "0x1.e975e5343aa57p-2 0x1.e975e5343aa57p-2 0x1.e975e5343aa57p-2 0x1.e975e5343aa57p-2 "
            "0x1.e975e5343aa5cp-3 0x1.21e2dcc9f2daap-152 0x1.13c373c4bdbb3p-1000 0x0.0p+0"
        ),
        "log_A": (
            "-inf -0x1.634424c7b2d00p+9 -0x1.c3a0e131882e1p+8 -0x1.d531cb23a5178p+6 -0x1.9534df96bcfd7p+0 "
            "0x1.8a1f14b588f5bp+6 0x1.55fecca993c14p+9 0x1.567ca5132d68bp+9"
        ),
        "log_B": (
            "0x1.567ca5132d68ap+9 0x1.55fecca993bffp+9 0x1.ac8db2d61edf0p+8 0x1.8a1f14b588f27p+6 "
            "-0x1.9534df96bcfdap+0 -0x1.d531cb23a51b9p+6 -0x1.634424c7b2d42p+9 -inf"
        ),
        "nu": (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
            "0x1.0000000000001p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.4aae6fa0352cbp-55 "
            "0x1.4aae6fa0352cbp-55 0x1.4aae6fa035180p-55 0x1.4aae6fa03524fp-55 0x1.829595a5658b2p-1 "
            "0x1.e6928fbc12bf7p+1 0x1.860ffd27686f3p+2 0x0.0p+0 0x1.e975e5343a8f4p-2 0x1.e975e5343a8f4p-2 "
            "0x1.e975e5343a8f4p-2 0x1.e975e5343a9e9p-2 0x1.60b901ac9cbd4p-1 0x1.ce69b428af1a2p+3 "
            "0x1.292a5c51746eap+5 0x0.0p+0 0x1.ab262ea4f78bcp-110 0x1.ab262ea4f7566p-110 "
            "0x1.ab262ea4f7711p-110 0x1.ab262ea52fc15p-110 0x1.2fceb422f756bp-1 0x1.ce690b2f66e67p+3 "
            "0x1.292a5c3288319p+5 0x0.0p+0 0x1.3c1fbe81c55c1p-56 0x1.3c1fbe81c55c1p-56 0x1.3c1fbe81c55c1p-56 "
            "0x1.3c1fbe81c5638p-56 0x1.1c8e8d50484ecp-1 0x1.b773ed11d04a6p+5 0x1.c4c918168ade0p+7 0x0.0p+0 "
            "0x1.d3e9cdf66b902p-3 0x1.d3e9cdf66b55ap-3 0x1.d3e9cdf66b72ep-3 0x1.d3e9cdf66b7a3p-3 "
            "0x1.0fd5f86f3e5ffp-1 0x1.a1a32d6999fcdp+7 0x1.58f3515fb249fp+10 0x0.0p+0"
        ),
        "at.F": (
            "0x1.05544dd051326p-26 0x1.3dcc95e01ac4dp-2 0x1.0000000000000p-1 0x1.a263130c255a0p-1 "
            "0x1.0000000000000p+0"
        ),
        "at.m": (
            "0x1.ffffff7d55d92p-1 0x1.316b36a5ea8fep-25 0x1.e975dfa01af08p-2 0x1.6119b50ff29d8p-1 "
            "0x1.01ec9c82302b0p-2 0x1.ff2761eb4f0b9p-3 0x1.ffffffffffffep-2 0x1.29a91ba90e2b5p-2 "
            "0x1.e975e5343aa5cp-3 0x1.7673b3cf6a983p-3 0x1.738f63aab3ef7p-3 0x1.8239b24f96c9bp-3 "
            "0x1.473f8465a8b59p-74 0x1.fde59a7a552e2p-73 0x1.8d41357dc0cc7p-71"
        ),
        "at.log_A": (
            "-0x1.8920263ef8d03p+4 -0x1.6da31781e26fdp+1 -0x1.9534df96bcfd7p+0 -0x1.b03a78fd3a4a4p-4 "
            "0x1.56fd29f3a1bbcp+5"
        ),
        "at.log_B": (
            "0x1.741e3e16b46eap+3 -0x1.4ccb70a1eac3ap-1 -0x1.9534df96bcfdap+0 -0x1.044606618a81ap+2 "
            "-0x1.da45647c0dd71p+5"
        ),
        "at.nu": (
            "0x1.0000000000003p+0 0x1.b9ed15c7dcb34p-18 0x1.e974f42ac439ep-2 0x1.b9ed15c7dcb34p-18 "
            "0x1.2363b41f93af6p-19 0x1.a678b1d5b4140p-19 0x1.e974f42ac439ep-2 0x1.a678b1d5b4140p-19 "
            "0x1.d3e8329eb5f49p-3 0x1.fffffffffffffp-1 0x1.273a3ee381575p-1 0x1.07f0c75051a3ap-1 "
            "0x1.273a3ee381575p-1 0x1.75576cf771209p-2 0x1.5483d183e0d9cp-2 0x1.07f0c75051a3ap-1 "
            "0x1.5483d183e0d9cp-2 0x1.3b735b77f05acp-2 0x1.0000000000001p+0 0x1.829595a5658b2p-1 "
            "0x1.60b901ac9cbd4p-1 0x1.829595a5658b2p-1 0x1.2fceb422f7569p-1 0x1.1c8e8d50484edp-1 "
            "0x1.60b901ac9cbd4p-1 0x1.1c8e8d50484edp-1 0x1.0fd5f86f3e5ffp-1 0x1.ffffffffffffdp-1 "
            "0x1.1e155fff75b79p+0 0x1.4bd1089323ea6p+0 0x1.1e155fff75b79p+0 0x1.4307a36c8418fp+0 "
            "0x1.7a9030499929bp+0 0x1.4bd1089323ea6p+0 0x1.7a9030499929bp+0 0x1.c048956287b62p+0 "
            "0x1.0000000000005p+0 0x1.90e010bc049b0p+1 0x1.39e276a7af828p+3 0x1.90e010bc049b0p+1 "
            "0x1.39e06abc8aecep+3 0x1.eb8aa80ca8e8cp+4 0x1.39e276a7af828p+3 0x1.eb8aa80ca8e8cp+4 "
            "0x1.80e51e5f86700p+6"
        ),
    }),
}


@pytest.fixture(scope="module")
def cubic():
    return build_invariant_law(DiffusionSpec(compile_expression("-x^3"), compile_expression("1")))


@pytest.mark.parametrize("name", ["ou", "-x^3"])
def test_tables_bits_are_pinned(ou, cubic, name):
    law = ou if name == "ou" else cubic
    tables = law.tables
    n, pinned = PINNED_BITS[name]
    assert len(tables.x) == n
    nodes = [0, 1, n // 7, n // 3, n // 2, 2 * n // 3, n - 2, n - 1]
    point = tables.at(PINNED_POINTS)
    fields = {"G": law.ergodicity.G, "F": tables.F[nodes], "m": tables.m[:, nodes], "log_A": tables.log_A[nodes],
              "log_B": tables.log_B[nodes], "nu": tables.nu[:, nodes], "at.F": point.F, "at.m": point.m,
              "at.log_A": point.log_A, "at.log_B": point.log_B, "at.nu": point.nu}
    assert fields.keys() == pinned.keys()
    for key, values in fields.items():
        assert " ".join(float(v).hex() for v in np.ravel(values)) == pinned[key], key


@pytest.mark.parametrize("name", ["ou", "-x^3"])
def test_float_argument_gives_entry_of_array_call(ou, cubic, name):
    # a float argument takes the same panels as an array of one point and
    # comes back as a float, or as a (3,) array for the upper moments
    law = ou if name == "ou" else cubic
    beyond = law.tables.support[1] + 1.0
    for x in (-3.0, 0.0, 0.7, 5.0, beyond):
        for fn in (law.F, law.sf, law.tables.cdf):
            one, row = fn(x), fn(np.array([x]))
            assert type(one) is float and row.shape == (1,)
            assert float(one).hex() == float(row[0]).hex(), (fn, x)
        one, row = law.tables.upper_moments(x), law.tables.upper_moments(np.array([x]))
        assert one.shape == (3,) and row.shape == (3, 1)
        assert [float(v).hex() for v in one] == [float(v).hex() for v in row[:, 0]], x


@pytest.mark.parametrize("drift, sigma, trimmed", [(None, None, True), ("-x^3", "1", True), ("-x", "10", False)])
def test_tables_call_the_density_on_its_panels(monkeypatch, drift, sigma, trimmed):
    # every point the build and the lookups hand the density lies in the panel
    # passed with it; under sigma = 10 the mass at +-50 is above the floor,
    # so the build cuts no node from the support grid
    from stochres import laws
    from stochres.estimators import ChannelConfig, estimate_theta_time_at

    calls = []
    init = laws.LawTables.__init__

    def checked_init(self, nodes, density, sigma_form, f_gauss=None):
        panels = np.arange(len(nodes) - 1)

        def checked(x, i):
            x = np.asarray(x, dtype=float)
            if not isinstance(i, slice):
                assert np.all(np.asarray(i) >= 0)
            k = panels[i]
            assert np.broadcast_shapes(x.shape, np.shape(k)) == x.shape
            assert np.all((nodes[k] <= x) & (x <= nodes[k + 1]))
            calls.append(x.size)
            return density(x, i)

        if f_gauss is not None:
            # the build hands over every panel of the law's grid, with one
            # value per Gauss point of each panel
            assert f_gauss.shape == (5, len(panels))
            calls.append(f_gauss.size)
        init(self, nodes, checked, sigma_form, f_gauss)

    monkeypatch.setattr(laws.LawTables, "__init__", checked_init)
    law = laws.ou_law() if drift is None else build_invariant_law(
        DiffusionSpec(compile_expression(drift), compile_expression(sigma)))
    tables = law.tables
    # the build cuts the support grid to the live mass, and the tables take
    # the cut grid as it is
    assert tables.x is law.grid_x and (len(law.grid_x) < len(laws._probe(law.spec)[3])) == trimmed
    lo, hi = tables.support
    xs = np.concatenate([
        tables.x[[0, 1, len(tables.x) // 3, len(tables.x) // 2, -2, -1]],  # nodes, both support ends among them
        np.linspace(lo, hi, 65)[1:-1] + 1e-3,  # interior points
        [lo + 1e-12, hi - 1e-12, lo - 1.0, hi + 1.0],  # next to the ends and beyond them
    ])
    built = len(calls)
    assert built > 0
    tables.at(xs)
    tables.cdf(xs)
    tables.upper_moments(xs)
    for x in xs:
        tables.cdf(float(x))
        tables.upper_moments(float(x))
        tables.at(np.array([x]))
    # the inversions solve in the node panel that brackets each level
    levels = np.array([1e-300, 1e-12, 0.3, 0.5, 0.7, 1.0 - 1e-12])
    law.quantile(levels)
    estimate_theta_time_at(levels, ChannelConfig(tau=1.0, eps=0.7, law=law))
    assert len(calls) > built


def _law(drift, sigma):
    from stochres import laws

    return laws.ou_law() if drift is None else build_invariant_law(
        DiffusionSpec(compile_expression(drift), compile_expression(sigma)))


@pytest.mark.parametrize("drift, sigma", [(None, None), ("-x^3", "1"), ("-x", "10")])
def test_first_order_readers_build_no_variance_table(monkeypatch, drift, sigma):
    # F, sf, the quantile, cdf, upper_moments and the support read F and m
    # only: no density call on the nested points of the
    # variance pass, a (5, 5, n) block.  The first lookup builds the
    # variance tables, one nested call per block, and later lookups and
    # reads of them build nothing more.
    from stochres import laws

    nested = []
    init = laws.LawTables.__init__

    def counting_init(self, nodes, density, sigma_form, f_gauss=None):
        def counted(x, i):
            if np.ndim(x) == 3:
                nested.append(np.shape(x))
            return density(x, i)

        init(self, nodes, counted, sigma_form, f_gauss)

    monkeypatch.setattr(laws.LawTables, "__init__", counting_init)
    law = _law(drift, sigma)
    tables = law.tables
    lo, hi = tables.support
    xs = np.linspace(lo - 1.0, hi + 1.0, 33)
    law.F(xs), law.sf(xs), law.F(0.3), law.sf(0.3)
    law.quantile(np.array([1e-12, 0.3, 0.5, 0.9, 1.0 - 1e-9])), law.quantile(0.7)
    tables.cdf(xs), tables.upper_moments(xs), tables.cdf(0.3), tables.upper_moments(0.3)
    assert nested == []
    tables.at(np.array([0.3, 0.5 * hi]))
    blocks = -(-(len(tables.x) - 1) // laws._BLOCK)
    assert len(nested) == blocks + 1
    tables.at(np.array([0.3]))
    tables.log_A, tables.log_B, tables.nu
    assert len(nested) == blocks + 2


def test_each_law_builds_its_tables_once(monkeypatch, tmp_path):
    # a law's tables are built with it, once: no read of F, sf, the quantile
    # or a lookup builds them again, and each CLI command builds one law
    from stochres import laws
    from stochres.cli import main

    built = []
    init = laws.LawTables.__init__
    monkeypatch.setattr(laws.LawTables, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    xs = np.linspace(-3.0, 3.0, 13)
    for drift, sigma in ((None, None), ("-x^3", "1")):
        law = _law(drift, sigma)
        assert len(built) == 1  # counted before law.tables is read
        assert built[0] is law.tables
        law.F(xs), law.sf(xs), law.F(0.3), law.sf(0.3), law.quantile(np.array([0.1, 0.5, 0.9])), law.quantile(0.7)
        law.tables.at(xs), law.tables.at(np.array([0.3]))
        assert built == [law.tables]
        built.clear()
    cubic = ["--drift=-x^3", "--sigma", "1"]
    for argv in (["law"], ["estimate", "--T", "100", *cubic], ["resonance", "--grid", "0.3:1.5:0.1", *cubic],
                 ["test", "--T", "100", "--grid", "0.3:1.0:0.35", "--theta-grid", "0.4:0.6:0.2"]):
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        assert len(built) == 1, argv[0]
        built.clear()


@pytest.mark.parametrize("drift, sigma, trimmed", [
    ("-x", "1", True), ("-x^3", "1", True), ("-tanh(x)", "1+0.5*exp(-x^2)", False), ("-x", "10", False),
])
def test_tables_from_the_build_masses_equal_tables_that_call_the_density(monkeypatch, drift, sigma, trimmed):
    # a law's build hands its Gauss-point densities to the tables, whose first
    # pass then calls no density; the tables and every lookup are bit for
    # bit those of tables that evaluate the density
    from stochres import laws

    calls = []
    init = laws.LawTables.__init__

    def counting_init(self, nodes, density, sigma_form, f_gauss=None):
        assert f_gauss is not None
        init(self, nodes, lambda x, i: calls.append(np.ndim(x)) or density(x, i), sigma_form, f_gauss)

    with monkeypatch.context() as patch:
        patch.setattr(laws.LawTables, "__init__", counting_init)
        law = _law(drift, sigma)
        handed = law.tables
    assert calls == []
    called = laws.LawTables(law.grid_x, handed.density, handed.sigma)
    assert (len(handed.x) < len(laws._probe(law.spec)[3])) == trimmed
    lo, hi = handed.support
    xs = np.concatenate([np.linspace(lo, hi, 65)[1:-1] + 1e-3, handed.x[[1, len(handed.x) // 2, -2]]])
    for name in ("x", "F", "m", "log_A", "log_B", "nu"):
        assert getattr(handed, name).tobytes() == getattr(called, name).tobytes(), name
    point_a, point_b = handed.at(xs), called.at(xs)
    for name in ("F", "m", "log_A", "log_B", "nu"):
        assert getattr(point_a, name).tobytes() == getattr(point_b, name).tobytes(), f"at.{name}"
    assert handed.cdf(xs).tobytes() == called.cdf(xs).tobytes()
    assert handed.upper_moments(xs).tobytes() == called.upper_moments(xs).tobytes()


@pytest.mark.parametrize("drift, sigma", [("-x^3", "1"), ("-tanh(x)", "1+0.5*exp(-x^2)")])
def test_grid_law_has_one_density(monkeypatch, drift, sigma):
    # the public f is the tables' density at the panel it searches for; the
    # tables search no node grid, neither in their build nor in a lookup
    from stochres import laws

    law = build_invariant_law(DiffusionSpec(compile_expression(drift), compile_expression(sigma)))
    searches = []
    search = laws._panel_of
    monkeypatch.setattr(laws, "_panel_of", lambda nodes, x: searches.append(np.size(x)) or search(nodes, x))
    tables = law.tables
    lo, hi = tables.support
    tables.at(np.linspace(lo, hi, 65))
    assert searches == []
    nodes = law.grid_x
    xs = np.concatenate([np.random.default_rng(7).uniform(nodes[0], nodes[-1], 500), nodes, nodes[[0, -1]]])
    f = law.f(xs)
    assert searches == [len(xs)]
    panel_f = tables.density(xs, search(nodes, xs))
    assert [float(v).hex() for v in f] == [float(v).hex() for v in panel_f]
    assert float(law.f(float(nodes[-1]))).hex() == float(panel_f[-1]).hex()


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


def test_time_scheme_readers_build_no_suffix_table(monkeypatch):
    # the S_jk tables (nu) are read by the energy variance only: a time
    # lookup, a time-scheme curve and a time-scheme error surface build none
    # of them, and the first energy lookup builds them once, bit for bit the
    # tables a lookup of them at once would have
    from stochres import laws
    from stochres.estimators import statistic_at
    from stochres.maptest import p_err_surface
    from stochres.resonance import resonance_curve

    built = []
    suffix_tables = laws._suffix_tables
    monkeypatch.setattr(laws, "_suffix_tables", lambda *args: built.append(1) or suffix_tables(*args))
    for drift, sigma in ((None, None), ("-x^3", "1")):
        law = _law(drift, sigma)
        eps = np.linspace(0.1, 2.0, 20)
        statistic_at(0.5, 1.0, eps, law, "time")
        resonance_curve(0.5, 1.0, law, "time", eps)
        p_err_surface(0.0, [0.3, 0.5], eps, 1.0, 100.0, 0.5, 0.5, law, "time")
        assert "_second_order" in law.tables.__dict__ and "nu" not in law.tables.__dict__
        assert built == []
        energy = statistic_at(0.5, 1.0, eps, law, "energy")
        assert "nu" in law.tables.__dict__ and built == [1]
        statistic_at(0.5, 1.0, eps, law, "energy")
        p_err_surface(0.0, [0.3, 0.5], eps, 1.0, 100.0, 0.5, 0.5, law, "energy")
        assert built == [1]
        fresh = _law(drift, sigma)
        fresh.tables.nu
        again = statistic_at(0.5, 1.0, eps, fresh, "energy")
        for a, b in zip(energy, again):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        built.clear()


def test_time_scheme_commands_build_no_suffix_table(monkeypatch, tmp_path):
    from stochres import laws
    from stochres.cli import main

    built = []
    suffix_tables = laws._suffix_tables
    monkeypatch.setattr(laws, "_suffix_tables", lambda *args: built.append(1) or suffix_tables(*args))
    cubic = ["--drift=-x^3", "--sigma", "1"]
    for argv, builds in (
        (["resonance", "--scheme", "time", "--grid", "0.3:1.5:0.1"], 0),
        (["resonance", "--scheme", "time", "--grid", "0.3:1.5:0.1", *cubic], 0),
        (["test", "--scheme", "time", "--T", "100", "--grid", "0.3:1.0:0.35", "--theta-grid", "0.4:0.6:0.2"], 0),
        (["test", "--scheme", "time", "--T", "100", "--grid", "0.3:1.0:0.35", "--theta-grid", "0.4:0.6:0.2",
          *cubic], 0),
        (["resonance", "--scheme", "energy", "--grid", "0.3:1.5:0.1"], 1),
        (["test", "--scheme", "energy", "--T", "100", "--grid", "0.3:1.0:0.35", "--theta-grid", "0.4:0.6:0.2"], 1),
    ):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert len(built) == builds, argv
        built.clear()
