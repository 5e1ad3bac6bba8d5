import math

import numpy as np
import pytest

from stochres import TestProblem as Problem
from stochres import (
    Bracket,
    Decision,
    GaussianMoments,
    build_rule,
    decide,
    error_rate_study,
    error_report,
    find_perr_minimum,
    integrate_line,
    moments,
    normal_cdf,
    p_err,
    p_err_surface,
)
from stochres.errors import QuadratureFailure
from stochres.estimators import fisher_at
from stochres.laws import LawTables
from stochres.numerics import SCAN_CELLS, scan_points


def problem(ou, theta1=0.5, eps=0.7, horizon=100.0, p0=0.5, scheme="time", theta0=0.0):
    return Problem(
        theta0=theta0, theta1=theta1, p0=p0, p1=1.0 - p0,
        tau=1.0, eps=eps, horizon=horizon, law=ou, scheme=scheme,
    )


def gaussian_pdf(x, mu, sd):
    return math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# problem and moments
# ---------------------------------------------------------------------------


def test_problem_validation(ou):
    with pytest.raises(ValueError):
        problem(ou, theta1=1.5)  # above threshold
    with pytest.raises(ValueError):
        problem(ou, theta0=0.6)  # theta0 > theta1
    with pytest.raises(ValueError):
        Problem(0.0, 0.5, 1.0, 0.0, 1.0, 0.7, 100.0, ou)  # prior on boundary
    with pytest.raises(ValueError):
        Problem(0.0, 0.5, 0.6, 0.6, 1.0, 0.7, 100.0, ou)  # priors not summing to 1


@pytest.mark.parametrize("field", ["tau", "eps", "horizon", "theta0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_tau_eps_and_horizon(ou, field, value):
    # a NaN horizon or an infinite theta0 would build and fail only in
    # p_err, as a quadrature failure
    fields = dict(theta0=0.0, theta1=0.5, p0=0.5, p1=0.5, tau=1.0, eps=0.7, horizon=100.0, law=ou)
    with pytest.raises(ValueError, match=field):
        Problem(**{**fields, field: value})


@pytest.mark.parametrize("scheme", ["Time", "bogus"])
def test_an_unknown_scheme_is_rejected(ou, scheme):
    # not run as the energy scheme
    with pytest.raises(ValueError, match="unknown scheme"):
        find_perr_minimum(0.0, 0.5, 1.0, 100.0, 0.5, 0.5, ou, scheme)
    with pytest.raises(ValueError, match="unknown scheme"):
        p_err_surface(0.0, [0.5], [0.5, 1.0], 1.0, 100.0, 0.5, 0.5, ou, scheme)
    with pytest.raises(ValueError, match="unknown scheme"):
        fisher_at(0.5, 1.0, np.array([0.5, 1.0]), ou, scheme)
    with pytest.raises(ValueError, match="unknown scheme"):
        p_err(problem(ou, scheme=scheme))


def test_moments_continuous_in_theta(ou):
    m = moments(problem(ou, theta1=1e-9, theta0=0.0))
    assert m.mu0 == pytest.approx(m.mu1, abs=1e-9)
    assert m.s0sq == pytest.approx(m.s1sq, rel=1e-6)


def test_time_moments_are_probabilities(ou):
    m = moments(problem(ou))
    assert 0.0 < m.mu0 < 1.0 and 0.0 < m.mu1 < 1.0


def test_variance_increases_with_signal(ou):
    # closer to the threshold, the statistic fluctuates more
    m = moments(problem(ou))
    assert m.s1sq > m.s0sq


def test_energy_moments(ou):
    m = moments(problem(ou, scheme="energy"))
    assert m.mu1 > m.mu0 > 0.0
    assert m.s1sq > m.s0sq > 0.0


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------


def test_case3_equal_priors_midpoint():
    m = GaussianMoments(mu0=0.2, mu1=0.4, s0sq=0.01, s1sq=0.01)
    rule = build_rule(m, 0.5, 0.5)
    assert rule.case_id == 3
    assert rule.gamma_single == pytest.approx(0.3, abs=1e-12)


def test_near_cut_just_above_the_equal_variance_switch():
    # variances 1.01e-12 apart: two cuts, the near one at the posterior
    # equality point 0.3; subtracting the roots' numerator put it at 0.30006
    two_cuts = GaussianMoments(mu0=0.2, mu1=0.4, s0sq=0.01, s1sq=0.01 * (1 + 1.01e-12))
    single_cut = GaussianMoments(mu0=0.2, mu1=0.4, s0sq=0.01, s1sq=0.01 * (1 + 0.99e-12))
    rule = build_rule(two_cuts, 0.5, 0.5)
    assert rule.case_id == 2 and build_rule(single_cut, 0.5, 0.5).case_id == 3
    assert rule.gamma_hi == pytest.approx(0.3, abs=1e-9)
    assert error_report(two_cuts, 0.5, 0.5).p_err == pytest.approx(
        error_report(single_cut, 0.5, 0.5).p_err, rel=1e-9
    )


def test_case1_negative_discriminant_accepts_always():
    # wide null, degenerate alternative prior: accepting is always optimal
    m = GaussianMoments(mu0=0.3, mu1=0.301, s0sq=0.04, s1sq=0.01)
    rule = build_rule(m, 0.9, 0.1)
    assert rule.case_id == 1
    assert rule.delta < 0
    assert decide(rule, 0.3) is Decision.D0
    assert decide(rule, 100.0) is Decision.D0
    report = error_report(m, 0.9, 0.1)
    assert report.p_err == 0.1  # exactly the alternative prior


def test_case2_cuts_equalize_posteriors(ou):
    m = moments(problem(ou))
    rule = build_rule(m, 0.5, 0.5)
    assert rule.case_id == 2
    s0, s1 = math.sqrt(m.s0sq), math.sqrt(m.s1sq)
    for cut in (rule.gamma_lo, rule.gamma_hi):
        post0 = 0.5 * gaussian_pdf(cut, m.mu0, s0)
        post1 = 0.5 * gaussian_pdf(cut, m.mu1, s1)
        assert post0 == pytest.approx(post1, abs=1e-9)


def test_decide_cases(ou):
    m3 = GaussianMoments(mu0=0.2, mu1=0.4, s0sq=0.01, s1sq=0.01)
    r3 = build_rule(m3, 0.5, 0.5)
    assert decide(r3, 0.25) is Decision.D0
    assert decide(r3, 0.35) is Decision.D1

    m = moments(problem(ou))
    r2 = build_rule(m, 0.5, 0.5)
    assert r2.case_id == 2 and r2.delta > 0
    inside = 0.5 * (r2.gamma_lo + r2.gamma_hi)
    assert decide(r2, inside) is Decision.D0
    assert decide(r2, r2.gamma_hi + 1.0) is Decision.D1


def test_decide_matches_posterior_ratio(ou):
    m = moments(problem(ou))
    rule = build_rule(m, 0.5, 0.5)
    s0, s1 = math.sqrt(m.s0sq), math.sqrt(m.s1sq)
    rng = np.random.default_rng(7)
    lo = min(m.mu0, m.mu1) - 4.0 * max(s0, s1)
    hi = max(m.mu0, m.mu1) + 4.0 * max(s0, s1)
    checked = 0
    for x in rng.uniform(lo, hi, size=1000):
        x = float(x)
        log_ratio = (
            math.log(0.5) + math.log(gaussian_pdf(x, m.mu1, s1))
            - math.log(0.5) - math.log(gaussian_pdf(x, m.mu0, s0))
        )
        if abs(log_ratio) < 1e-9:
            continue  # boundary tolerance
        expected = Decision.D1 if log_ratio > 0 else Decision.D0
        assert decide(rule, x) is expected
        checked += 1
    assert checked > 900


# ---------------------------------------------------------------------------
# error probability
# ---------------------------------------------------------------------------


def test_perr_case3_symmetric_is_normal_tail():
    m = GaussianMoments(mu0=0.2, mu1=0.4, s0sq=0.01, s1sq=0.01)
    report = error_report(m, 0.5, 0.5)
    assert report.p_err == pytest.approx(normal_cdf(-1.0), abs=1e-12)
    assert report.p_err == pytest.approx(0.15866, abs=1e-5)


@pytest.mark.parametrize("p0", [0.3, 0.5, 0.7])
def test_perr_indistinguishable_limit(ou, p0):
    report = p_err(problem(ou, theta1=1e-9, theta0=0.0, p0=p0))
    assert report.p_err == pytest.approx(min(p0, 1.0 - p0), abs=1e-6)


def test_perr_components_combine(ou):
    pr = problem(ou, p0=0.3)
    report = p_err(pr)
    assert report.p_err == pytest.approx(0.3 * report.p_type1 + 0.7 * report.p_type2, abs=1e-15)
    assert 0.0 <= report.p_err <= 1.0


def test_relabeling_symmetry(ou):
    m = moments(problem(ou, p0=0.35))
    direct = error_report(m, 0.35, 0.65).p_err
    swapped = error_report(m.swapped(), 0.65, 0.35).p_err
    assert direct == pytest.approx(swapped, abs=1e-12)


def test_relabeling_symmetry_equal_variances():
    # swapping hypotheses flips the mean ordering; the single-cut rule must
    # reject on the correct side and keep the same overall error
    m = GaussianMoments(mu0=0.2, mu1=0.4, s0sq=0.01, s1sq=0.01)
    direct = error_report(m, 0.4, 0.6)
    swapped = error_report(m.swapped(), 0.6, 0.4)
    assert direct.p_err == pytest.approx(swapped.p_err, abs=1e-12)
    assert direct.p_type1 == pytest.approx(swapped.p_type2, abs=1e-12)

    rule = build_rule(m.swapped(), 0.6, 0.4)
    assert rule.case_id == 3 and not rule.alt_on_high
    # the alternative now has the smaller mean: reject on the low side
    assert decide(rule, 0.25) is Decision.D1
    assert decide(rule, 0.35) is Decision.D0


# every shape a rule can take, with the case and discriminant sign it must get
RULE_SHAPES = {
    "case1-delta-positive": (GaussianMoments(0.0, 1.0, 1.0, 0.25), 0.5, 1, True),
    "case1-delta-negative": (GaussianMoments(0.3, 0.301, 0.04, 0.01), 0.9, 1, False),
    "case2-delta-positive": (GaussianMoments(0.0, 1.0, 0.25, 1.0), 0.5, 2, True),
    "case2-delta-negative": (GaussianMoments(0.3, 0.301, 0.01, 0.04), 0.1, 2, False),
    "case3-alternative-above": (GaussianMoments(0.2, 0.4, 0.01, 0.01), 0.4, 3, None),
    "case3-alternative-below": (GaussianMoments(0.4, 0.2, 0.01, 0.01), 0.4, 3, None),
    "identical-null-prior-larger": (GaussianMoments(0.2, 0.2, 0.01, 0.01), 0.6, 3, None),
    "identical-alternative-prior-larger": (GaussianMoments(0.2, 0.2, 0.01, 0.01), 0.3, 3, None),
}


@pytest.mark.parametrize("name", list(RULE_SHAPES))
def test_decide_and_error_report_agree(name):
    # each error is the Gaussian mass of the set where decide makes that error
    m, p0, case_id, delta_positive = RULE_SHAPES[name]
    report = error_report(m, p0, 1.0 - p0)
    rule = report.rule
    assert rule.case_id == case_id
    if delta_positive is not None:
        assert (rule.delta > 0) is delta_positive
    cuts = [c for c in (rule.gamma_lo, rule.gamma_hi, rule.gamma_single) if c is not None]

    def mass(decision, mu, var):
        sd = math.sqrt(var)
        return integrate_line(
            lambda x: gaussian_pdf(x, mu, sd) if decide(rule, x) is decision else 0.0,
            split_at=cuts + [mu],
        )

    assert report.p_type1 == pytest.approx(mass(Decision.D1, m.mu0, m.s0sq), abs=1e-10)
    assert report.p_type2 == pytest.approx(mass(Decision.D0, m.mu1, m.s1sq), abs=1e-10)


def reference_errors(m, rule):
    """Type-1 and type-2 errors of a two-cut rule at its own (float) cuts, in
    100-digit arithmetic, where 1 minus a mass loses nothing.  Compare with
    abs=0.0: approx's default absolute tolerance of 1e-12 would accept 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        lo, hi = mpmath.mpf(rule.gamma_lo), mpmath.mpf(rule.gamma_hi)

        def inside(mu, var):
            sd = mpmath.sqrt(var)
            return mpmath.ncdf((hi - mu) / sd) - mpmath.ncdf((lo - mu) / sd)

        in0, in1 = inside(m.mu0, m.s0sq), inside(m.mu1, m.s1sq)
        t1, t2 = (in0, 1 - in1) if rule.case_id == 1 else (1 - in0, in1)
        return float(t1), float(t2)


def test_long_horizon_type1_error_is_a_tail_sum(ou):
    # the null mass outside the case-2 interval used to be 1 - (1 - 4.5e-18),
    # which rounds to 0, and p_err came out 18 % low
    pr = problem(ou, eps=0.6040932546543265, horizon=1000.0)
    report = p_err(pr)
    assert report.rule.case_id == 2
    t1, t2 = reference_errors(moments(pr), report.rule)
    assert report.p_type1 == pytest.approx(4.5009371e-18, rel=1e-7, abs=0.0)
    assert report.p_type1 == pytest.approx(t1, rel=1e-12, abs=0.0)
    assert report.p_type2 == pytest.approx(t2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m, case_id", [
    (GaussianMoments(mu0=0.0, mu1=40.0, s0sq=4.0, s1sq=1.0), 1),
    (GaussianMoments(mu0=0.0, mu1=40.0, s0sq=1.0, s1sq=4.0), 2),
], ids=["case1", "case2"])
def test_two_cut_errors_keep_far_tails(m, case_id):
    # both errors lie below 1e-30: each is a tail sum, never 1 minus a mass
    report = error_report(m, 0.5, 0.5)
    assert report.rule.case_id == case_id
    t1, t2 = reference_errors(m, report.rule)
    assert 0.0 < t1 < 1e-30 and 0.0 < t2 < 1e-30
    assert report.p_type1 == pytest.approx(t1, rel=1e-12, abs=0.0)
    assert report.p_type2 == pytest.approx(t2, rel=1e-12, abs=0.0)


def test_map_never_worse_than_prior_guess(ou):
    for p0 in (0.3, 0.5, 0.8):
        for theta1 in (0.2, 0.5, 0.8):
            for eps in (0.3, 0.7, 1.5):
                report = p_err(problem(ou, theta1=theta1, eps=eps, p0=p0))
                assert report.p_err <= min(p0, 1.0 - p0) + 1e-12


# ---------------------------------------------------------------------------
# degenerate noise levels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_degenerate_noise_level_reports_prior_guess(ou, eps):
    # the path almost never crosses the threshold under either hypothesis;
    # the Gaussian tails gave 0, 8e-17 and 5.8e-5 here, while 2000 Monte
    # Carlo paths (base_seed 7000) measure 0.50, 0.50 and 0.42
    report = p_err(problem(ou, eps=eps))
    assert report.degenerate
    assert report.p_err == 0.5
    assert (report.p_type1, report.p_type2) == (0.0, 1.0)
    assert "z0=" in report.reason and "z1=" in report.reason
    assert report.rule is None


def test_degenerate_prior_guess_follows_larger_prior(ou):
    report = p_err(problem(ou, eps=0.1, p0=0.3))
    assert report.degenerate
    assert report.p_err == pytest.approx(0.3, abs=1e-15)
    assert (report.p_type1, report.p_type2) == (1.0, 0.0)


def test_degenerate_prediction_matches_simulation(ou):
    # at eps = 0.1 no path crosses, so the rate is the prior guess; with
    # 100 expected errors the binomial band is valid
    study = error_rate_study(problem(ou, eps=0.1), dt=0.01, n_paths=200, base_seed=7000)
    assert study.predicted_p_err == 0.5
    assert abs(study.empirical_rate - study.predicted_p_err) <= 3.0 * study.binomial_se


def test_nondegenerate_noise_level_is_not_flagged(ou):
    report = p_err(problem(ou, eps=0.7))
    assert not report.degenerate and report.reason is None
    assert 0.0 < report.p_err < 0.5
    # the report carries the rule its error belongs to
    assert report.rule == build_rule(moments(problem(ou, eps=0.7)), 0.5, 0.5)


def test_surface_flags_degenerate_cells(ou):
    cells = p_err_surface(0.0, [0.5], [0.1, 0.7], 1.0, 100.0, 0.5, 0.5, ou)
    low, mid = cells
    assert low.degenerate and not low.failed and low.p_err == 0.5 and low.case_id is None
    assert not mid.degenerate and mid.case_id is not None
    assert mid.p_err == p_err(problem(ou, eps=0.7)).p_err


@pytest.mark.parametrize("theta0, theta1, tau", [
    (0.0, 1.5, 1.0),  # theta1 above the threshold
    (0.5, 0.3, 1.0),  # theta0 above theta1
    (0.3, 0.3, 1.0),
    (0.0, 0.5, math.inf),
    (0.0, 0.5, math.nan),
])
def test_perr_minimum_rejects_signals_out_of_order(ou, theta0, theta1, tau):
    with pytest.raises(ValueError, match="theta0 < theta1 < tau"):
        find_perr_minimum(theta0, theta1, tau, 100.0, 0.5, 0.5, ou)


@pytest.mark.parametrize("horizon", [math.nan, -100.0, 0.0, math.inf])
def test_perr_minimum_and_surface_reject_a_bad_horizon(ou, horizon):
    # a NaN or negative horizon fails every level: the search returned the
    # bracket's lower end with n_failed 65 and the surface failed every cell
    with pytest.raises(ValueError, match="horizon"):
        find_perr_minimum(0.0, 0.5, 1.0, horizon, 0.5, 0.5, ou)
    with pytest.raises(ValueError, match="horizon"):
        p_err_surface(0.0, [0.5], [0.5, 1.0], 1.0, horizon, 0.5, 0.5, ou)


@pytest.mark.parametrize("theta0", [math.nan, -math.inf])
def test_perr_minimum_and_surface_reject_a_non_finite_null(ou, theta0):
    # a NaN null skipped every cell of the surface
    with pytest.raises(ValueError, match="theta0"):
        p_err_surface(theta0, [0.5], [0.5, 1.0], 1.0, 100.0, 0.5, 0.5, ou)
    with pytest.raises(ValueError, match="theta0"):
        find_perr_minimum(theta0, 0.5, 1.0, 100.0, 0.5, 0.5, ou)


@pytest.mark.parametrize("p0, p1, message", [
    (0.7, 0.7, "priors must sum to 1"),  # the search returned eps* 0.583
    (0.0, 1.0, "priors must lie strictly inside"),  # a ZeroDivisionError
    (1.5, -0.5, "priors must lie strictly inside"),  # a math domain error
])
def test_perr_minimum_and_surface_check_the_priors(ou, p0, p1, message):
    with pytest.raises(ValueError, match=message):
        find_perr_minimum(0.0, 0.5, 1.0, 100.0, p0, p1, ou)
    with pytest.raises(ValueError, match=message):
        p_err_surface(0.0, [0.5], [0.5, 1.0], 1.0, 100.0, p0, p1, ou)


def test_perr_minimum_ignores_degenerate_levels(ou):
    found = find_perr_minimum(0.0, 0.5, 1.0, 100.0, 0.5, 0.5, ou, "time",
                              bracket=Bracket(0.05, 3.0))
    assert 0.55 <= found.eps_star <= 0.62
    assert found.p_err_min > 0.0
    assert len(found.local_minima) == 1
    assert found.n_degenerate > 0 and found.n_failed == 0


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_perr_minimum_carries_bracket_endpoints(ou, scheme):
    # the scan evaluates both bracket ends; their reports come with the result
    found = find_perr_minimum(0.0, 0.5, 1.0, 100.0, 0.5, 0.5, ou, scheme,
                              bracket=Bracket(0.1, 3.0))
    lo, hi = found.endpoints
    assert lo == p_err(problem(ou, eps=0.1, scheme=scheme)) and lo.degenerate
    assert hi == p_err(problem(ou, eps=3.0, scheme=scheme)) and not hi.degenerate


def test_underflowing_cuts_fail_the_cell(ou):
    # at T = 1e150 the variances are near the smallest double: at eps =
    # 0.0625 both the linear term b and s0*s1*sqrt(delta) round to 0, so the
    # near cut c/q divided by 0 (a ZeroDivisionError from p_err and from the
    # search); the cell now fails like one whose variance fails, with a reason
    pr = problem(ou, theta1=0.1, eps=0.0625, horizon=1e150)
    m = moments(pr)
    for evaluate in (lambda: p_err(pr), lambda: build_rule(m, 0.5, 0.5), lambda: error_report(m, 0.5, 0.5)):
        with pytest.raises(QuadratureFailure, match="cuts underflow"):
            evaluate()
    [cell] = p_err_surface(0.0, [0.1], [0.0625], 1.0, 1e150, 0.5, 0.5, ou)
    assert cell.failed and math.isnan(cell.p_err)
    for horizon in (1e150, 1e300):
        found = find_perr_minimum(0.0, 0.1, 1.0, horizon, 0.5, 0.5, ou)
        assert found.n_failed > 0 and found.endpoints[0] is None


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_perr_minimum_counts_the_scan_levels_only(ou, scheme):
    # n_degenerate and n_failed are properties of the 65-point scan, not of
    # where the golden section steps: the same at every tol (counting the
    # refinement too gave 6 and 9 in the time scheme, 7 and 9 in the energy
    # scheme)
    bracket = Bracket(0.1, 3.0)
    scan = np.linspace(bracket.lo, bracket.hi, SCAN_CELLS + 1)
    cells = p_err_surface(0.0, [0.7], scan, 1.0, 100.0, 0.5, 0.5, ou, scheme)
    expected = (sum(c.degenerate for c in cells), sum(c.failed for c in cells))
    assert expected == (3, 0)
    for tol in (1e-4, 1e-6):
        found = find_perr_minimum(0.0, 0.7, 1.0, 100.0, 0.5, 0.5, ou, scheme, bracket=bracket, tol=tol)
        assert (found.n_degenerate, found.n_failed) == expected, tol


@pytest.mark.parametrize("scheme", ["time", "energy"])
@pytest.mark.parametrize("horizon", [100.0, 200.0])
def test_perr_minimum_matches_a_dense_grid(ou, scheme, horizon):
    # oracle: the lowest of 20 001 levels across the dip's two scan cells,
    # one surface row; the refining scans land within tol of it, and the
    # dip's error within 1e-5 of the oracle's
    bracket, tol = Bracket(0.05, 3.0), 1e-4
    found = find_perr_minimum(0.0, 0.5, 1.0, horizon, 0.5, 0.5, ou, scheme, bracket=bracket, tol=tol)
    assert found.local_minima and found.eps_star == found.local_minima[0][0]
    scan = scan_points(bracket)
    for eps, value in found.local_minima:
        i = int(np.clip(np.argmin(np.abs(scan - eps)), 1, SCAN_CELLS - 1))
        grid = np.linspace(scan[i - 1], scan[i + 1], 20_001)
        cells = p_err_surface(0.0, [0.5], grid, 1.0, horizon, 0.5, 0.5, ou, scheme)
        assert not any(c.failed or c.degenerate for c in cells)
        best = min(cells, key=lambda c: c.p_err)
        assert abs(eps - best.eps) <= tol
        assert value == pytest.approx(best.p_err, rel=1e-5)


@pytest.mark.parametrize("scheme", ["time", "energy"])
@pytest.mark.parametrize("horizon", [50.0, 100.0, 1000.0])
def test_no_minimum_next_to_degenerate_level(ou, scheme, horizon):
    # a minimum beside a degenerate level is where the Gaussian
    # approximation starts, not a dip
    bracket = Bracket(0.05, 3.0)
    found = find_perr_minimum(0.0, 0.5, 1.0, horizon, 0.5, 0.5, ou, scheme, bracket=bracket)
    scan = np.linspace(bracket.lo, bracket.hi, SCAN_CELLS + 1)
    cell = scan[1] - scan[0]
    for eps, value in found.local_minima:
        assert value > 0.0
        for neighbour in scan[np.abs(scan - eps) <= cell]:
            pr = problem(ou, eps=float(neighbour), horizon=horizon, scheme=scheme)
            assert not p_err(pr).degenerate, (eps, float(neighbour))


# ---------------------------------------------------------------------------
# surface and resonance of the error probability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_scan_and_surface_rows_are_one_lookup_each(ou, monkeypatch, scheme):
    # one lookup of both hypotheses' 65 points for the scan of
    # find_perr_minimum and for each of its two refining scans, and one for
    # the whole surface, its null row and every theta1 row; one lookup per
    # hypothesis made 6 and 4, one per point 166 and 120.  Each call records
    # the number of points looked up.  No other read of the tables: a
    # time-scheme mean read from sf made 38 more per search and 4 per surface.
    calls, reads = [], []
    real = LawTables.at
    monkeypatch.setattr(LawTables, "at", lambda self, x: calls.append(np.size(x)) or real(self, x))
    for name in ("upper_moments", "cdf"):
        read = getattr(LawTables, name)
        monkeypatch.setattr(LawTables, name, lambda self, x, name=name, read=read: reads.append(name) or read(self, x))
    find_perr_minimum(0.0, 0.5, 1.0, 100.0, 0.5, 0.5, ou, scheme)
    assert calls == [130] * 3
    assert reads == []
    calls.clear()
    cells = p_err_surface(0.0, [0.3, 0.5, 0.7], np.arange(1, 31) / 10.0, 1.0, 100.0, 0.5, 0.5, ou, scheme)
    assert len(cells) == 90
    assert calls == [120] and reads == []


def test_surface_cells_equal_pointwise_reports(ou):
    # a surface row reads one array lookup; each cell is the p_err report of
    # its own problem, its error and its rule bit for bit, and a failed cell
    # is one whose problem raises
    theta1_grid = [0.3, 0.7]
    eps_grid = [0.03, 0.1, 0.4, 0.9, 2.5]
    for scheme in ("time", "energy"):
        cells = p_err_surface(0.0, theta1_grid, eps_grid, 1.0, 100.0, 0.5, 0.5, ou, scheme)
        for cell in cells:
            pr = problem(ou, theta1=cell.theta1, eps=cell.eps, scheme=scheme)
            if cell.failed:
                with pytest.raises(QuadratureFailure):
                    p_err(pr)
                continue
            report = p_err(pr)
            assert cell.p_err == report.p_err and cell.degenerate == report.degenerate
            if not cell.degenerate:
                rule = report.rule
                assert (cell.case_id, cell.delta, cell.gamma_lo, cell.gamma_hi) == (
                    rule.case_id, rule.delta, rule.gamma_lo, rule.gamma_hi)
        assert any(c.failed for c in cells) and any(c.degenerate for c in cells)


def test_surface_shape_flags_and_reproducibility(ou):
    theta1_grid = [0.3, 0.5, 1.2]  # last one violates theta1 < tau
    eps_grid = [0.4, 0.8]
    cells = p_err_surface(0.0, theta1_grid, eps_grid, 1.0, 100.0, 0.5, 0.5, ou)
    again = p_err_surface(0.0, theta1_grid, eps_grid, 1.0, 100.0, 0.5, 0.5, ou)
    assert cells == again  # pure function, bit-identical
    assert len(cells) == 6
    skipped = [c for c in cells if c.skipped]
    assert {c.theta1 for c in skipped} == {1.2}
    for c in cells:
        if not (c.skipped or c.failed):
            assert 0.0 <= c.p_err <= 0.5 + 1e-12


def dense_interior_dip(ou, scheme="time", horizon=100.0, lo=0.2, hi=3.0, n=300):
    """Dense-grid oracle: the interior local minimum of p_err away from the
    small-eps region where the Gaussian approximation degenerates."""
    grid = np.linspace(lo, hi, n)
    values = np.array([p_err(problem(ou, eps=float(e), horizon=horizon, scheme=scheme)).p_err
                       for e in grid])
    interior = (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
    dips = [(float(grid[1 + i]), float(values[1 + i])) for i in np.flatnonzero(interior)]
    assert dips, "oracle found no interior local minimum"
    return min(dips, key=lambda p: p[1]), float(grid[1] - grid[0])


def test_perr_has_interior_dip(ou):
    # noise level can genuinely lower the decision error: the curve dips
    # between its small-eps rise and the large-eps deterioration
    (oracle_eps, oracle_val), cell = dense_interior_dip(ou)
    found = find_perr_minimum(0.0, 0.5, 1.0, 100.0, 0.5, 0.5, ou, "time",
                              bracket=Bracket(0.05, 3.0))
    matches = [e for e, v in found.local_minima if abs(e - oracle_eps) <= cell + 1e-9]
    assert matches, f"no reported local minimum near the oracle dip {oracle_eps}"
    assert oracle_val < p_err(problem(ou, eps=3.0)).p_err
    # strictly below its neighborhood on both sides
    assert oracle_val < p_err(problem(ou, eps=oracle_eps - 0.15)).p_err
    assert oracle_val < p_err(problem(ou, eps=oracle_eps + 0.15)).p_err


def test_longer_horizon_reduces_error(ou):
    # pointwise: smaller statistic variance can only help
    for eps in (0.4, 0.6, 1.0):
        assert (p_err(problem(ou, eps=eps, horizon=500.0)).p_err
                < p_err(problem(ou, eps=eps, horizon=50.0)).p_err)
    # and at the resonance dip itself, where the dip exists at both horizons
    (_, val_short), _ = dense_interior_dip(ou, horizon=100.0)
    (_, val_long), _ = dense_interior_dip(ou, horizon=1000.0)
    assert 0.0 <= val_long < val_short


def test_energy_scheme_dip_exists(ou):
    (oracle_eps, oracle_val), _ = dense_interior_dip(ou, scheme="energy", n=120)
    assert 0.2 < oracle_eps < 3.0
    assert 0.0 <= oracle_val < 0.5
