import math
import re

import numpy as np
import pytest
from scipy import integrate, special

from stochres import (
    ChannelConfig,
    DiffusionSpec,
    SimConfig,
    build_invariant_law,
    edf_variance,
    energy_limit,
    energy_limit_closed_form,
    energy_limit_derivative,
    energy_limit_derivative_closed_form,
    energy_limit_derivative_quadrature,
    energy_limit_quadrature,
    energy_scheme_variance,
    energy_statistic_variance,
    estimate_theta_energy,
    estimate_theta_time,
    observe,
    observe_paths,
    perturb,
    simulate_paths,
    time_fraction_limit,
    time_scheme_variance,
    time_scheme_variance_ou_reference,
)
from stochres import estimators
from stochres.errors import DegenerateObservation, OutOfRange, QuadratureFailure
from stochres.estimators import (
    edf_variance_at,
    energy_limit_at,
    energy_limit_derivative_at,
    energy_statistic_variance_at,
    estimate_theta_energy_at,
    estimate_theta_time_at,
    fisher_at,
)
from stochres.expressions import compile_expression
from stochres.numerics import integrate_interval

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def ch_oracle(ou):
    return ChannelConfig(tau=1.0, eps=0.7244, law=ou)


# ---------------------------------------------------------------------------
# time-fraction map and its inverse
# ---------------------------------------------------------------------------


def test_fraction_at_threshold_is_half(ou):
    ch = ChannelConfig(tau=1.0, eps=0.5, law=ou)
    assert time_fraction_limit(1.0, ch) == pytest.approx(0.5)


def test_fraction_example_value(ch_oracle):
    # erf-based oracle at the standardized gap a = 0.5/0.7244
    a = 0.5 / 0.7244
    expected = 0.5 * math.erfc(a)
    value = time_fraction_limit(0.5, ch_oracle)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.1647, abs=1e-3)


def test_fraction_deep_subthreshold_tail(ou):
    ch = ChannelConfig(tau=1.0, eps=1.0, law=ou)
    assert time_fraction_limit(-50.0, ch) < 1e-300


def test_estimate_theta_time_at_half(ch_oracle):
    assert estimate_theta_time(0.5, ch_oracle) == pytest.approx(ch_oracle.tau)


def test_estimate_theta_time_roundtrip(ch_oracle):
    frac = time_fraction_limit(0.5, ch_oracle)
    assert estimate_theta_time(frac, ch_oracle) == pytest.approx(0.500, abs=2e-3)


@pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.1])
def test_estimate_theta_time_degenerate(ch_oracle, frac):
    with pytest.raises(DegenerateObservation):
        estimate_theta_time(frac, ch_oracle)


@pytest.fixture(scope="module")
def cubic_law():
    return build_invariant_law(DiffusionSpec(compile_expression("-x^3"), compile_expression("1")))


@pytest.mark.parametrize("frac", [2.0**-62, 1e-17])
@pytest.mark.parametrize("name", ["ou", "-x^3"])
def test_estimate_theta_time_of_a_tiny_fraction(ou, cubic_law, name, frac):
    # sf is solved at the fraction itself: 1 - (1 - 2^-62) is 0, which the
    # quantile refused, and 1 - (1 - 1e-17) too
    ch = ChannelConfig(tau=1.0, eps=0.7, law=ou if name == "ou" else cubic_law)
    theta = estimate_theta_time(frac, ch)
    assert math.isfinite(theta)
    assert abs(ch.law.sf(ch.gap_ratio(theta)) - frac) <= 1e-9 * frac


@pytest.mark.parametrize("name", ["ou", "-x^3"])
def test_estimate_theta_time_at_tiny_fractions_is_the_scalar_estimate(ou, cubic_law, name):
    ch = ChannelConfig(tau=1.0, eps=0.7, law=ou if name == "ou" else cubic_law)
    fractions = np.array([0.3, 2.0**-62, 0.5, 1.0 - 1e-12, 1e-17, 0.9, 1e-300, 0.5 + 1e-12, 0.1])
    theta, degenerate = estimate_theta_time_at(fractions, ch)
    assert not degenerate.any()
    assert [v.hex() for v in theta.tolist()] == [estimate_theta_time(f, ch).hex() for f in fractions.tolist()]


def test_forward_maps_strictly_increasing(ou):
    ch = ChannelConfig(tau=1.0, eps=0.6, law=ou)
    thetas = np.linspace(-0.5, 0.95, 30)
    fracs = [time_fraction_limit(float(t), ch) for t in thetas]
    energies = [energy_limit(float(t), ch) for t in thetas]
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_roundtrip_property_both_schemes(ou):
    ch = ChannelConfig(tau=1.0, eps=0.8, law=ou)
    for theta in np.linspace(0.0, 0.9, 10):
        theta = float(theta)
        frac = time_fraction_limit(theta, ch)
        assert estimate_theta_time(frac, ch) == pytest.approx(theta, abs=1e-6)
        nu = energy_limit(theta, ch)
        assert estimate_theta_energy(nu, ch) == pytest.approx(theta, abs=1e-6)


# ---------------------------------------------------------------------------
# EDF variance
# ---------------------------------------------------------------------------


def edf_variance_riemann(x, n=1_000_001, lo=-8.0, hi=8.0):
    """Dense-grid midpoint oracle for the variance kernel, Gaussian law."""
    edges = np.linspace(lo, hi, n)
    xi = 0.5 * (edges[:-1] + edges[1:])
    f = np.exp(-xi * xi) / SQRT_PI
    F = 0.5 * special.erfc(-xi)
    sf = 0.5 * special.erfc(xi)
    fmin = np.where(xi < x, F, 0.5 * special.erfc(-x))
    smax = np.where(xi > x, sf, 0.5 * special.erfc(x))
    integrand = (fmin * smax / f) ** 2 * f
    return 4.0 * float(np.sum(integrand) * (edges[1] - edges[0]))


def test_edf_variance_matches_riemann_oracle(ou):
    sigma = ou.spec.diffusion
    value = edf_variance(0.0, ou, sigma)
    assert value == pytest.approx(edf_variance_riemann(0.0), rel=1e-5)


def test_edf_variance_symmetry(ou):
    sigma = ou.spec.diffusion
    for x in (0.3, 0.7, 1.4):
        assert edf_variance(x, ou, sigma) == pytest.approx(edf_variance(-x, ou, sigma), abs=1e-8)


def test_edf_variance_positive(ou):
    sigma = ou.spec.diffusion
    for x in np.linspace(-2.0, 2.0, 9):
        assert edf_variance(float(x), ou, sigma) > 0.0


# ---------------------------------------------------------------------------
# time-scheme variance and the closed-form cross-check
# ---------------------------------------------------------------------------


def test_time_variance_positive_and_reciprocal(ou):
    for eps in (0.3, 0.7244, 1.5):
        rep = time_scheme_variance(0.5, ChannelConfig(tau=1.0, eps=eps, law=ou))
        assert rep.value > 0 and rep.fisher > 0
        assert rep.fisher == pytest.approx(1.0 / rep.value, rel=1e-12)
        assert rep.scheme == "time"


def test_reference_variance_is_constant_multiple(ou):
    # the textbook closed form carries a different constant; the ratio to the
    # generic pipeline must not depend on (theta, eps), and algebra puts the
    # constant at exactly 4
    ratios = []
    for theta in (0.0, 0.3, 0.5):
        for eps in (0.4, 0.7, 1.1):
            generic = time_scheme_variance(theta, ChannelConfig(tau=1.0, eps=eps, law=ou)).value
            reference = time_scheme_variance_ou_reference(theta, 1.0, eps)
            ratios.append(reference / generic)
    assert np.std(ratios) / np.mean(ratios) < 1e-7
    assert np.mean(ratios) == pytest.approx(4.0, rel=1e-7)


@pytest.mark.parametrize("scheme_fn", [time_scheme_variance, energy_scheme_variance])
@pytest.mark.parametrize("theta,eps_hi", [(0.5, 3.0), (0.0, 6.0)])
def test_fisher_curve_positive_and_vanishing(ou, scheme_fn, theta, eps_hi):
    # information dies in both limits: the signal is invisible without noise
    # and swamped by too much of it; the theta=0 peak sits near eps=0.7, so
    # its upper tail needs a wider window to drop below a tenth of the peak
    eps_grid = np.linspace(0.05, eps_hi, 30)
    fishers = [scheme_fn(theta, ChannelConfig(tau=1.0, eps=float(e), law=ou)).fisher for e in eps_grid]
    assert all(f > 0 for f in fishers)
    peak = max(fishers)
    assert fishers[0] < 0.1 * peak
    assert fishers[-1] < 0.1 * peak


# ---------------------------------------------------------------------------
# energy map, derivative, inverse
# ---------------------------------------------------------------------------


def test_energy_limit_example(ou):
    ch = ChannelConfig(tau=1.0, eps=1.0, law=ou)
    # tail-quadrature oracle: e^{-1}/(2 sqrt(pi)) + erfc(1)/4
    expected = math.exp(-1.0) / (2.0 * SQRT_PI) + math.erfc(1.0) / 4.0
    assert energy_limit(0.0, ch) == pytest.approx(expected, abs=1e-12)
    assert energy_limit(0.0, ch) == pytest.approx(0.14310, abs=1e-5)


def test_energy_limit_vanishes_far_below_threshold(ou):
    ch = ChannelConfig(tau=10.0, eps=0.1, law=ou)
    assert energy_limit(0.0, ch) < 1e-40


def test_energy_limit_generic_matches_closed_form(ou):
    ch = ChannelConfig(tau=1.0, eps=0.5, law=ou)
    quad = energy_limit_quadrature(0.3, ch)
    closed = energy_limit_closed_form(0.3, ch)
    assert quad == pytest.approx(closed, abs=1e-8)


def test_energy_derivative_example(ou):
    ch = ChannelConfig(tau=1.0, eps=1.0, law=ou)
    assert energy_limit_derivative(0.0, ch) == pytest.approx(2.0 * math.exp(-1.0) / SQRT_PI, abs=1e-12)
    assert energy_limit_derivative(0.0, ch) == pytest.approx(0.41511, abs=1e-5)


def test_energy_derivative_matches_finite_differences(ou):
    ch = ChannelConfig(tau=1.0, eps=0.7, law=ou)
    h = 1e-4
    fd = (energy_limit(0.4 + h, ch) - energy_limit(0.4 - h, ch)) / (2.0 * h)
    assert abs(energy_limit_derivative(0.4, ch) - fd) < 1e-5


def test_energy_derivative_quadrature_path_agrees(ou):
    ch = ChannelConfig(tau=1.0, eps=0.7, law=ou)
    assert energy_limit_derivative_quadrature(0.4, ch) == pytest.approx(
        energy_limit_derivative(0.4, ch), abs=1e-9
    )


def test_energy_map_increasing(ou):
    ch = ChannelConfig(tau=1.0, eps=0.6, law=ou)
    for theta in np.linspace(0.0, 0.9, 10):
        assert energy_limit_derivative(float(theta), ch) > 0.0


def test_estimate_theta_energy_roundtrip(ou):
    ch = ChannelConfig(tau=1.0, eps=1.0, law=ou)
    assert estimate_theta_energy(energy_limit(0.5, ch), ch) == pytest.approx(0.5, abs=1e-6)
    assert estimate_theta_energy(0.14310, ch) == pytest.approx(0.000, abs=1e-3)


def test_estimate_theta_energy_out_of_range(ou):
    ch = ChannelConfig(tau=1.0, eps=1.0, law=ou)
    with pytest.raises(OutOfRange):
        estimate_theta_energy(-1.0, ch)


@pytest.mark.parametrize("coefficients, theta, eps", [
    (None, 0.5, 0.7244),
    (("-x^3", "1"), 0.4, 0.6),
    (("-4*x", "2"), 0.8, 1.3),
    (("-tanh(x)", "1+0.5*exp(-x^2)"), 0.0, 0.9),
], ids=["ou", "cubic", "ou_fast", "tanh"])
def test_array_estimators_equal_the_scalar_loop(ou, coefficients, theta, eps):
    law = ou if coefficients is None else build_invariant_law(
        DiffusionSpec(*(compile_expression(c) for c in coefficients)))
    ch = ChannelConfig(tau=1.0, eps=eps, law=law)
    fractions, energies = observe_paths(law.spec, SimConfig(T=20.0, dt=0.01, seed=4), 300,
                                        np.full(300, theta), eps, ch.tau)
    # every replication with a finite time estimate gets an energy estimate
    # too, those of short paths below -tau included (37 of them on tanh)
    want_t, want_e = [], []
    for fraction, energy in zip(fractions.tolist(), energies.tolist()):
        try:
            want_t.append(estimate_theta_time(fraction, ch).hex())
        except DegenerateObservation:
            continue
        want_e.append(estimate_theta_energy(energy, ch).hex())
    theta_t, degenerate = estimate_theta_time_at(fractions, ch)
    assert [v.hex() for v in theta_t[~degenerate].tolist()] == want_t
    assert np.isnan(theta_t[degenerate]).all()
    theta_e = estimate_theta_energy_at(energies[~degenerate], ch)
    assert [v.hex() for v in theta_e.tolist()] == want_e


def test_array_estimators_edge_cases(ou):
    ch = ChannelConfig(tau=1.0, eps=0.7, law=ou)
    theta, degenerate = estimate_theta_time_at(np.array([0.0, 0.3, 1.0, 0.5]), ch)
    assert degenerate.tolist() == [True, False, True, False]
    assert np.isnan(theta[degenerate]).all()
    assert theta[~degenerate].tolist() == [estimate_theta_time(0.3, ch), estimate_theta_time(0.5, ch)]
    # one energy in each of [-tau, 0], [tau, 2 tau] and [0, tau], two at
    # their ends 0 and 2 tau, one below -tau, one above 2 tau and one above
    # the first node's signal level tau - eps*x_0 (19.4)
    targets = np.array([0.0, 2.0, -0.5, 1.5, 0.4, -3.0, 4.0, 30.0])
    energies = energy_limit_at(targets, ch.tau, ch.eps, ou)
    got = estimate_theta_energy_at(energies, ch)
    assert got.tolist() == [estimate_theta_energy(e, ch) for e in energies.tolist()]
    np.testing.assert_allclose(got, targets, rtol=0.0, atol=1e-8)
    # the first entry that fails is named, as a loop over the entries would
    with pytest.raises(OutOfRange, match="cannot be negative"):
        estimate_theta_energy_at(np.array([0.1, -1e-3, 0.0]), ch)
    with pytest.raises(OutOfRange, match=r"^energy 0\.0 is outside the forward map range \(0, 4\.49423"):
        estimate_theta_energy_at(np.array([0.1, 1e4, 0.0, -1e-3]), ch)
    # up to a quarter of the largest double the map stays finite at the
    # upper bracket end; nothing above it is estimated
    top = np.finfo(float).max / 4.0
    assert np.isfinite(estimate_theta_energy(top, ch))
    for bad in (math.nan, math.inf, float(np.nextafter(top, np.inf))):
        with pytest.raises(OutOfRange, match=f"^energy {re.escape(str(bad))} is outside"):
            estimate_theta_energy_at(np.array([0.1, bad, -1e-3]), ch)
    # the map is monotone only above a positive threshold
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="tau > 0"):
            estimate_theta_energy_at(np.array([0.1]), ChannelConfig(tau=tau, eps=0.7, law=ou))
    assert estimate_theta_energy_at(np.array([]), ch).shape == (0,)


@pytest.mark.parametrize("name", ["ou", "-x^3"])
@pytest.mark.parametrize("eps", [1e-15, 0.01, 0.7, 1.5, 50.0])
def test_every_positive_energy_has_an_estimate(ou, cubic_law, name, eps):
    # from the smallest double to 1e300, each energy gets a finite estimate,
    # and the root lies within xtol (1e-10, plus Brent's relative term) of
    # the forward map's sign change, however far outside [-tau, 2 tau] it
    # lies.  The map's value at the first node's signal level tau - eps*x_0
    # and the doubles either side of it are among the energies: above it
    # the map is the quadratic of the table's full moments.  At eps = 1e-15
    # about 20 nodes share each signal level, a double next to tau.  At
    # eps = 50 deep in the lower tail (theta near -1300) the map's own
    # rounding, theta^2 m_0 against an integrand near tau^2 at the gap,
    # exceeds its change over xtol, so there only the estimates are checked
    # to exist.
    law = ou if name == "ou" else cubic_law
    ch = ChannelConfig(tau=1.0, eps=eps, law=law)
    level = ch.tau - ch.eps * law.tables.x[0]
    at_first = float(estimators._dot(estimators._energy_weights(level, ch.eps), law.tables.m[:, 0]))
    near_first = [np.nextafter(at_first, 0.0), at_first, np.nextafter(at_first, np.inf)]
    energies = np.sort(np.concatenate([[5e-324], np.geomspace(1e-300, 1e300, 600), near_first]))
    theta = estimate_theta_energy_at(energies, ch)
    assert np.isfinite(theta).all()
    if eps < 50.0:
        step = 1e-10 + 1e-15 * np.abs(theta)
        assert (energy_limit_at(theta - step, ch.tau, ch.eps, law) <= energies).all()
        assert (energy_limit_at(theta + step, ch.tau, ch.eps, law) >= energies).all()


@pytest.mark.parametrize("name", ["ou", "-x^3"])
def test_energy_estimate_above_the_first_node_level(ou, cubic_law, name):
    # at eps = 0.01 the first node's signal level tau - eps*x_0 lies below
    # 2 tau (1.26 on OU, 1.06 on -x^3), and the energies of the signals
    # between it and 2 tau, which the fixed bracket [tau, 2 tau] solved,
    # get the same estimates within xtol, the forward map matching to
    # 1e-10 relative
    law = ou if name == "ou" else cubic_law
    ch = ChannelConfig(tau=1.0, eps=0.01, law=law)
    targets = np.array([1.3, 1.5, 1.9, 2.0])
    assert (targets > ch.tau - ch.eps * law.tables.x[0]).all()
    energies = energy_limit_at(targets, ch.tau, ch.eps, law)
    theta = estimate_theta_energy_at(energies, ch)
    np.testing.assert_allclose(theta, targets, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(energy_limit_at(theta, ch.tau, ch.eps, law), energies, rtol=1e-10, atol=0.0)
    if name == "ou":
        # the fixed bracket's estimate of 2.25, 1.4999833332404358
        assert estimate_theta_energy(2.25, ch) == pytest.approx(1.4999833332404358, rel=0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# energy-statistic variance
# ---------------------------------------------------------------------------


def test_energy_variance_positive_grid(ou):
    for eps in (0.3, 0.7, 1.2):
        ch = ChannelConfig(tau=1.0, eps=eps, law=ou)
        raw = energy_statistic_variance(0.5, ch)
        rep = energy_scheme_variance(0.5, ch)
        assert raw > 0
        assert rep.value > 0 and rep.fisher == pytest.approx(1.0 / rep.value, rel=1e-12)


def test_energy_variance_generic_law_agrees(ou, ou_numeric):
    # same noise through the closed-form and the quadrature-built law
    for eps in (0.5, 0.9):
        closed = energy_statistic_variance(0.4, ChannelConfig(tau=1.0, eps=eps, law=ou))
        numeric = energy_statistic_variance(0.4, ChannelConfig(tau=1.0, eps=eps, law=ou_numeric))
        assert numeric == pytest.approx(closed, rel=1e-6)


def test_edf_variance_generic_law_agrees(ou, ou_numeric):
    sigma = ou.spec.diffusion
    for x in (0.0, 0.8):
        assert edf_variance(x, ou_numeric, sigma) == pytest.approx(
            edf_variance(x, ou, sigma), rel=1e-6
        )


@pytest.mark.parametrize("scheme_fn", [time_scheme_variance, energy_scheme_variance])
def test_fisher_generic_law_agrees_across_bracket(ou, ou_numeric, scheme_fn):
    for theta in (0.0, 0.5):
        for eps in np.linspace(0.05, 3.0, 60):
            closed = scheme_fn(theta, ChannelConfig(tau=1.0, eps=float(eps), law=ou)).fisher
            numeric = scheme_fn(theta, ChannelConfig(tau=1.0, eps=float(eps), law=ou_numeric)).fisher
            assert numeric == pytest.approx(closed, rel=1e-6, abs=0.0), (theta, eps)


@pytest.mark.parametrize("scheme", ["time", "energy"])
@pytest.mark.parametrize("theta", [0.0, 0.5, 3.0])
def test_array_forms_equal_the_scalar_functions(ou, ou_numeric, scheme, theta):
    # each array form is the scalar function's own code run over a row of
    # noise levels: the same bits where the scalar succeeds, and flagged
    # exactly where it raises (gaps beyond the support at small eps; for
    # theta = 3 above tau the energy form cancels deep in the lower tail)
    eps = np.concatenate([[0.01, 0.02, 0.03], np.linspace(0.05, 3.0, 40)])
    scheme_fn = time_scheme_variance if scheme == "time" else energy_scheme_variance
    for law in (ou, ou_numeric):
        fisher, failed = fisher_at(theta, 1.0, eps, law, scheme)
        raw, raw_failed = energy_statistic_variance_at(theta, 1.0, eps, law)
        V, V_failed = edf_variance_at((1.0 - theta) / eps, law)
        limit = energy_limit_at(theta, 1.0, eps, law)
        slope = energy_limit_derivative_at(theta, 1.0, eps, law)
        for k, e in enumerate(eps.tolist()):
            ch = ChannelConfig(tau=1.0, eps=e, law=law)
            assert limit[k] == energy_limit(theta, ch)
            assert slope[k] == energy_limit_derivative(theta, ch)
            for value, bad, fn in (
                (fisher[k], failed[k], lambda: scheme_fn(theta, ch).fisher),
                (raw[k], raw_failed[k], lambda: energy_statistic_variance(theta, ch)),
                (V[k], V_failed[k], lambda: edf_variance(ch.gap_ratio(theta), law, law.spec.diffusion)),
            ):
                if bad:
                    with pytest.raises(QuadratureFailure):
                        fn()
                else:
                    assert value == fn(), (e, law.label)
        assert failed[0] and not failed.all()


def test_edf_variance_rejects_foreign_sigma(ou):
    # the tables carry the law's own diffusion coefficient; another one
    # cannot be honoured and must not be ignored silently
    with pytest.raises(ValueError):
        edf_variance(0.5, ou, lambda x: 2.0)


def test_edf_variance_next_to_a_support_edge_raises(ou):
    # next to either end of the tabulated support sf or F underflows (OU's
    # sf is 6.5e-313 there) and V comes out 0; that must fail, not pass as
    # a value
    cubic = build_invariant_law(
        DiffusionSpec(drift=compile_expression("-x^3"), diffusion=compile_expression("1"))
    )
    for law in (ou, cubic):
        lo, hi = law.tables.support
        for x in (lo + 1e-12, hi - 1e-12):
            with pytest.raises(QuadratureFailure):
                edf_variance(x, law, law.spec.diffusion)
        _, failed = edf_variance_at(np.array([lo + 1e-12, 0.0, hi - 1e-12]), law)
        assert failed.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# deep tails and accuracy, against windowed quadrature oracles
# ---------------------------------------------------------------------------


def _scaled_quad(log_integrand, lo, hi, shift):
    """int_lo^hi exp(log_integrand) by adaptive quadrature with a purely
    relative tolerance; the integrand is divided by exp(shift) to stay in range."""
    value, _ = integrate.quad(
        lambda x: math.exp(log_integrand(x) - shift), lo, hi, epsabs=0.0, epsrel=1e-12, limit=400
    )
    return value


def _log_F(x):
    return math.log(0.5 * special.erfc(-x))


def _log_sf(x):
    return math.log(0.5 * special.erfcx(x)) - x * x


def _log_f(x):
    return -x * x - 0.5 * math.log(math.pi)


def ou_edf_variance_oracle(a, half_width=12.0):
    """V(a) = 4[sf(a)^2 int^a F^2/f + F(a)^2 int_a sf^2/f] for the Gaussian
    law, each integral on a finite window beside a, scaled by exp(a^2)."""
    shift = -a * a
    left = _scaled_quad(lambda x: 2.0 * (_log_F(x) + _log_sf(a)) - _log_f(x), a - half_width, a, shift)
    right = _scaled_quad(lambda x: 2.0 * (_log_F(a) + _log_sf(x)) - _log_f(x), a, a + half_width, shift)
    return 4.0 * math.exp(shift) * (left + right)


def ou_energy_variance_oracle(theta, eps, tau=1.0, half_width=12.0):
    """4 int M^2/f for the Gaussian law with M from the closed-form tail
    energy tail(x) = exp(-x^2) * scaled_tail(x), windowed beside a."""
    a = (tau - theta) / eps

    def scaled_tail(x):
        return (
            theta * theta * special.erfcx(x) / 2.0
            + theta * eps / SQRT_PI
            + eps * eps * (x / (2.0 * SQRT_PI) + special.erfcx(x) / 4.0)
        )

    t_a = scaled_tail(a)

    def log_below(y):  # (tail(a) F(y))^2 / f(y)
        return 2.0 * (math.log(t_a) - a * a + _log_F(y)) - _log_f(y)

    def log_above(y):  # (tail(y) - tail(a) sf(y))^2 / f(y)
        m = scaled_tail(y) - math.exp(-a * a) * t_a * special.erfcx(y) / 2.0
        return 2.0 * (math.log(m) - y * y) - _log_f(y)

    shift = -a * a
    below = _scaled_quad(log_below, a - half_width, a, shift)
    above = _scaled_quad(log_above, a, a + half_width, shift)
    return 4.0 * math.exp(shift) * (below + above)


@pytest.mark.parametrize("a", [5.0, 10.0, 25.0])
def test_edf_variance_deep_tail(ou, a):
    # V(25) is about 1e-276: an absolute quadrature tolerance accepts any
    # estimate there, the tables keep relative accuracy (so must the check)
    assert edf_variance(a, ou, ou.spec.diffusion) == pytest.approx(ou_edf_variance_oracle(a), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("theta,eps", [(0.5, 0.1), (0.5, 0.05)])
def test_energy_variance_deep_tail(ou, theta, eps):
    ch = ChannelConfig(tau=1.0, eps=eps, law=ou)
    assert energy_statistic_variance(theta, ch) == pytest.approx(
        ou_energy_variance_oracle(theta, eps), rel=1e-6, abs=0.0
    )


def power_law_edf_variance_oracle(n, s, a):
    """V(a) = 4[sf(a)^2 A(a) + F(a)^2 B(a)] for the law of drift -x^(n-1)
    and constant sigma s, n even: density exp(-c|x|^n)/Z with c = 2/(n s^2),
    sf(x) = Q(1/n, c x^n)/2 for x >= 0 (Q the regularized upper gamma), and
    A, B the integrals of F^2/(s^2 f) below a and sf^2/(s^2 f) above it, each
    by ``integrate_interval`` on windows beside a where the integrand falls
    by e^-60 at most, scaled by its value at a."""
    c = 2.0 / (n * s * s)
    log_z = math.log(2.0 * special.gamma(1.0 + 1.0 / n)) - math.log(c) / n

    def log_sf(x):
        q = 0.5 * special.gammaincc(1.0 / n, c * abs(x) ** n)
        return math.log(q) if x >= 0.0 else math.log1p(-q)

    def log_f(x):
        return -c * abs(x) ** n - log_z

    def integral(log_g, edges):
        shift = log_g(a)
        return math.exp(shift) * sum(integrate_interval(lambda x: math.exp(log_g(x) - shift), lo, hi)
                                     for lo, hi in zip(edges[:-1], edges[1:]))

    near = max(a - 50.0 / (n * c * a ** (n - 1)), 0.0)
    A = integral(lambda x: 2.0 * log_sf(-x) - log_f(x) - 2.0 * math.log(s), [-(60.0 / c) ** (1.0 / n), 0.0, near, a])
    B = integral(lambda x: 2.0 * log_sf(x) - log_f(x) - 2.0 * math.log(s), [a, ((c * a**n + 60.0) / c) ** (1.0 / n)])
    return 4.0 * (math.exp(2.0 * log_sf(a)) * A + math.exp(2.0 * log_sf(-a)) * B)


@pytest.mark.parametrize("drift, sigma, n", [("-x^7", 1.0, 8), ("-x^9", 1.0, 10), ("-x", 0.01, 2), ("-x", 0.001, 2),
                                             ("-x^3", 0.05, 4)])
def test_steep_and_narrow_laws_match_a_quadrature_oracle(drift, sigma, n):
    # laws where a panel 0.005 wide spans a fall of the log-mass of 10 or
    # more, and their tables were NaN: each now builds finite tables, and V
    # at gaps where the mass has fallen by e^-5, e^-50 and e^-300 matches the
    # oracle as the deep-tail tests of the Gaussian law do
    law = build_invariant_law(DiffusionSpec(compile_expression(drift), compile_expression(repr(sigma))))
    tables = law.tables
    assert np.all(np.isfinite(tables.log_A[1:])) and np.all(np.isfinite(tables.log_B[:-1]))
    assert np.all(np.isfinite(tables.nu))
    c = 2.0 / (n * sigma * sigma)
    gaps = (np.array([5.0, 50.0, 300.0]) / c) ** (1.0 / n)
    v, failed = edf_variance_at(gaps, law)
    assert not failed.any()
    for a, got in zip(gaps.tolist(), v.tolist()):
        assert got == pytest.approx(power_law_edf_variance_oracle(n, sigma, a), rel=1e-6, abs=0.0), a


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_tables_match_oracles_across_noise(ou, theta):
    for eps in np.arange(0.05, 3.0001, 0.05):
        eps = float(eps)
        ch = ChannelConfig(tau=1.0, eps=eps, law=ou)
        a = ch.gap_ratio(theta)
        pairs = (
            (edf_variance(a, ou, ou.spec.diffusion), ou_edf_variance_oracle(a)),
            (energy_statistic_variance(theta, ch), ou_energy_variance_oracle(theta, eps)),
            (energy_limit(theta, ch), energy_limit_closed_form(theta, ch)),
            (energy_limit_derivative(theta, ch), energy_limit_derivative_closed_form(theta, ch)),
        )
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-8, abs=0.0), (eps, got, want)


@pytest.fixture(scope="module")
def ou_fast():
    # drift -4x with sigma 2: the OU stationary law, run four times faster
    spec = DiffusionSpec(drift=compile_expression("-4*x"), diffusion=compile_expression("2"))
    return build_invariant_law(spec)


@pytest.mark.parametrize("eps", [0.3660, 0.7244])
def test_time_change_shrinks_both_variances_fourfold(ou, ou_fast, eps):
    theta = 0.5
    a = (1.0 - theta) / eps
    v_fast = edf_variance(a, ou_fast, ou_fast.spec.diffusion)
    v_ou = edf_variance(a, ou, ou.spec.diffusion)
    assert 4.0 * v_fast / v_ou == pytest.approx(1.0, abs=1e-6)
    e_fast = energy_statistic_variance(theta, ChannelConfig(tau=1.0, eps=eps, law=ou_fast))
    e_ou = energy_statistic_variance(theta, ChannelConfig(tau=1.0, eps=eps, law=ou))
    assert 4.0 * e_fast / e_ou == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# sampling consistency (sqrt-T error decay)
# ---------------------------------------------------------------------------


def test_rmse_decays_like_sqrt_horizon(ou):
    theta, eps, tau, dt = 0.5, 0.7244, 1.0, 0.01
    ch = ChannelConfig(tau=tau, eps=eps, law=ou)

    def rmse(horizon, n_reps=100, seed=100):
        errors = []
        for traj in simulate_paths(ou.spec, SimConfig(T=horizon, dt=dt, seed=seed), n_reps):
            obs = observe(perturb(traj, theta, eps), tau)
            errors.append(estimate_theta_time(obs.time_fraction, ch) - theta)
        return float(np.sqrt(np.mean(np.square(errors))))

    ratio = rmse(250.0) / rmse(4000.0)
    # a 16x horizon should shrink the error about 4x
    assert 1.6 <= ratio <= 4.0
