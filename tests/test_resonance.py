import math

import numpy as np
import pytest

from stochres import (
    Bracket,
    ChannelConfig,
    DiffusionSpec,
    build_invariant_law,
    find_resonance,
    maximize_scalar,
    resonance_curve,
    time_scheme_variance,
    time_scheme_variance_ou_reference,
)
from stochres.errors import QuadratureFailure
from stochres.expressions import compile_expression
from stochres.estimators import fisher_at
from stochres.laws import LawTables
from stochres.numerics import SCAN_CELLS, scan_points


def test_curve_validation(ou):
    with pytest.raises(ValueError):
        resonance_curve(0.0, 1.0, ou, "time", [])
    with pytest.raises(ValueError):
        resonance_curve(0.0, 1.0, ou, "time", [0.5, 0.4])
    with pytest.raises(ValueError):
        resonance_curve(0.0, 1.0, ou, "time", [-0.1, 0.5])
    with pytest.raises(ValueError):
        resonance_curve(0.0, 1.0, ou, "bogus", [0.1, 0.5])


@pytest.mark.parametrize("theta, tau", [
    (1.0, 1.0),  # the signal at the threshold
    (1.5, 1.0),
    (math.nan, 1.0),
    (-math.inf, 1.0),
    (0.5, math.inf),
    (0.5, math.nan),
])
def test_signal_must_be_finite_and_below_threshold(ou, theta, tau):
    # such a signal failed every level: the search reported the bracket's
    # lower end with information 0, a fake peak
    with pytest.raises(ValueError, match="need theta < tau"):
        find_resonance(theta, tau, ou, "time")
    with pytest.raises(ValueError, match="need theta < tau"):
        resonance_curve(theta, tau, ou, "energy", [0.5, 1.0])


def test_curve_positive_with_single_interior_peak(ou):
    grid = np.arange(0.05, 1.001, 0.01)
    curve = resonance_curve(0.0, 1.0, ou, "time", grid)
    fishers = np.array([p.fisher for p in curve])
    assert np.all(fishers > 0)
    assert not any(p.failed for p in curve)
    interior = (fishers[1:-1] >= fishers[:-2]) & (fishers[1:-1] >= fishers[2:])
    assert int(interior.sum()) == 1
    # discrete argmax must agree with the dense-grid oracle location
    peak_eps = float(grid[int(np.argmax(fishers))])
    dense = np.arange(0.05, 1.001, 0.002)
    dense_fishers = [p.fisher for p in resonance_curve(0.0, 1.0, ou, "time", dense)]
    oracle_eps = float(dense[int(np.argmax(dense_fishers))])
    assert abs(peak_eps - oracle_eps) <= 0.01


def test_doubling_grid_density_stable_argmax(ou):
    coarse = np.linspace(0.1, 2.0, 39)
    fine = np.linspace(0.1, 2.0, 77)
    c_fish = [p.fisher for p in resonance_curve(0.5, 1.0, ou, "time", coarse)]
    f_fish = [p.fisher for p in resonance_curve(0.5, 1.0, ou, "time", fine)]
    cell = float(coarse[1] - coarse[0])
    assert abs(coarse[int(np.argmax(c_fish))] - fine[int(np.argmax(f_fish))]) <= cell + 1e-12


@pytest.mark.parametrize("scheme", ["time", "energy"])
@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_single_interior_resonance(ou, scheme, theta):
    res = find_resonance(theta, 1.0, ou, scheme)
    assert len(res.local_maxima) == 1
    eps_star, fisher_star = res.local_maxima[0]
    assert 0.02 < eps_star < 3.0
    assert fisher_star > 0
    assert res.eps_star == pytest.approx(eps_star)
    assert res.fisher_star == pytest.approx(max(p.fisher for p in res.curve), rel=1e-2)


def test_time_scheme_scaling_law(ou):
    # Sigma = eps^2 V(a)/f(a)^2 depends on (theta, eps) only through
    # a = (tau - theta)/eps, so the optimal eps is proportional to the gap:
    # halving the gap must halve eps*
    res0 = find_resonance(0.0, 1.0, ou, "time", tol=1e-6)
    res5 = find_resonance(0.5, 1.0, ou, "time", tol=1e-6)
    assert res0.eps_star == pytest.approx(2.0 * res5.eps_star, abs=1e-3)


def test_argmax_invariant_between_pipelines(ou):
    # the textbook closed-form variance differs from the generic pipeline by
    # a constant factor; the resonance location must agree within 0.005
    theta = 0.0
    bracket = Bracket(0.1, 3.0)

    def fisher_reference(eps: float) -> float:
        return 1.0 / time_scheme_variance_ou_reference(theta, 1.0, eps)

    ref = maximize_scalar(fisher_reference, bracket, tol=1e-5)
    pipeline = find_resonance(theta, 1.0, ou, "time", bracket=bracket, tol=1e-5)
    assert abs(ref.x_star - pipeline.eps_star) <= 0.005


def test_fisher_increases_toward_threshold(ou):
    # at any fixed noise level, the closer signal is easier to estimate
    for eps in np.linspace(0.1, 3.0, 15):
        ch = ChannelConfig(tau=1.0, eps=float(eps), law=ou)
        f_half = time_scheme_variance(0.5, ch).fisher
        f_zero = time_scheme_variance(0.0, ch).fisher
        assert f_half > f_zero


def test_failed_points_marked_not_dropped(ou):
    # eps = 0.01 puts the gap 100 standard deviations away: quadrature
    # degenerates and the point must be flagged with fisher 0
    grid = [0.01, 0.5, 1.0]
    curve = resonance_curve(0.0, 1.0, ou, "time", grid)
    assert len(curve) == 3
    assert curve[0].failed and curve[0].fisher == 0.0
    assert not curve[1].failed and curve[1].fisher > 0


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_grid_built_law_matches_closed_form_resonance(ou, ou_numeric, scheme):
    # the same noise rebuilt from its coefficients: one peak, at the
    # closed-form location, and no failed point on the way
    bracket = Bracket(0.05, 3.0)
    numeric = find_resonance(0.5, 1.0, ou_numeric, scheme, bracket=bracket)
    closed = find_resonance(0.5, 1.0, ou, scheme, bracket=bracket)
    assert len(numeric.local_maxima) == 1
    assert abs(numeric.eps_star - closed.eps_star) <= 1e-3
    assert not any(p.failed for p in numeric.curve)


def test_resonance_bracket_validation(ou):
    with pytest.raises(ValueError):
        find_resonance(0.0, 1.0, ou, "time", bracket=Bracket(-0.1, 1.0))


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_resonance_raises_when_every_scan_level_fails(ou, scheme):
    # eps <= 0.01 puts every gap 0.5/eps at 50 or more, beyond the Gaussian
    # law's tabulated support (+-26.275): no level has information, so the
    # bracket's lower end must not be reported as a peak
    with pytest.raises(QuadratureFailure, match=r"all 65 noise levels .* support is \(-26\.275, 26\.275\)"):
        find_resonance(0.5, 1.0, ou, scheme, bracket=Bracket(0.001, 0.01))


@pytest.fixture(scope="module")
def triple_well():
    # g(a) = a^2 f(a)^2/V(a) has two local maxima, at a = 0.383 and a = 3.505
    spec = DiffusionSpec(compile_expression("-x*(x^2-4)*(x^2-9)/10"), compile_expression("1"))
    return build_invariant_law(spec)


@pytest.mark.parametrize(
    "theta, peaks, n_failed",
    [
        (0.5, [(0.1427267, 8.057958), (1.304379, 0.865776)], 2),
        (0.0, [(0.2854608, 2.014492), (2.608811, 0.216444)], 4),
    ],
)
def test_grid_law_reports_both_peaks_of_a_triple_well(triple_well, theta, peaks, n_failed):
    # a grid-built law with two interior time-scheme resonances: both are
    # found and refined, and the gaps beyond the tabulated support at the
    # smallest noise levels are flagged, not scored as peaks
    res = find_resonance(theta, 1.0, triple_well, "time")
    assert len(res.local_maxima) == 2
    for (eps, fisher), (eps_want, fisher_want) in zip(res.local_maxima, peaks):
        assert eps == pytest.approx(eps_want, abs=1e-6)
        assert fisher == pytest.approx(fisher_want, rel=1e-6)
    assert len(res.curve) == 65
    assert sum(p.failed for p in res.curve) == n_failed
    assert all(p.failed for p in res.curve[:n_failed])
    assert res.eps_star == res.local_maxima[0][0]


@pytest.fixture(scope="module")
def cubic():
    return build_invariant_law(DiffusionSpec(compile_expression("-x^3"), compile_expression("1")))


@pytest.mark.parametrize("law, scheme, theta", [
    ("ou", "time", 0.5),
    ("ou", "energy", 0.5),
    ("cubic", "time", 0.5),
    ("cubic", "energy", 0.5),
    ("triple_well", "time", 0.5),
    ("triple_well", "time", 0.0),
])
def test_resonance_matches_a_dense_grid(request, law, scheme, theta):
    # oracle: the best of 20 001 levels across each peak's two scan cells,
    # one lookup; the refining scans land within tol of it, and the peak's
    # information within 1e-5 of the oracle's
    law = request.getfixturevalue(law)
    bracket, tol = Bracket(0.02, 3.0), 1e-4
    res = find_resonance(theta, 1.0, law, scheme, bracket=bracket, tol=tol)
    scan = scan_points(bracket)
    for eps, fisher in res.local_maxima:
        i = int(np.clip(np.argmin(np.abs(scan - eps)), 1, SCAN_CELLS - 1))
        grid = np.linspace(scan[i - 1], scan[i + 1], 20_001)
        dense, failed = fisher_at(theta, 1.0, grid, law, scheme)
        assert not failed.any()
        best = int(np.argmax(dense))
        assert abs(eps - grid[best]) <= tol
        assert fisher == pytest.approx(dense[best], rel=1e-5)


def count_lookups(monkeypatch):
    # the number of points of each lookup: every lookup is an array
    calls = []
    real = LawTables.at

    def at(self, x):
        calls.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(LawTables, "at", at)
    return calls


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_resonance_scan_is_one_lookup(ou, monkeypatch, scheme):
    # the coarse scan is one 65-point lookup, and so is each refining scan:
    # two zooms bring a 0.047 cell below tol 1e-4, so one peak costs 3
    # lookups and none of them is of one point
    calls = count_lookups(monkeypatch)
    res = find_resonance(0.5, 1.0, ou, scheme)
    assert len(res.local_maxima) == 1
    assert calls == [65, 65, 65]
    calls.clear()
    resonance_curve(0.5, 1.0, ou, scheme, np.arange(0.05, 3.0001, 0.05))
    assert calls == [60]
