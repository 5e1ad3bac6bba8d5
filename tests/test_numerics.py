import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochres
from stochres import Bracket, erf, find_root, integrate_line, maximize_scalar, normal_cdf
from stochres import numerics
from stochres.errors import BadBracket, NonConvergence, NonFinite

SQRT_PI = math.sqrt(math.pi)


def erf_series(x: float) -> float:
    """Taylor-series oracle, independent of the library path."""
    term = x
    total = 0.0
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / SQRT_PI * total


# ---------------------------------------------------------------------------
# erf / normal_cdf
# ---------------------------------------------------------------------------


def test_erf_at_zero():
    assert erf(0.0) == 0.0


def test_erf_matches_series_oracle():
    assert erf(1.0) == pytest.approx(0.8427007929, abs=1e-9)
    assert erf(-1.0) == pytest.approx(-0.8427007929, abs=1e-9)
    for x in np.linspace(-3, 3, 25):
        assert erf(float(x)) == pytest.approx(erf_series(float(x)), abs=1e-13)


@given(st.floats(min_value=-5.5, max_value=5.5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_erf_odd_and_bounded(x):
    assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)
    assert abs(erf(x)) < 1.0


def test_erf_strictly_increasing():
    # beyond |x| ~ 5 consecutive doubles saturate, so test where they resolve
    xs = np.linspace(-4.5, 4.5, 200)
    vals = [erf(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-9)
    assert normal_cdf(-40.0) < 1e-300


def test_normal_cdf_symmetry():
    for z in np.linspace(-8, 8, 81):
        assert normal_cdf(float(z)) + normal_cdf(float(-z)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# integrate_line
# ---------------------------------------------------------------------------


def test_gaussian_integral():
    assert integrate_line(lambda x: math.exp(-x * x)) == pytest.approx(SQRT_PI, abs=1e-9)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: x * math.exp(-x * x),
        lambda x: x**3 * math.exp(-x * x),
        lambda x: math.sin(x) * math.exp(-x * x),
        lambda x: x / (1.0 + x**4),
    ],
)
def test_odd_integrands_vanish(f):
    assert abs(integrate_line(f)) <= 1e-12


def test_second_moment_integral():
    # by parts: integral of x^2 e^{-x^2} equals half the Gaussian integral
    expected = SQRT_PI / 2.0
    assert integrate_line(lambda x: x * x * math.exp(-x * x)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: 1.0,
        # slowly divergent: QUADPACK subdivides down to t = +-1 exactly
        lambda x: (1.0 + x * x) ** -0.5,
        lambda x: 1.0 / (1.0 + abs(x)),
    ],
    ids=["constant", "inverse_sqrt", "inverse_abs"],
)
def test_divergent_integrand_raises(f):
    with pytest.raises(NonConvergence):
        integrate_line(f)


def test_split_points_handle_kinks():
    # e^{-|x|} has a kink at 0; total mass is 2
    val = integrate_line(lambda x: math.exp(-abs(x)), split_at=(0.0,))
    assert val == pytest.approx(2.0, abs=1e-10)


def test_no_exported_callable_takes_a_quadrature_config():
    # the tolerances are module constants; only the simulators take a config,
    # and theirs is a SimConfig
    offenders = []
    for name in dir(stochres):
        obj = getattr(stochres, name)
        if not (callable(obj) and getattr(obj, "__module__", "").startswith("stochres")):
            continue
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        for param in inspect.signature(obj).parameters.values():
            annotation = str(param.annotation)
            if "Quadrature" in annotation or (param.name == "cfg" and annotation != "SimConfig"):
                offenders.append(f"{name}({param.name}: {annotation})")
    assert offenders == []
    assert not hasattr(stochres, "QuadratureConfig")
    assert (numerics.REL_TOL, numerics.ABS_TOL, numerics.MAX_SUBDIVISIONS) == (1e-9, 1e-12, 200)


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------


def test_find_root_linear():
    assert find_root(lambda x: x - 2.0, Bracket(0.0, 5.0), tol=1e-10) == pytest.approx(2.0, abs=1e-10)


def test_find_root_erf_level():
    root = find_root(lambda x: erf(x) - 0.5, Bracket(0.0, 1.0), tol=1e-10)
    assert root == pytest.approx(0.4769362762, abs=1e-8)


def test_find_root_bad_bracket():
    with pytest.raises(BadBracket):
        find_root(lambda x: x * x + 1.0, Bracket(0.0, 1.0))


def test_find_root_residuals_small():
    cases = [
        (lambda x: x - 2.0, Bracket(0.0, 5.0), 1.0),
        (lambda x: erf(x) - 0.5, Bracket(0.0, 1.0), 2.0 / SQRT_PI),
        (lambda x: math.exp(x) - 3.0, Bracket(0.0, 2.0), 3.0),
    ]
    tol = 1e-10
    for g, bracket, lipschitz in cases:
        root = find_root(g, bracket, tol=tol)
        assert abs(g(root)) <= 10.0 * tol * lipschitz


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_find_root_nonfinite_inside_bracket_names_x(bad):
    # finite at both ends; the first step lands on x = 0.5
    g = lambda x: bad if 0.2 < x < 0.8 else x - 0.5
    with pytest.raises(NonFinite, match=r"x=0\.5\b"):
        find_root(g, Bracket(0.0, 1.0), tol=1e-10)


def test_find_root_nonconvergence_is_typed():
    # a jump at 1e-200 inside a 2e300-wide bracket: bisection needs more than
    # the iteration budget to resolve it at tol 1e-300
    with pytest.raises(NonConvergence):
        find_root(lambda x: -1.0 if x < 1e-200 else 1.0, Bracket(-1e300, 1e300), tol=1e-300)


def test_find_root_same_sign_ends_whose_product_underflows():
    with pytest.raises(BadBracket):
        find_root(lambda x: 1e-200, Bracket(0.0, 1.0))


def _root_oracle_cases():
    """(name, g, lo, hi, tol): smooth and steep roots over random brackets,
    the energy-map inversions on OU and on the cubic law, and the cubic
    law's quantile residuals."""
    from stochres.estimators import ChannelConfig, energy_limit
    from stochres.expressions import compile_expression as c

    rng = np.random.default_rng(20)
    functions = {
        "tanh": lambda x: math.tanh(x - 0.3),
        "cubic": lambda x: x**3 - 2.0 * x - 5.0,
        "exp": lambda x: math.exp(x) - 3.0,
        "steep_atan": lambda x: math.atan(1e4 * (x - 0.123)),
        "erf": lambda x: erf(x) - 0.5,
        "sin": lambda x: math.sin(x) - 0.5 * x,
        # products of values this small underflow to zero, so some inverse
        # quadratic steps have a zero denominator
        "tiny_cubic": lambda x: 1e-200 * (x**3 - 2.0 * x - 5.0),
    }
    cases = []
    for name, g in functions.items():
        for lo, hi in np.sort(rng.uniform(-4.0, 4.0, size=(40, 2)), axis=1):
            if (g(lo) < 0.0) != (g(hi) < 0.0):
                cases += [(name, g, float(lo), float(hi), tol) for tol in (1e-10, 1e-12)]
    ou = stochres.ou_law()
    cubic = stochres.build_invariant_law(stochres.DiffusionSpec(c("-x^3"), c("1")))
    for law_name, law in (("ou", ou), ("cubic", cubic)):
        for theta, eps in rng.uniform((-0.5, 0.3), (0.9, 1.5), size=(15, 2)):
            ch = ChannelConfig(tau=1.0, eps=float(eps), law=law)
            energy = energy_limit(float(theta), ch)
            g = lambda t, ch=ch, energy=energy: energy_limit(t, ch) - energy
            cases.append((f"energy_{law_name}", g, -1.0, 2.0, 1e-10))
            cases.append((f"energy_{law_name}", g, float(theta) - 0.5, float(theta) + 0.25, 1e-10))
    for p in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6):
        if p <= 0.5:
            g = lambda x, p=p: cubic.F(x) - p
        else:
            g = lambda x, q=1.0 - p: q - cubic.sf(x)
        # wide brackets, doubled out from [-1, 1] until they hold the root,
        # give brentq many steps on the law's F and sf
        lo, hi = -1.0, 1.0
        while g(lo) > 0.0:
            lo *= 2.0
        while g(hi) < 0.0:
            hi *= 2.0
        cases.append(("quantile_cubic", g, lo, hi, 1e-12))
        cases.append(("quantile_cubic", g, -4.0, 4.0, 1e-12))
    return cases


def test_find_root_matches_brentq_bit_for_bit():
    # the solver is brentq's step rule in Python floats, so each root is the
    # same double; brentq's call count includes the two end values, which
    # find_root evaluates once and hands to the solver
    from scipy.optimize import brentq

    cases = _root_oracle_cases()
    assert len(cases) > 300
    mismatches = []
    for name, g, lo, hi, tol in cases:
        calls = [0]

        def counted(x, g=g):
            calls[0] += 1
            return g(x)

        got = find_root(counted, Bracket(lo, hi), tol=tol)
        want, info = brentq(g, lo, hi, xtol=tol, full_output=True)
        if got != want or calls[0] != info.function_calls:
            mismatches.append((name, lo, hi, tol, got, want, calls[0], info.function_calls))
    assert mismatches == []


def test_array_solve_matches_brentq_bit_for_bit():
    # every case of the oracle set (the energy maps and the cubic quantile
    # included) as one entry of one array solve per tolerance, each with its
    # own bracket: each root is brentq's double, and each entry evaluates its
    # function as often as brentq does
    from scipy.optimize import brentq

    cases = _root_oracle_cases()
    mismatches = []
    for tol in sorted({case[4] for case in cases}):
        group = [case for case in cases if case[4] == tol]
        fns = [g for _, g, _, _, _ in group]
        lo = np.array([case[2] for case in group])
        hi = np.array([case[3] for case in group])
        calls = np.full(len(group), 2)

        def g(x, entries):
            calls[entries] += 1
            return [fns[i](v) for v, i in zip(x.tolist(), entries.tolist())]

        held = [[fn(float(x)) for fn, x in zip(fns, ends)] for ends in (lo, hi)]
        got = numerics._brent(g, lo, hi, *held, tol)
        for (name, fn, a, b, _), root, n_calls in zip(group, got.tolist(), calls.tolist()):
            want, info = brentq(fn, a, b, xtol=tol, full_output=True)
            if root != want or n_calls != info.function_calls:
                mismatches.append((name, a, b, tol, root, want, n_calls, info.function_calls))
    assert mismatches == []


def test_array_solve_calls_g_only_for_running_entries():
    def g(x, entries):
        raise AssertionError(f"g called at {x}")

    empty = np.array([])
    assert numerics._brent(g, empty, empty, empty, empty, 1e-10).shape == (0,)
    # entries resolved at a bracket end take no iteration
    roots = numerics._brent(g, np.array([0.0, 1.0, -3.0]), np.array([1.0, 2.0, 3.0]),
                            np.array([0.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0]), 1e-10)
    assert roots.tolist() == [0.0, 2.0, -3.0]


def test_array_solve_raises_the_lowest_failing_entry():
    # entry 2 has no sign change; entry 1 meets a NaN at its first step, one
    # iteration in; entries 0 and 3 converge.  A loop over the entries would
    # raise entry 1's error, and so does the array solve.
    def g(x, entries):
        return [math.nan if i == 1 else v - 0.25 for v, i in zip(x.tolist(), entries.tolist())]

    lo, hi = np.zeros(4), np.ones(4)
    glo, ghi = np.array([-0.25, -0.25, 1.0, -0.25]), np.array([0.75, 0.75, 2.0, 0.75])
    with pytest.raises(NonFinite, match=r"x=0\.25\b"):
        numerics._brent(g, lo, hi, glo, ghi, 1e-10)
    with pytest.raises(BadBracket, match="no sign change"):
        numerics._brent(g, lo[[0, 2, 3]], hi[[0, 2, 3]], glo[[0, 2, 3]], ghi[[0, 2, 3]], 1e-10)


@pytest.mark.parametrize("case", ["energy_estimate", "grid_quantile"])
def test_held_bracket_ends_are_not_evaluated_again(monkeypatch, case):
    # Brent's method starts from values at the bracket ends that the caller
    # already holds and then evaluates g once per iteration, so no point is
    # evaluated twice.  The energy estimate holds them from one lookup at the
    # ends of the three node panels the tables give it; the quantile reads
    # them from the node tables, and solves in the panel they bracket without
    # a lookup, a clip or a search.
    from stochres import estimators, laws
    from stochres.estimators import ChannelConfig, energy_limit, estimate_theta_energy
    from stochres.expressions import compile_expression

    calls = []
    if case == "grid_quantile":
        law = stochres.build_invariant_law(
            stochres.DiffusionSpec(compile_expression("-x^3"), compile_expression("1")))
        for name in ("cdf", "upper_moments", "_locate"):
            monkeypatch.setattr(laws.LawTables, name, lambda *args, name=name: calls.append(name))
        monkeypatch.setattr(laws, "_panel_of", lambda *args: calls.append("_panel_of"))
        points = []
        brent = laws._brent

        def recorded(g, lo, hi, glo, ghi, xtol):
            points.extend([*lo.tolist(), *hi.tolist()])
            return brent(lambda x, e: points.extend(x.tolist()) or g(x, e), lo, hi, glo, ghi, xtol)

        monkeypatch.setattr(laws, "_brent", recorded)
        root = law.quantile(0.3)
        assert calls == []
        assert len(points) > 2 and len(np.unique(points)) == len(points)
        i = law.tables.x.searchsorted(points[0])
        assert points[:2] == law.tables.x[i : i + 2].tolist()  # one node panel
        monkeypatch.undo()
        assert law.F(root) - 0.3 == pytest.approx(0.0, abs=1e-10)
        return
    ch = ChannelConfig(tau=1.0, eps=0.7244, law=stochres.ou_law())
    energy = energy_limit(0.3, ch)
    limit_at = estimators.energy_limit_at
    monkeypatch.setattr(estimators, "energy_limit_at",
                        lambda t, *args: calls.append(np.ravel(t)) or limit_at(t, *args))
    # the two bracket ends, then 4 iterations
    root = estimate_theta_energy(energy, ch)
    assert [len(c) for c in calls] == [2, 1, 1, 1, 1], calls
    points = np.concatenate(calls)
    assert len(np.unique(points)) == len(points)
    lo, hi = calls[0]
    # three node panels, two doubles wider on each side
    x = ch.law.tables.x
    i = np.abs(x - (ch.tau - lo) / ch.eps).argmin()
    assert hi - lo == pytest.approx(ch.eps * (x[i] - x[i - 3]), rel=1e-12)
    assert lo < root < hi
    assert float(limit_at(root, ch.tau, ch.eps, ch.law)) - energy == pytest.approx(0.0, abs=1e-10)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(math.inf, 2.0)


# ---------------------------------------------------------------------------
# maximize_scalar
# ---------------------------------------------------------------------------


def test_maximize_parabola():
    res = maximize_scalar(lambda x: -((x - 1.0) ** 2), Bracket(0.0, 3.0), tol=1e-8)
    assert res.x_star == pytest.approx(1.0, abs=1e-6)


def test_maximize_sine_single_interior_max():
    res = maximize_scalar(math.sin, Bracket(0.0, 2.0 * math.pi), tol=1e-8)
    assert res.x_star == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert len(res.local_maxima) == 1


def two_bumps(x):
    return math.exp(-((x - 1.0) ** 2)) + 0.5 * math.exp(-((x - 3.0) ** 2))


def test_maximize_two_bumps_reports_both():
    res = maximize_scalar(two_bumps, Bracket(0.0, 5.0), tol=1e-8)
    # dense-grid oracle for the true peak locations
    xs = np.linspace(0.0, 5.0, 200_001)
    ys = np.array([two_bumps(float(x)) for x in xs])
    interior = (ys[1:-1] >= ys[:-2]) & (ys[1:-1] >= ys[2:])
    oracle = xs[1:-1][interior]
    assert len(oracle) == 2
    assert len(res.local_maxima) == 2
    for (x_found, _), x_true in zip(res.local_maxima, oracle):
        assert x_found == pytest.approx(float(x_true), abs=1e-4)
    assert res.x_star == pytest.approx(float(oracle[0]), abs=1e-4)


@pytest.mark.parametrize("c", [0.5, 3.0, 250.0])
def test_maximize_scale_invariance(c):
    base = maximize_scalar(two_bumps, Bracket(0.0, 5.0), tol=1e-8)
    scaled = maximize_scalar(lambda x: c * two_bumps(x), Bracket(0.0, 5.0), tol=1e-8)
    assert scaled.x_star == pytest.approx(base.x_star, abs=1e-6)


def test_maximize_rejects_nan():
    def h(x):
        return math.nan if 1.0 < x < 1.2 else -x

    with pytest.raises(NonFinite):
        maximize_scalar(h, Bracket(0.0, 3.0))

    # NaN only strictly between the scan points 63/64 and 66/64, inside the
    # two cells of the candidate peak 63/64: only a refining scan sees it
    def h_zoom(x):
        return math.nan if 1.0 < x < 1.01 else -((x - 1.0) ** 2)

    scan = numerics.scan_points(Bracket(0.0, 3.0))
    assert not np.any((scan > 1.0) & (scan < 1.01))
    with pytest.raises(NonFinite):
        maximize_scalar(h_zoom, Bracket(0.0, 3.0))

