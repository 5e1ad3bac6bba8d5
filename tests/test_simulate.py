import math
import re
import warnings

import numpy as np
import pytest

from stochres import (
    DiffusionSpec,
    ObservationSummary,
    SimConfig,
    Trajectory,
    observe,
    observe_paths,
    perturb,
    simulate_path,
    simulate_paths,
)
from stochres.errors import NumericBlowup
from stochres.expressions import compile_expression
from stochres.simulate import _NORMALS_BLOCK, CHUNK, _em_scalar, _normals


def make_traj(values, dt=0.1, seed=0):
    return Trajectory(values=np.asarray(values, dtype=float), dt=dt, seed=seed)


OU = DiffusionSpec(lambda x: -x, lambda x: x * 0.0 + 1.0, label="ou")
# compiled laws: single paths step their scalar form, ensembles their array form
CUBIC = DiffusionSpec(compile_expression("-x^3"), compile_expression("1"), label="cubic")
TANH = DiffusionSpec(compile_expression("-tanh(x)"), compile_expression("1+0.5*exp(-x^2)"), label="tanh")
# a compiled constant sigma, which the steppers never call, and a
# state-dependent Python sigma, which they call at every step
SIGMA2 = DiffusionSpec(compile_expression("-4*x"), compile_expression("2"), label="sigma2")
LAMBDA = DiffusionSpec(lambda x: -x, lambda x: 1.0 + 0.5 * x * x / (1.0 + x * x), label="lambda")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_zero_noise_keeps_fixed_point():
    values = _em_scalar(OU, 0.0, 0.1, np.zeros(50))
    assert np.all(values == 0.0)


def test_zero_noise_contraction():
    values = _em_scalar(OU, 1.0, 0.1, np.zeros(30))
    # the recursion is x <- x - 0.1 x each step
    expected = 1.0
    for k in range(1, 31):
        expected = expected + (-expected) * 0.1
        assert values[k] == expected
    assert values[-1] == pytest.approx(0.9**30, rel=1e-12)


def test_path_length_and_start():
    cfg = SimConfig(T=10.0, dt=0.01, seed=5, x0=0.25)
    traj = simulate_path(OU, cfg)
    assert len(traj.values) == cfg.n_steps + 1 == 1001
    assert traj.values[0] == 0.25
    assert traj.horizon == pytest.approx(10.0)


def test_n_steps_rounding():
    # T/dt representable only approximately must still floor to the intended count
    assert SimConfig(T=1000.0, dt=0.01).n_steps == 100000


def test_determinism():
    cfg = SimConfig(T=50.0, dt=0.01, seed=123)
    a = simulate_path(OU, cfg)
    b = simulate_path(OU, cfg)
    assert np.array_equal(a.values, b.values)


def test_ensemble_matches_single_paths_bitwise():
    cfg = SimConfig(T=20.0, dt=0.01, seed=77)
    for spec in (OU, CUBIC, TANH):
        ensemble = simulate_paths(spec, cfg, 4)
        for k, traj in enumerate(ensemble):
            single = simulate_path(spec, SimConfig(T=20.0, dt=0.01, seed=77 + k))
            assert traj.seed == 77 + k
            assert np.array_equal(traj.values, single.values), spec.label


@pytest.mark.parametrize("n_paths", [1, 5])
@pytest.mark.parametrize("spec", [SIGMA2, TANH, LAMBDA], ids=lambda spec: spec.label)
def test_ensembles_match_single_paths_off_the_chunk_and_block_grid(spec, n_paths):
    cfg = SimConfig(T=12.34, dt=0.01, seed=900)
    assert cfg.n_steps == 1234 and cfg.n_steps % CHUNK and cfg.n_steps % _NORMALS_BLOCK
    singles = [simulate_path(spec, SimConfig(T=12.34, dt=0.01, seed=900 + k)) for k in range(n_paths)]
    for traj, single in zip(simulate_paths(spec, cfg, n_paths), singles, strict=True):
        assert np.array_equal(traj.values, single.values)
    fractions, energies = observe_paths(spec, cfg, n_paths, 0.5, 0.7, 1.0)
    for k, single in enumerate(singles):
        obs = observe(perturb(single, 0.5, 0.7), 1.0)
        assert (fractions[k], energies[k]) == (obs.time_fraction, obs.energy)


def test_constant_diffusion_is_never_called_while_stepping():
    sigma = compile_expression("2")
    calls = []

    def counted(x):
        calls.append(x)
        return sigma(x)

    counted.constant = sigma.constant
    spec = DiffusionSpec(SIGMA2.drift, counted)
    cfg = SimConfig(T=5.0, dt=0.01, seed=3)
    ensemble = simulate_paths(spec, cfg, 3)
    single = simulate_path(spec, cfg)
    observe_paths(spec, cfg, 3, 0.5, 0.7, 1.0)
    assert calls == []
    # the same bits as a sigma the steppers call at every step
    called = DiffusionSpec(SIGMA2.drift, lambda x: x * 0.0 + 2.0)
    assert np.array_equal(single.values, simulate_path(called, cfg).values)
    for a, b in zip(ensemble, simulate_paths(called, cfg, 3), strict=True):
        assert np.array_equal(a.values, b.values)


def test_stationary_variance():
    # stationary variance of the noise is 1/2; average the sample variance
    # over several seeds to control Monte Carlo noise
    variances = [
        float(np.var(simulate_path(OU, SimConfig(T=1000.0, dt=0.01, seed=s)).values))
        for s in range(5)
    ]
    assert 0.45 <= float(np.mean(variances)) <= 0.55


def test_blowup_detected_scalar_and_ensemble():
    cubic = DiffusionSpec(lambda x: x**3, lambda x: x * 0.0 + 1.0)
    with pytest.raises(NumericBlowup):
        simulate_path(cubic, SimConfig(T=5.0, dt=0.5, seed=1, x0=2.0))
    with pytest.raises(NumericBlowup):
        simulate_paths(cubic, SimConfig(T=5.0, dt=0.5, seed=1, x0=2.0), 3)
    # a compiled drift with a pole at the start: the scalar form's 1/0 is
    # numpy's inf, not a ZeroDivisionError
    pole = DiffusionSpec(compile_expression("1/x"), compile_expression("1"))
    with np.errstate(divide="ignore"), pytest.raises(NumericBlowup, match="at step 1;"):
        simulate_path(pole, SimConfig(T=1.0, dt=0.01, seed=1, x0=0.0))


@pytest.mark.parametrize("sigma", ["1", "1+0*x"])
def test_blowup_after_the_first_chunk_names_its_step(sigma):
    # drift x from x0 = 1 grows by 1.1 a step and leaves |x| <= 1e12 near
    # step 290: past the first CHUNK steps, inside the first _NORMALS_BLOCK
    # block of a single path
    spec = DiffusionSpec(compile_expression("x"), compile_expression(sigma))
    cfg = SimConfig(T=100.0, dt=0.1, seed=2, x0=1.0)
    sqrt_dt = math.sqrt(cfg.dt)
    x = cfg.x0
    for k, zk in enumerate(_normals(cfg.seed, cfg.n_steps).tolist(), 1):
        x = x + x * cfg.dt + 1.0 * sqrt_dt * zk
        if not abs(x) < 1e12:
            break
    assert CHUNK < k < cfg.n_steps
    with pytest.raises(NumericBlowup, match=f"at step {k};"):
        simulate_path(spec, cfg)


def _first_step_past_the_bound(drift, c, cfg):
    """Step x + drift(x) dt + (c sqrt(dt)) z one step at a time: the first
    step past |X| < 1e12 and the value there."""
    sqrt_dt = math.sqrt(cfg.dt)
    x = cfg.x0
    for k, zk in enumerate(_normals(cfg.seed, cfg.n_steps).tolist(), 1):
        x = x + drift(x) * cfg.dt + (c * sqrt_dt) * zk
        if not abs(x) < 1e12:
            return k, x
    raise AssertionError("the path stays bounded")


def test_blowup_names_its_step_when_a_plain_drift_raises_past_the_bound():
    # x^3 on a Python float raises OverflowError a few steps past the bound,
    # inside the block the bound is crossed in: the path still stops at the
    # first step past the bound with NumericBlowup
    drift = lambda x: x**3  # noqa: E731
    cfg = SimConfig(T=20.0, dt=0.01, seed=2, x0=0.3)
    k, x = _first_step_past_the_bound(drift, 0.01, cfg)
    assert CHUNK < k
    with pytest.raises(OverflowError):
        for _ in range(3):
            x = x + drift(x) * cfg.dt
    with pytest.raises(NumericBlowup, match=f"at step {k};"):
        simulate_path(DiffusionSpec(drift, lambda x: 0.01), cfg)


@pytest.mark.parametrize("over, shown", [("warn", "error"), ("warn", "always"), ("ignore", "error")])
def test_blowup_names_its_step_when_a_compiled_drift_overflows_past_the_bound(over, shown):
    # exp(x) stays finite up to the bound and overflows on the step after it:
    # the path stops at the first step past the bound whether numpy warns of
    # the overflow (raised as an error, or shown) or ignores it, and a path
    # that stops there shows no warning of a step it never took
    cfg = SimConfig(T=40.0, dt=0.01, seed=4, x0=-1.5)
    with np.errstate(over="raise"):
        k, x = _first_step_past_the_bound(lambda x: float(np.exp(x)), 0.1, cfg)
        with pytest.raises(FloatingPointError):
            np.exp(x)
    assert CHUNK < k
    spec = DiffusionSpec(compile_expression("exp(x)"), compile_expression("0.1"))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(shown)
        with np.errstate(over=over), pytest.raises(NumericBlowup, match=f"at step {k};"):
            simulate_path(spec, cfg)
    assert seen == []


@pytest.mark.parametrize("drift, sigma, c, cfg", [
    (compile_expression("x"), compile_expression("1"), 1.0, SimConfig(T=40.0, dt=0.02, seed=2, x0=1.0)),
    (compile_expression("x"), compile_expression("1+0*x"), 1.0, SimConfig(T=40.0, dt=0.02, seed=2, x0=1.0)),
    (lambda x: x**3, lambda x: 0.01, 0.01, SimConfig(T=80.0, dt=0.01, seed=2, x0=0.15)),
], ids=["compiled", "compiled-sigma-of-x", "plain-overflowing"])
def test_blowup_in_a_later_block_of_a_single_path_names_its_step(drift, sigma, c, cfg):
    # a single path steps _NORMALS_BLOCK steps at a time: a blow-up past the
    # first block is named by its step in the whole path
    k, _ = _first_step_past_the_bound(getattr(drift, "scalar", drift), c, cfg)
    assert _NORMALS_BLOCK < k < cfg.n_steps
    with pytest.raises(NumericBlowup, match=f"at step {k};"):
        simulate_path(DiffusionSpec(drift, sigma), cfg)


def test_a_drift_that_warns_every_step_steps_each_block_one_at_a_time():
    # a numpy warning inside a block raises there, at the block's first
    # step, and the block is stepped again one step at a time in the
    # caller's error state: the drift is called once more per block, shows
    # its warning at every step, and the path is the one of the quiet drift
    calls = []

    def drift(x):
        calls.append(x)
        np.float64(1.0) / np.float64(0.0)  # a harmless divide-by-zero warning
        return -x

    cfg = SimConfig(T=25.0, dt=0.01, seed=3)
    blocks = math.ceil(cfg.n_steps / _NORMALS_BLOCK)
    assert blocks == 3
    spec = DiffusionSpec(drift, lambda x: 1.0)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        path = simulate_path(spec, cfg)
    assert len(seen) == cfg.n_steps
    assert all(issubclass(w.category, RuntimeWarning) for w in seen)
    assert len(calls) == cfg.n_steps + blocks
    assert np.array_equal(path.values, simulate_path(DiffusionSpec(lambda x: -x, lambda x: 1.0), cfg).values)


def test_ensemble_with_scalar_only_coefficients_matches_single_paths():
    # drift rejects arrays, diffusion returns a scalar for an array
    spec = DiffusionSpec(lambda x: -math.sin(x), lambda x: 1.0)
    cfg = SimConfig(T=6.0, dt=0.01, seed=40)
    fractions, energies = observe_paths(spec, cfg, 3, 0.5, 1.0, 1.0)
    for k, traj in enumerate(simulate_paths(spec, cfg, 3)):
        single = simulate_path(spec, SimConfig(T=6.0, dt=0.01, seed=40 + k))
        assert np.array_equal(traj.values, single.values)
        obs = observe(perturb(single, 0.5, 1.0), 1.0)
        assert (fractions[k], energies[k]) == (obs.time_fraction, obs.energy)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T=1.0, dt=2.0)
    with pytest.raises(ValueError):
        SimConfig(T=1.0, dt=-0.1)


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def test_perturb_constant_paths():
    zero = make_traj(np.zeros(10))
    assert np.all(perturb(zero, 0.3, 1.0).values == 0.3)
    ones = make_traj(np.ones(10))
    assert np.allclose(perturb(ones, 0.5, 0.2).values, 0.7)


def test_perturb_identity():
    traj = make_traj([0.0, 1.0, -2.0, 0.5])
    out = perturb(traj, 0.0, 1.0)
    assert np.array_equal(out.values, traj.values)
    assert out.dt == traj.dt and out.seed == traj.seed


def test_perturb_requires_positive_eps():
    with pytest.raises(ValueError):
        perturb(make_traj([0.0, 1.0]), 0.1, 0.0)


# ---------------------------------------------------------------------------
# observe
# ---------------------------------------------------------------------------


def test_observe_constant_above():
    obs = observe(make_traj(np.full(11, 2.0)), tau=1.0)
    assert obs.time_fraction == 1.0
    assert obs.energy == pytest.approx(4.0)


def test_observe_never_above():
    obs = observe(make_traj(np.zeros(11)), tau=1.0)
    assert obs.time_fraction == 0.0
    assert obs.energy == 0.0


def test_observe_alternating():
    values = np.array([0.0, 2.0] * 5 + [0.0])  # 10 steps, half above
    obs = observe(make_traj(values), tau=1.0)
    assert obs.time_fraction == pytest.approx(0.5, abs=0.1)
    assert obs.energy == pytest.approx(2.0, abs=0.4)


def test_observe_time_reversal():
    traj = simulate_path(OU, SimConfig(T=50.0, dt=0.01, seed=9))
    y = perturb(traj, 0.5, 1.0)
    rev = make_traj(y.values[::-1].copy(), dt=y.dt)
    fwd_obs = observe(y, tau=1.0)
    rev_obs = observe(rev, tau=1.0)
    n = len(y.values) - 1
    # left-endpoint rule makes reversal exact up to the two boundary samples
    assert abs(fwd_obs.time_fraction - rev_obs.time_fraction) <= 1.5 / n
    assert abs(fwd_obs.energy - rev_obs.energy) <= 1.5 * float(np.max(y.values**2)) / n


def test_observe_monotone_in_threshold():
    traj = perturb(simulate_path(OU, SimConfig(T=20.0, dt=0.01, seed=3)), 0.5, 1.0)
    taus = np.linspace(-1.0, 3.0, 17)
    fracs = [observe(traj, float(t)).time_fraction for t in taus]
    energies = [observe(traj, float(t)).energy for t in taus]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_observe_energy_bounded_by_peak():
    traj = perturb(simulate_path(OU, SimConfig(T=20.0, dt=0.01, seed=4)), 0.5, 1.0)
    obs = observe(traj, tau=1.0)
    assert obs.energy <= float(np.max(traj.values**2))


def test_observation_summary_validation():
    with pytest.raises(ValueError):
        ObservationSummary(time_fraction=1.5, energy=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        ObservationSummary(time_fraction=0.5, energy=-1.0, horizon=1.0)
    with pytest.raises(ValueError):
        observe(make_traj([1.0]), tau=0.0)


# ---------------------------------------------------------------------------
# streaming kernel
# ---------------------------------------------------------------------------


def _single_summary(seed, theta, eps=0.7, tau=1.0, T=20.37, spec=OU):
    traj = simulate_path(spec, SimConfig(T=T, dt=0.01, seed=seed))
    return observe(perturb(traj, theta, eps), tau)


@pytest.mark.parametrize("n_paths", [1, 3, 70])
def test_observe_paths_matches_single_paths_bitwise(n_paths):
    cfg = SimConfig(T=20.37, dt=0.01, seed=500)
    assert cfg.n_steps % CHUNK != 0
    for spec in (OU, CUBIC, TANH):
        fractions, energies = observe_paths(spec, cfg, n_paths, 0.5, 0.7, 1.0)
        assert fractions.shape == energies.shape == (n_paths,)
        for k in range(n_paths):
            obs = _single_summary(500 + k, 0.5, spec=spec)
            assert fractions[k] == obs.time_fraction, spec.label
            assert energies[k] == obs.energy, spec.label


@pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
@pytest.mark.parametrize("spec", [OU, CUBIC, TANH], ids=lambda spec: spec.label)
def test_observe_matches_observe_paths_at_the_chunk_edges(spec, n_steps):
    # observe reduces the whole chunks as rows of one view plus a tail row:
    # no chunk, a tail only, whole chunks only, and both
    cfg = SimConfig(T=n_steps * 0.01, dt=0.01, seed=800)
    assert cfg.n_steps == n_steps
    fractions, energies = observe_paths(spec, cfg, 2, 0.5, 0.7, 1.0)
    for k in range(2):
        traj = simulate_path(spec, SimConfig(T=cfg.T, dt=cfg.dt, seed=800 + k))
        obs = observe(perturb(traj, 0.5, 0.7), 1.0)
        assert (fractions[k], energies[k]) == (obs.time_fraction, obs.energy)


def test_observe_paths_independent_of_ensemble_size():
    cfg = SimConfig(T=20.37, dt=0.01, seed=600)
    big = observe_paths(OU, cfg, 70, 0.5, 0.7, 1.0)
    small = observe_paths(OU, cfg, 3, 0.5, 0.7, 1.0)
    shifted = observe_paths(OU, SimConfig(T=20.37, dt=0.01, seed=605), 1, 0.5, 0.7, 1.0)
    for b, s, one in zip(big, small, shifted):
        assert np.array_equal(b[:3], s)
        assert b[5] == one[0]


def test_observe_paths_per_path_theta_matches_scalar_calls():
    cfg = SimConfig(T=20.37, dt=0.01, seed=700)
    theta = np.array([0.0, 0.5, 0.5, 0.0, 0.25])
    fractions, energies = observe_paths(OU, cfg, 5, theta, 0.7, 1.0)
    for value in (0.0, 0.25, 0.5):
        f, e = observe_paths(OU, cfg, 5, value, 0.7, 1.0)
        mask = theta == value
        assert np.array_equal(fractions[mask], f[mask])
        assert np.array_equal(energies[mask], e[mask])


def test_observe_paths_blowup_names_a_seed_in_range():
    cubic = DiffusionSpec(lambda x: x**3, lambda x: x * 0.0 + 1.0)
    with pytest.raises(NumericBlowup) as info:
        observe_paths(cubic, SimConfig(T=5.0, dt=0.5, seed=30, x0=2.0), 4, 0.0, 1.0, 1.0)
    seed = int(re.search(r"seed (\d+)", str(info.value)).group(1))
    assert 30 <= seed < 34


def test_observe_paths_validation():
    cfg = SimConfig(T=1.0, dt=0.1)
    with pytest.raises(ValueError):
        observe_paths(OU, cfg, 0, 0.5, 0.7, 1.0)
    with pytest.raises(ValueError):
        observe_paths(OU, cfg, 2, 0.5, 0.0, 1.0)
