import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stochres
from stochres import DiffusionSpec, SimConfig, observe_paths
from stochres import TestProblem as Problem
from stochres import error_rate_study, ou_law, validation_studies, variance_validation_study
from stochres.errors import DegenerateObservation, NumericBlowup
from stochres.validate import _Job, _run_jobs


def _observe_split(spec, cfg, n_paths, theta, eps, tau, workers):
    """``observe_paths`` through the study runner: one job whose study is
    its paths' arrays, concatenated in seed order."""
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_paths,))
    job = _Job(spec, cfg, n_paths, theta, eps, tau, lambda f, e: (f, e))
    return _run_jobs([job], workers)[0]


# x^3 pushes paths out: at dt 0.05 no seed below 10 leaves the bound within
# 10 steps, seeds 8 and 9 do within 20, and every path within 400
_CUBIC = DiffusionSpec(lambda x: x**3, lambda x: x * 0.0 + 1.0)


@pytest.fixture(scope="module")
def law():
    return ou_law()


def test_variance_study_reproducible(law):
    kwargs = dict(theta=0.5, tau=1.0, eps=0.7, horizon=100.0, dt=0.01, n_reps=20, base_seed=3)
    a = variance_validation_study(law, **kwargs)
    b = variance_validation_study(law, **kwargs)
    assert a == b
    assert a.seeds == (3, 22)
    assert a.n_reps == 20 and a.n_degenerate == 0
    assert a.ratio_time > 0 and a.ratio_energy > 0


def test_variance_study_excludes_degenerate(law):
    # tiny noise level: the path never crosses, every replication degenerates
    for workers in (1, 2):
        with pytest.raises(DegenerateObservation):
            variance_validation_study(
                law, theta=0.0, tau=1.0, eps=0.01, horizon=20.0, dt=0.01, n_reps=5, base_seed=0,
                workers=workers,
            )
    assert multiprocessing.active_children() == []


def test_error_study_prior_split_and_reproducibility(law):
    problem = Problem(0.0, 0.5, 0.3, 0.7, 1.0, 0.7, 50.0, law, "time")
    a = error_rate_study(problem, dt=0.01, n_paths=10, base_seed=17)
    b = error_rate_study(problem, dt=0.01, n_paths=10, base_seed=17)
    assert a == b
    assert a.n_paths == 10
    assert a.seeds == (17, 26)
    assert 0.0 <= a.empirical_rate <= 1.0
    assert a.n_errors == round(a.empirical_rate * a.n_paths)


def test_error_study_energy_scheme_runs(law):
    problem = Problem(0.0, 0.5, 0.5, 0.5, 1.0, 0.7, 50.0, law, "energy")
    study = error_rate_study(problem, dt=0.01, n_paths=20, base_seed=5)
    assert 0.0 <= study.empirical_rate <= 1.0
    assert study.predicted_p_err >= 0.0


def test_error_study_scores_prior_guess_at_degenerate_level(law):
    # T = 100, eps = 0.2 is degenerate: p_err predicts the prior guess, and
    # the study must score that rule, not the Gaussian one
    problem = Problem(0.0, 0.5, 0.3, 0.7, 1.0, 0.2, 100.0, law, "time")
    study = error_rate_study(problem, dt=0.01, n_paths=200, base_seed=7000)
    assert study.degenerate
    assert study.empirical_rate == study.predicted_p_err == 0.3
    assert study.n_errors == 60


def test_error_study_nondegenerate_level_is_not_flagged(law):
    problem = Problem(0.0, 0.5, 0.5, 0.5, 1.0, 0.7, 50.0, law, "time")
    assert not error_rate_study(problem, dt=0.01, n_paths=10, base_seed=17).degenerate


def test_variance_study_memory_does_not_grow_with_horizon(law):
    kwargs = dict(theta=0.5, tau=1.0, eps=0.7244, horizon=200.0, dt=0.01, n_reps=50)
    variance_validation_study(law, **kwargs)  # builds the law's tables
    tracemalloc.start()
    try:
        variance_validation_study(law, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the paths alone would take 50 x 20 000 x 8 B = 8 MB per array
    assert peak < 4 * 2**20


def test_split_matches_one_kernel_call(law):
    # per-path theta, and 7 paths over 3 workers: ranges of 2, 2 and 3 seeds
    cfg = SimConfig(T=20.37, dt=0.01, seed=40)
    theta = np.array([0.0, 0.5, 0.25, 0.5, 0.0, 0.1, 0.5])
    one = observe_paths(law.spec, cfg, 7, theta, 0.7, 1.0)
    for workers in (2, 3, 7, 20):
        split = _observe_split(law.spec, cfg, 7, theta, 0.7, 1.0, workers)
        for a, b in zip(one, split):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_studies_do_not_depend_on_workers(law):
    problem = Problem(0.0, 0.5, 0.4, 0.6, 1.0, 0.7, 20.0, law, "time")
    serial = error_rate_study(problem, dt=0.01, n_paths=7, base_seed=11)
    assert serial.n_paths == 7
    assert error_rate_study(problem, dt=0.01, n_paths=7, base_seed=11, workers=3) == serial
    kwargs = dict(theta=0.5, tau=1.0, eps=0.7, horizon=20.0, dt=0.01, n_reps=7, base_seed=3)
    serial = variance_validation_study(law, **kwargs)
    assert variance_validation_study(law, **kwargs, workers=3) == serial


def test_split_reraises_a_worker_error_and_leaves_no_process():
    cubic = DiffusionSpec(lambda x: x**3, lambda x: x * 0.0 + 1.0)
    cfg = SimConfig(T=5.0, dt=0.5, seed=30, x0=2.0)
    with pytest.raises(NumericBlowup) as info:
        _observe_split(cubic, cfg, 4, 0.0, 1.0, 1.0, workers=2)
    assert type(info.value) is NumericBlowup
    # every path blows up; the error of the first range (seed 30, of four ranges) wins
    seed = int(re.search(r"seed (\d+)", str(info.value)).group(1))
    assert 30 <= seed < 32
    assert multiprocessing.active_children() == []



def test_split_names_the_blowup_of_one_kernel_call():
    # a well of height 0.83 between cubic walls: the paths escape at random
    # steps.  Seeds 0-7 over 8 chunks: seed 5 leaves the bound in an earlier
    # chunk than seed 1, so the first range in seed order names the wrong seed.
    spec = DiffusionSpec(lambda x: -x + 0.3 * x**3, lambda x: x * 0.0 + 1.0)
    cfg = SimConfig(T=100.0, dt=0.05)
    with pytest.raises(NumericBlowup) as one:
        observe_paths(spec, cfg, 8, 0.5, 0.7, 1.0)
    assert "seed 5;" in str(one.value)
    for workers in (2, 3, 8):
        with pytest.raises(NumericBlowup) as split:
            _observe_split(spec, cfg, 8, 0.5, 0.7, 1.0, workers)
        assert str(split.value) == str(one.value) and split.value.step == one.value.step
    assert multiprocessing.active_children() == []

def test_split_rejects_fewer_than_one_worker(law):
    with pytest.raises(ValueError):
        _observe_split(law.spec, SimConfig(T=1.0), 2, 0.5, 0.7, 1.0, workers=0)


def test_serial_studies_load_no_multiprocessing():
    # a pool is only imported when a study runs on more than one worker
    code = (
        "import sys\n"
        "import stochres, stochres.cli\n"
        "law = stochres.ou_law()\n"
        "stochres.variance_validation_study(law, 0.5, 1.0, 0.7, 20.0, 0.01, 10, workers=1)\n"
        "problem = stochres.TestProblem(0.0, 0.5, 0.5, 0.5, 1.0, 0.7, 20.0, law, 'time')\n"
        "stochres.error_rate_study(problem, 0.01, 10, workers=1)\n"
        "stochres.validation_studies(problem, 0.5, 0.7, 20.0, 0.01, 10, 10, workers=1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
    )
    src = str(Path(stochres.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("test_eps, n_reps, n_paths", [
    (1.2, 7, 9),  # per-path theta: null and alternative paths stepped together
    (0.2, 7, 9),  # degenerate: the error study steps no path
    (1.2, 2, 2),  # fewer paths than the pool could take
])
def test_combined_studies_equal_the_single_studies(law, test_eps, n_reps, n_paths):
    problem = Problem(0.0, 0.5, 0.4, 0.6, 1.0, test_eps, 20.0, law, "time")
    variance = variance_validation_study(law, 0.5, 1.0, 0.7, 20.0, 0.01, n_reps, base_seed=3)
    error = error_rate_study(problem, 0.01, n_paths, base_seed=3 + n_reps)
    assert error.degenerate == (test_eps == 0.2)
    for workers in (1, 2, 3):
        combined = validation_studies(problem, 0.5, 0.7, 20.0, 0.01, n_reps, n_paths,
                                      base_seed=3, workers=workers)
        assert combined == (variance, error)
    assert multiprocessing.active_children() == []


def test_degenerate_error_study_steps_no_path(law, monkeypatch):
    seeds = []

    def recording(spec, cfg, n_paths, *args):
        seeds.extend(range(cfg.seed, cfg.seed + n_paths))
        return observe_paths(spec, cfg, n_paths, *args)

    monkeypatch.setattr("stochres.validate.observe_paths", recording)
    problem = Problem(0.0, 0.5, 0.3, 0.7, 1.0, 0.2, 100.0, law, "time")
    _, error = validation_studies(problem, 0.5, 0.7, 20.0, 0.01, 10, 50, base_seed=5)
    assert error.degenerate and error.seeds == (15, 64)
    assert seeds == list(range(5, 15))


def test_combined_studies_raise_what_the_serial_run_raises(law):
    problem = Problem(0.0, 0.5, 0.5, 0.5, 1.0, 1.2, 20.0, replace(law, spec=_CUBIC), "time")
    cases = [
        # a blow-up in the variance study (seeds 8 and 9), which runs first
        (NumericBlowup, "seed 8;", dict(eps=1.0, horizon=1.0, n_reps=10)),
        # the variance study's paths stay bounded; every error-study path blows up
        (NumericBlowup, "seed 10;", dict(eps=1.0, horizon=0.5, n_reps=10)),
        # the variance study's paths never cross the threshold: its reduction fails
        (DegenerateObservation, "too few usable replications", dict(eps=0.01, horizon=0.5, n_reps=8)),
    ]
    for kind, named, kwargs in cases:
        args = (problem, 0.5, kwargs["eps"], kwargs["horizon"], 0.05, kwargs["n_reps"], 8)
        with pytest.raises(kind, match=named) as serial:
            validation_studies(*args, workers=1)
        for workers in (2, 3):
            with pytest.raises(kind) as split:
                validation_studies(*args, workers=workers)
            assert type(split.value) is kind
            assert str(split.value) == str(serial.value)
            assert multiprocessing.active_children() == []


def test_variance_study_estimates_energies_below_minus_tau(law):
    # replications 4 and 7 are short paths whose energies lie below the
    # map's value at -tau (6 and 8 are degenerate); each gets an estimate
    # whose forward map gives its energy back, and the study uses them
    problem = Problem(0.0, 0.5, 0.5, 0.5, 1.0, 1.2, 20.0, law, "time")
    cfg = SimConfig(T=1.0, dt=0.05, seed=0)
    fractions, energies = observe_paths(law.spec, cfg, 10, np.full(10, 0.5), 1.5, 1.0)
    ch = stochres.ChannelConfig(tau=1.0, eps=1.5, law=law)
    for k in (4, 7):
        theta = stochres.estimate_theta_energy(energies[k].item(), ch)
        assert theta < -ch.tau
        assert stochres.energy_limit(theta, ch) == pytest.approx(energies[k], rel=1e-10, abs=0.0)
    assert np.flatnonzero((fractions == 0.0) | (fractions == 1.0)).tolist() == [6, 8]
    studies = [validation_studies(problem, 0.5, 1.5, 1.0, 0.05, 10, 8, workers=workers)[0]
               for workers in (1, 2, 3)]
    assert studies[0].n_reps == 8 and studies[0].n_degenerate == 2
    assert studies[1] == studies[0] and studies[2] == studies[0]
    assert multiprocessing.active_children() == []


def test_variance_reduce_lookups_do_not_grow_with_the_replications(law, monkeypatch):
    # each scheme's estimates are one array root find: one lookup at the
    # bracket ends, then one per iteration of the slowest replication (a
    # loop over the 200 replications makes about 20 per replication)
    from stochres import laws
    from stochres.validate import _variance_job

    job = _variance_job(law, 0.5, 1.0, 0.7244, 20.0, 0.01, 200, 0)
    fractions, energies = observe_paths(law.spec, job.sim, 200, job.theta, job.eps, job.tau)
    law.tables
    lookups = []
    for name in ("cdf", "upper_moments"):
        lookup = getattr(laws.LawTables, name)
        monkeypatch.setattr(laws.LawTables, name,
                            lambda self, x, lookup=lookup: lookups.append(np.size(x)) or lookup(self, x))
    study = job.study(fractions, energies)
    assert study.n_degenerate == 0 and study.n_reps == 200
    assert len(lookups) <= 30, lookups


def test_combined_studies_check_the_error_study_after_the_variance_study(law):
    # one labeled path is too few, but serially the variance study runs first
    problem = Problem(0.0, 0.5, 0.4, 0.6, 1.0, 1.2, 20.0, law, "time")
    with pytest.raises(DegenerateObservation):
        validation_studies(problem, 0.0, 0.01, 20.0, 0.01, 5, 1, workers=2)
    with pytest.raises(ValueError, match="labeled paths"):
        validation_studies(problem, 0.5, 0.7, 20.0, 0.01, 5, 1, workers=2)


def test_stepping_error_precedes_reduction_error_of_a_lower_range():
    # seeds 0-7 stay bounded for 20 steps and seeds 8 and 9 blow up; the
    # study fails.  Serially the stepping error comes first, so it must when
    # the lower ranges are stepped before the range of seed 8.
    def fails(fractions, energies):
        raise ZeroDivisionError("reduction")

    job = _Job(_CUBIC, SimConfig(T=1.0, dt=0.05), 10, np.zeros(10), 1.0, 1.0, fails)
    for workers in (1, 2, 3):
        with pytest.raises(NumericBlowup, match="seed 8;"):
            _run_jobs([job], workers)
    assert multiprocessing.active_children() == []


def test_studies_are_reduced_in_this_process(law, monkeypatch):
    # workers only step paths: the variance study's energy estimates are one
    # array root find here, over every replication of every range
    from stochres import validate

    calls = []
    estimate = validate.estimate_theta_energy_at
    monkeypatch.setattr("stochres.validate.estimate_theta_energy_at",
                        lambda energies, ch: calls.append(len(energies)) or estimate(energies, ch))
    problem = Problem(0.0, 0.5, 0.4, 0.6, 1.0, 1.2, 20.0, law, "time")
    variance, _ = validation_studies(problem, 0.5, 0.7, 20.0, 0.01, 7, 9, base_seed=3, workers=2)
    assert calls == [7] and variance.n_reps == 7
    assert multiprocessing.active_children() == []


def test_only_energy_readers_ask_for_energies(law, monkeypatch):
    # the time-scheme error study counts its paths' steps above the
    # threshold; the variance study and an energy-scheme error study read
    # the energies.  Forming energies nobody reads changes no study.
    asked = []

    def recording(spec, cfg, n_paths, theta, eps, tau, energy=True):
        asked.append(energy)
        return observe_paths(spec, cfg, n_paths, theta, eps, tau, energy)

    monkeypatch.setattr("stochres.validate.observe_paths", recording)
    for scheme, expected in (("time", [True, False]), ("energy", [True, True])):
        problem = Problem(0.0, 0.5, 0.5, 0.5, 1.0, 0.7, 50.0, law, scheme)
        asked.clear()
        studies = validation_studies(problem, 0.5, 0.7, 20.0, 0.01, 10, 40, base_seed=3)
        assert asked == expected, scheme
        asked.clear()
        assert error_rate_study(problem, 0.01, 40, base_seed=13) == studies[1]
        assert asked == expected[1:], scheme
        with monkeypatch.context() as patch:
            patch.setattr("stochres.validate.observe_paths",
                          lambda *args: observe_paths(*args[:6], energy=True))
            assert validation_studies(problem, 0.5, 0.7, 20.0, 0.01, 10, 40, base_seed=3) == studies
