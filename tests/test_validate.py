import tracemalloc

import pytest

from stochres import TestProblem as Problem
from stochres import error_rate_study, ou_law, variance_validation_study
from stochres.errors import DegenerateObservation


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
    with pytest.raises(DegenerateObservation):
        variance_validation_study(
            law, theta=0.0, tau=1.0, eps=0.01, horizon=20.0, dt=0.01, n_reps=5, base_seed=0
        )


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
