"""Monte Carlo validation studies: estimator variance against its asymptotic
prediction, and empirical decision error against the closed-form value.

Replication k always uses seed = base_seed + k, so studies are reproducible
and trivially parallel.  Each study steps all its paths in one call of the
streaming kernel ``observe_paths``, which keeps only per-path counters:
memory is O(paths x CHUNK), independent of the horizon, and every path's
statistics are bit-identical to observing that path on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservation
from .estimators import (
    ChannelConfig,
    energy_scheme_variance,
    estimate_theta_energy,
    estimate_theta_time,
    time_scheme_variance,
)
from .laws import InvariantLaw
from .maptest import Decision, TestProblem, decide, p_err
from .simulate import SimConfig, observe_paths

__all__ = ["VarianceStudy", "ErrorRateStudy", "variance_validation_study", "error_rate_study"]

@dataclass(frozen=True)
class VarianceStudy:
    ratio_time: float
    ratio_energy: float
    sigma_time: float
    sigma_energy: float
    n_reps: int
    n_degenerate: int
    seeds: tuple[int, int]  # inclusive seed range used


def variance_validation_study(
    law: InvariantLaw,
    theta: float,
    tau: float,
    eps: float,
    horizon: float,
    dt: float,
    n_reps: int,
    base_seed: int = 0,
) -> VarianceStudy:
    """Compare T * var(estimate) across replications with the predicted
    asymptotic variance, for both schemes on the same simulated paths.

    Replications whose time fraction hits 0 or 1 carry no finite estimate
    and are excluded (counted in n_degenerate).
    """
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    ch = ChannelConfig(tau=tau, eps=eps, law=law)
    sim = SimConfig(T=horizon, dt=dt, seed=base_seed)
    fractions, energies = observe_paths(law.spec, sim, n_reps, theta, eps, tau)
    est_t: list[float] = []
    est_e: list[float] = []
    degenerate = 0
    for fraction, energy in zip(fractions.tolist(), energies.tolist()):
        try:
            est_t.append(estimate_theta_time(fraction, ch))
            est_e.append(estimate_theta_energy(energy, ch))
        except DegenerateObservation:
            degenerate += 1
    if len(est_t) < 2:
        raise DegenerateObservation("too few usable replications for a variance estimate")
    sigma_t = time_scheme_variance(theta, ch).value
    sigma_e = energy_scheme_variance(theta, ch).value
    t_eff = sim.n_steps * dt
    return VarianceStudy(
        ratio_time=t_eff * float(np.var(est_t, ddof=1)) / sigma_t,
        ratio_energy=t_eff * float(np.var(est_e, ddof=1)) / sigma_e,
        sigma_time=sigma_t,
        sigma_energy=sigma_e,
        n_reps=len(est_t),
        n_degenerate=degenerate,
        seeds=(base_seed, base_seed + n_reps - 1),
    )


@dataclass(frozen=True)
class ErrorRateStudy:
    """Empirical MAP error rate against the closed-form ``p_err``.

    ``predicted_p_err`` follows ``p_err``.  At a noise level that ``p_err``
    flags ``degenerate`` the study scores the rule that prediction belongs
    to, deciding every path for the larger prior, and ``degenerate`` is
    set.  ``binomial_se`` is
    sqrt(p(1 - p)/n) at the predicted p.  A band of a few of these is a
    normal approximation to the binomial count and is valid only when
    n * predicted_p_err is large (about 10 or more expected errors); deep
    in the Gaussian tail, where a fraction of one error is expected, a
    single error already falls outside it.
    """

    empirical_rate: float
    predicted_p_err: float
    n_paths: int
    n_errors: int
    binomial_se: float
    seeds: tuple[int, int]
    degenerate: bool


def error_rate_study(
    problem: TestProblem,
    dt: float,
    n_paths: int,
    base_seed: int = 0,
) -> ErrorRateStudy:
    """Simulate labeled paths in prior proportions and score the MAP rule.

    The label split is deterministic (round(p0 * n) null paths first), which
    matches the prior mixture in expectation and keeps every run reproducible
    from the base seed.  Where ``p_err`` is degenerate the MAP rule is the
    prior guess: every path is decided for the larger prior (the null on a
    tie), as in ``p_err``, and no path needs to be simulated.  Otherwise
    null and alternative paths are stepped together in one kernel call.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 labeled paths")
    report = p_err(problem)
    n0 = int(round(problem.p0 * n_paths))
    is_alternative = np.arange(n_paths) >= n0
    if report.degenerate:
        decides_alternative = np.full(n_paths, problem.p1 > problem.p0)
    else:
        theta = np.where(is_alternative, problem.theta1, problem.theta0)
        sim = SimConfig(T=problem.horizon, dt=dt, seed=base_seed)
        fractions, energies = observe_paths(
            problem.law.spec, sim, n_paths, theta, problem.eps, problem.tau
        )
        statistics = fractions if problem.scheme == "time" else energies
        decides_alternative = np.array(
            [decide(report.rule, s) is Decision.D1 for s in statistics.tolist()], dtype=bool
        )
    errors = int(np.count_nonzero(decides_alternative != is_alternative))
    predicted = report.p_err
    rate = errors / n_paths
    se = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / n_paths)
    return ErrorRateStudy(
        empirical_rate=rate,
        predicted_p_err=predicted,
        n_paths=n_paths,
        n_errors=errors,
        binomial_se=se,
        seeds=(base_seed, base_seed + n_paths - 1),
        degenerate=report.degenerate,
    )
