"""Monte Carlo validation studies: estimator variance against its asymptotic
prediction, and empirical decision error against the closed-form value.

Replication k always uses seed = base_seed + k, so studies are reproducible
and trivially parallel.  A study steps its paths with the streaming kernel
``observe_paths``, which keeps only per-path counters: memory is
O(paths x CHUNK), independent of the horizon, and every path's statistics
are bit-identical to observing that path on its own.  With ``workers=1``
that is one kernel call in this process.  With more workers the seeds are
split into contiguous ranges, one kernel call per range on a fork-started
process pool, and the results are concatenated in seed order, so every
study result is bit-identical for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateObservation
from .estimators import (
    ChannelConfig,
    energy_scheme_variance,
    estimate_theta_energy,
    estimate_theta_time,
    time_scheme_variance,
)
from .laws import DiffusionSpec, InvariantLaw
from .maptest import Decision, TestProblem, decide, p_err
from .simulate import SimConfig, observe_paths

__all__ = ["VarianceStudy", "ErrorRateStudy", "variance_validation_study", "error_rate_study"]

# (spec, sim, theta, eps, tau) of the study a pool worker serves; set only in
# the worker processes, by ``_adopt_task`` at their start
_TASK: tuple | None = None


def _adopt_task(task: tuple) -> None:
    global _TASK
    _TASK = task


def _observe_range(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    spec, sim, theta, eps, tau = _TASK
    return observe_paths(spec, replace(sim, seed=sim.seed + lo), hi - lo, theta[lo:hi], eps, tau)


def _observe_split(
    spec: DiffusionSpec,
    sim: SimConfig,
    n_paths: int,
    theta: float | np.ndarray,
    eps: float,
    tau: float,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``observe_paths(spec, sim, n_paths, theta, eps, tau)``, with the seeds
    split into min(workers, n_paths) contiguous ranges on a process pool.

    Each path's statistics do not depend on the paths stepped beside it, so
    the concatenated arrays equal the single call's bit for bit.  The pool
    is started with fork: the task reaches the workers by inheritance,
    because the coefficients (lambdas, compiled expressions) do not
    pickle; only the range bounds go out and two arrays per range come back.
    The caller must hold no threads that fork could leave with a held lock.
    Where fork is not available the call runs serially in this process.  A
    worker's exception is re-raised as itself, the first in seed order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, n_paths)
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return observe_paths(spec, sim, n_paths, theta, eps, tau)
    from concurrent.futures import ProcessPoolExecutor

    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_paths,))
    bounds = [n_paths * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_task, initargs=((spec, sim, theta, eps, tau),),
    ) as pool:
        pending = [pool.submit(_observe_range, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        fractions, energies = zip(*[part.result() for part in pending])
    return np.concatenate(fractions), np.concatenate(energies)


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
    workers: int = 1,
) -> VarianceStudy:
    """Compare T * var(estimate) across replications with the predicted
    asymptotic variance, for both schemes on the same simulated paths.

    Replications whose time fraction hits 0 or 1 carry no finite estimate
    and are excluded (counted in n_degenerate).  ``workers`` processes step
    the replications; the result is the same for any count.
    """
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    ch = ChannelConfig(tau=tau, eps=eps, law=law)
    sim = SimConfig(T=horizon, dt=dt, seed=base_seed)
    fractions, energies = _observe_split(law.spec, sim, n_reps, theta, eps, tau, workers)
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
    workers: int = 1,
) -> ErrorRateStudy:
    """Simulate labeled paths in prior proportions and score the MAP rule.

    The label split is deterministic (round(p0 * n) null paths first), which
    matches the prior mixture in expectation and keeps every run reproducible
    from the base seed.  Where ``p_err`` is degenerate the MAP rule is the
    prior guess: every path is decided for the larger prior (the null on a
    tie), as in ``p_err``, and no path needs to be simulated.  Otherwise
    null and alternative paths are stepped together, by ``workers``
    processes; the result is the same for any count.
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
        fractions, energies = _observe_split(
            problem.law.spec, sim, n_paths, theta, problem.eps, problem.tau, workers
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
