"""Monte Carlo validation studies: estimator variance against its asymptotic
prediction, and empirical decision error against the closed-form value.

Replication k always uses seed = base_seed + k, so studies are reproducible
and trivially parallel.  A study steps its paths with the streaming kernel
``observe_paths``, which keeps only per-path counters: memory is
O(paths x CHUNK), independent of the horizon, and every path's statistics
are bit-identical to observing that path on its own.

Each study is a job: its paths, and one function of every path's time
fraction and energy, in seed order, to the study.  The variance study's
estimates are two array root finds over all its replications, one per
scheme (``estimate_theta_time_at`` and ``estimate_theta_energy_at``), so
its table lookups do not grow with the number of replications.  With
``workers=1`` every job is one kernel call in this process.  With more
workers the jobs of a run share one fork-started process pool:
``validation_studies`` submits both studies to it.  The seeds are cut into
contiguous ranges of about ceil(total paths / (2 workers)) paths, a study
with fewer paths being one range, and the ranges are submitted largest
(steps x paths) first.  A worker only steps a range and returns its
statistics; this process concatenates them in seed order and reduces each
study once, so every study result is bit-identical for any worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .errors import DegenerateObservation, NumericBlowup
from .estimators import (
    ChannelConfig,
    energy_scheme_variance,
    estimate_theta_energy_at,
    estimate_theta_time_at,
    time_scheme_variance,
)
from .laws import DiffusionSpec, InvariantLaw
from .maptest import Decision, TestProblem, decide, p_err
from .simulate import SimConfig, observe_paths

__all__ = [
    "VarianceStudy",
    "ErrorRateStudy",
    "variance_validation_study",
    "error_rate_study",
    "validation_studies",
]


@dataclass(frozen=True)
class _Job:
    """One study's paths, seeds sim.seed, ..., sim.seed + n_paths - 1, the
    path k observed at theta[k]; ``study`` maps every path's time fraction
    and energy, in seed order, to the study.  A job with no paths gets two
    empty arrays."""

    spec: DiffusionSpec
    sim: SimConfig
    n_paths: int
    theta: np.ndarray
    eps: float
    tau: float
    study: Callable[[np.ndarray, np.ndarray], Any]


# the jobs a pool worker serves; set only in the worker processes, by
# ``_adopt_jobs`` at their start
_JOBS: list[_Job] | None = None


def _adopt_jobs(jobs: list[_Job]) -> None:
    global _JOBS
    _JOBS = jobs


def _run_range(job: _Job, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The time fractions and energies of seeds lo..hi-1 of a job."""
    sim = replace(job.sim, seed=job.sim.seed + lo)
    return observe_paths(job.spec, sim, hi - lo, job.theta[lo:hi], job.eps, job.tau)


def _run_adopted(index: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    return _run_range(_JOBS[index], lo, hi)


def _finish(job: _Job, outcomes: list[Callable[[], tuple[np.ndarray, np.ndarray]]]) -> Any:
    """The job's study from its ranges' statistics, in seed order.

    A stepping error is raised first: a blow-up as one kernel call over
    every seed would raise it (the earliest chunk, then the lowest seed),
    any other as soon as it is met in seed order.  Then what ``study``
    raises over all the paths.
    """
    parts, blowups = [], []
    for outcome in outcomes:
        try:
            parts.append(outcome())
        except NumericBlowup as exc:
            blowups.append(exc)
    if blowups:
        raise min(blowups, key=lambda exc: exc.step)
    fractions, energies = zip(*parts) if parts else ([np.empty(0)], [np.empty(0)])
    return job.study(np.concatenate(fractions), np.concatenate(energies))


def _run_jobs(jobs: list[_Job], workers: int) -> list:
    """Each job's study, in job order, its paths stepped by ``workers``
    processes.

    The jobs are cut into contiguous seed ranges of about
    ceil(total paths / (2 workers)) paths each, on one pool of at most
    ``workers`` fork-started processes, largest range (steps x paths) first.
    Each path's statistics do not depend on the paths stepped beside it, so
    every study equals the one-range result bit for bit.  The jobs reach the
    workers by inheritance, because the coefficients (lambdas, compiled
    expressions) and the studies do not pickle; only the range bounds go
    out and each range's time fractions and energies come back.  A worker
    only steps paths: each study is reduced once, in this process.  The
    caller must hold no threads that fork could leave with a held lock.
    With one worker, or where fork is not available, each job is one range
    stepped in this process.  Errors are raised as themselves, the same for
    any count (see ``_finish``), jobs in order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    total = sum(job.n_paths for job in jobs)
    parallel = workers > 1 and total > 1
    if parallel:
        import multiprocessing

        parallel = "fork" in multiprocessing.get_all_start_methods()
    if not parallel:
        return [
            _finish(job, [partial(_run_range, job, 0, job.n_paths)] if job.n_paths else [])
            for job in jobs
        ]
    from concurrent.futures import ProcessPoolExecutor

    width = -(-total // (2 * workers))
    ranges = []
    for index, job in enumerate(jobs):
        n, k = job.n_paths, -(-job.n_paths // width)
        ranges.append([(index, n * i // k, n * (i + 1) // k) for i in range(k)])
    by_cost = sorted((r for rs in ranges for r in rs),
                     key=lambda r: -jobs[r[0]].sim.n_steps * (r[2] - r[1]))
    with ProcessPoolExecutor(
        min(workers, len(by_cost)), mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_jobs, initargs=(jobs,),
    ) as pool:
        try:
            pending = {r: pool.submit(_run_adopted, *r) for r in by_cost}
            return [_finish(job, [pending[r].result for r in rs]) for job, rs in zip(jobs, ranges)]
        finally:
            # after a raised study, the ranges not yet started are dropped
            pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class VarianceStudy:
    ratio_time: float
    ratio_energy: float
    sigma_time: float
    sigma_energy: float
    n_reps: int
    n_degenerate: int
    seeds: tuple[int, int]  # inclusive seed range used


def _variance_job(
    law: InvariantLaw,
    theta: float,
    tau: float,
    eps: float,
    horizon: float,
    dt: float,
    n_reps: int,
    base_seed: int,
) -> _Job:
    if n_reps < 2:
        raise ValueError("need at least 2 replications")
    ch = ChannelConfig(tau=tau, eps=eps, law=law)
    sim = SimConfig(T=horizon, dt=dt, seed=base_seed)

    def study(fractions: np.ndarray, energies: np.ndarray) -> VarianceStudy:
        est_t, degenerate = estimate_theta_time_at(fractions, ch)
        est_e = estimate_theta_energy_at(energies[~degenerate], ch)
        est_t = est_t[~degenerate]
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
            n_degenerate=int(np.count_nonzero(degenerate)),
            seeds=(base_seed, base_seed + n_reps - 1),
        )

    return _Job(law.spec, sim, n_reps, np.full(n_reps, float(theta)), eps, tau, study)


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
    the replications, and this process estimates them; the result is the
    same for any count.
    """
    job = _variance_job(law, theta, tau, eps, horizon, dt, n_reps, base_seed)
    return _run_jobs([job], workers)[0]


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


def _error_job(problem: TestProblem, dt: float, n_paths: int, base_seed: int) -> _Job:
    if n_paths < 2:
        raise ValueError("need at least 2 labeled paths")
    # before any pool forks: whether the study steps its paths depends on it
    report = p_err(problem)
    n0 = int(round(problem.p0 * n_paths))
    is_alternative = np.arange(n_paths) >= n0
    theta = np.where(is_alternative, problem.theta1, problem.theta0)
    sim = SimConfig(T=problem.horizon, dt=dt, seed=base_seed)

    def study(fractions: np.ndarray, energies: np.ndarray) -> ErrorRateStudy:
        if report.degenerate:
            decides_alternative = np.full(n_paths, problem.p1 > problem.p0)
        else:
            statistics = fractions if problem.scheme == "time" else energies
            decides_alternative = np.array(
                [decide(report.rule, s) is Decision.D1 for s in statistics.tolist()], dtype=bool
            )
        errors = int(np.count_nonzero(decides_alternative != is_alternative))
        predicted = report.p_err
        se = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / n_paths)
        return ErrorRateStudy(
            empirical_rate=errors / n_paths,
            predicted_p_err=predicted,
            n_paths=n_paths,
            n_errors=errors,
            binomial_se=se,
            seeds=(base_seed, base_seed + n_paths - 1),
            degenerate=report.degenerate,
        )

    # the prior guess needs no path
    stepped = 0 if report.degenerate else n_paths
    return _Job(problem.law.spec, sim, stepped, theta, problem.eps, problem.tau, study)


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
    tie), as in ``p_err``, and no path is simulated.  Otherwise null and
    alternative paths are stepped together by ``workers`` processes, and
    decided in this process; the result is the same for any count.
    """
    return _run_jobs([_error_job(problem, dt, n_paths, base_seed)], workers)[0]


def validation_studies(
    problem: TestProblem,
    theta: float,
    eps: float,
    horizon: float,
    dt: float,
    n_reps: int,
    n_paths: int,
    base_seed: int = 0,
    workers: int = 1,
) -> tuple[VarianceStudy, ErrorRateStudy]:
    """Both studies on one pool of ``workers`` processes:
    ``variance_validation_study(problem.law, theta, problem.tau, eps,
    horizon, dt, n_reps, base_seed)`` and ``error_rate_study(problem, dt,
    n_paths, base_seed + n_reps)``, the error seeds following the variance
    seeds.  Each result, and the exception raised if any (the variance
    study's first), is the one of those two calls, for any worker count.
    """
    jobs = [_variance_job(problem.law, theta, problem.tau, eps, horizon, dt, n_reps, base_seed)]
    try:
        jobs.append(_error_job(problem, dt, n_paths, base_seed + n_reps))
    except Exception:
        # raised only after the variance study, as when the two run in turn
        _run_jobs(jobs, workers)
        raise
    variance, error = _run_jobs(jobs, workers)
    return variance, error
