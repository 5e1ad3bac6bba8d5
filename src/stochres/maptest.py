"""Maximum a posteriori test between two subthreshold signal values.

Under either observation scheme the statistic is asymptotically Gaussian
with hypothesis-dependent mean and variance, so the posterior comparison
reduces to interval rules on the statistic.  Three cases arise from the
variance ordering.  Each is one interval, inside or outside which the rule
decides D1; ``decide`` and ``error_report`` both read it, and each error
probability is summed from its own Gaussian tails.

Both statistics are nonnegative.  When the Gaussian approximation puts
the boundary 0 within ``DEGENERATE_Z`` = 2 standard deviations of the
mean under both hypotheses, the path hardly ever crosses the threshold and
the approximation says nothing about the error: such a noise level is
flagged degenerate and reports the prior-guess error min(p0, p1).

The moments of either scheme are ``estimators.statistic_at``, the mean
and the raw variance divided by the horizon: one table lookup per signal
value over an array of noise levels, so a row of the error surface and
each scan of ``find_perr_minimum`` (the coarse scan and the scans that
refine each dip) take one lookup per hypothesis and no other read of the
tables.  A single noise level (``moments``) is an array of one.  An unknown
scheme raises ValueError there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import QuadratureFailure
from .estimators import Scheme, statistic_at
from .laws import InvariantLaw
from .numerics import SCAN_CELLS, Bracket, maximize_scalar, normal_cdf, not_finite_above, scan_points

__all__ = [
    "Decision",
    "TestProblem",
    "GaussianMoments",
    "DecisionRule",
    "ErrorReport",
    "SurfaceCell",
    "PerrMinimum",
    "moments",
    "build_rule",
    "decide",
    "error_report",
    "p_err",
    "p_err_surface",
    "find_perr_minimum",
]

_VAR_EQUAL_RTOL = 1e-12

# A noise level is degenerate when mu_i <= DEGENERATE_Z * s_i under both
# hypotheses.  z_i^2 = (mu_i / s_i)^2 roughly counts the independent
# excursions above the threshold within the horizon.  A cutoff of 1 leaves
# a spurious error minimum at the cutoff for T >= 100; 3 also flags levels
# where Monte Carlo measures a small error (eps = 0.4 at T = 100).
DEGENERATE_Z = 2.0


class Decision(Enum):
    """D0 accepts the null signal value, D1 rejects it for the alternative."""

    D0 = "D0"
    D1 = "D1"


def _check_horizon(horizon: float) -> None:
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")


@dataclass(frozen=True)
class TestProblem:
    """Two simple hypotheses theta0 < theta1 < tau with prior weights.

    tau, eps and the horizon must be finite, eps and the horizon positive.
    The scheme is checked where the moments are read (``statistic_at``).
    """

    theta0: float
    theta1: float
    p0: float
    p1: float
    tau: float
    eps: float
    horizon: float
    law: InvariantLaw
    scheme: Scheme = "time"

    def __post_init__(self) -> None:
        if not self.theta0 < self.theta1 < self.tau:
            raise ValueError("need theta0 < theta1 < tau")
        if not (0.0 < self.p0 < 1.0 and 0.0 < self.p1 < 1.0):
            raise ValueError("priors must lie strictly inside (0, 1)")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")
        _check_horizon(self.horizon)


@dataclass(frozen=True)
class GaussianMoments:
    """Mean and variance of the statistic under each hypothesis."""

    mu0: float
    mu1: float
    s0sq: float
    s1sq: float

    def __post_init__(self) -> None:
        if not (self.s0sq > 0 and self.s1sq > 0):
            raise ValueError("variances must be positive")

    def swapped(self) -> "GaussianMoments":
        return GaussianMoments(mu0=self.mu1, mu1=self.mu0, s0sq=self.s1sq, s1sq=self.s0sq)


@dataclass(frozen=True)
class DecisionRule:
    """Interval form of the posterior comparison.

    case_id 1: null variance larger; reject the null inside (gamma_lo, gamma_hi).
    case_id 2: alternative variance larger; reject the null outside the
    interval (case 1 with the hypotheses relabelled).
    case_id 3: equal variances; single cut gamma_single, reject on the side
    where the alternative mean lies (``alt_on_high``).
    A negative discriminant (``delta`` <= 0) in cases 1/2 leaves no cuts, an
    empty interval: case 1 always accepts the null, case 2 always rejects it.
    """

    case_id: int
    delta: Optional[float] = None
    gamma_lo: Optional[float] = None
    gamma_hi: Optional[float] = None
    gamma_single: Optional[float] = None
    alt_on_high: bool = True


@dataclass(frozen=True)
class ErrorReport:
    """Overall error probability and its two conditional components.

    ``p_type1`` is the null mass of the set where ``rule`` decides D1 and
    ``p_type2`` the alternative mass of its complement, each summed from
    Gaussian tails, so an error far in a tail is small but not 0.
    ``rule`` is the decision rule the probabilities belong to.
    ``degenerate`` marks a noise level where the Gaussian approximation
    reaches the statistic's boundary 0 under both hypotheses; the report
    then holds the prior-guess error, has no ``rule`` and ``reason`` gives
    both z values.
    """

    p_err: float
    p_type1: float  # P(D1 | H0)
    p_type2: float  # P(D0 | H1)
    degenerate: bool = False
    reason: Optional[str] = None
    rule: Optional[DecisionRule] = None


def _statistic_moments(
    theta: float, tau: float, eps: np.ndarray, horizon: float, law: InvariantLaw, scheme: Scheme
):
    """Mean and variance of the statistic at one signal value and each entry
    of an array of noise levels, in one table lookup, and the mask of the
    levels whose variance fails (see ``statistic_at``)."""
    _, _, mu, var, failed = statistic_at(theta, tau, eps, law, scheme)
    var = var / horizon
    return mu, var, failed | not_finite_above(var)


def moments(problem: TestProblem) -> GaussianMoments:
    """Gaussian moments of the chosen statistic under both hypotheses.

    Time scheme: mean sf((tau - theta_i)/eps), variance V(a_i)/T.
    Energy scheme: mean is the long-run energy, variance 4E[M^2/(sigma f)^2]/T.
    These are the T -> infinity asymptotics.  Both statistics are >= 0, so
    where a mean sits within a few standard deviations of 0 the Gaussian
    law is a poor description; ``p_err`` flags such noise levels.  Raises
    QuadratureFailure where either variance cannot be evaluated, and
    ValueError for an unknown scheme.
    """
    eps = np.array([problem.eps])
    mu0, v0, failed0, mu1, v1, failed1 = (
        v[0] for t in (problem.theta0, problem.theta1)
        for v in _statistic_moments(t, problem.tau, eps, problem.horizon, problem.law, problem.scheme)
    )
    if failed0 or failed1:
        raise QuadratureFailure(
            f"statistic variance degenerates at eps={problem.eps} (variances {float(v0)}, {float(v1)})"
        )
    return GaussianMoments(mu0=float(mu0), mu1=float(mu1), s0sq=float(v0), s1sq=float(v1))


def build_rule(m: GaussianMoments, p0: float, p1: float) -> DecisionRule:
    """Translate the posterior comparison into interval thresholds.

    Near-equal variances (relative difference below 1e-12) use the single-cut
    case: the two-cut formulas divide by the variance difference and lose all
    precision there, while the single cut is their well-defined limit.  Case 2
    runs the case-1 formulas on the relabelled hypotheses.
    """
    if abs(m.s0sq - m.s1sq) <= _VAR_EQUAL_RTOL * max(m.s0sq, m.s1sq):
        if m.mu1 == m.mu0:
            # identical Gaussians: pick the larger prior everywhere
            gamma = math.inf if p0 >= p1 else -math.inf
        else:
            # posterior-equality point; valid for either mean ordering
            gamma = (m.mu1**2 - m.mu0**2 + 2.0 * m.s0sq * math.log(p0 / p1)) / (
                2.0 * (m.mu1 - m.mu0)
            )
        return DecisionRule(case_id=3, gamma_single=gamma, alt_on_high=m.mu1 >= m.mu0)
    case_id = 1
    if m.s1sq > m.s0sq:
        # the same cuts with the hypotheses swapped; D1 now lies outside them
        m, p0, p1, case_id = m.swapped(), p1, p0, 2
    s0, s1 = math.sqrt(m.s0sq), math.sqrt(m.s1sq)
    s2sq = m.s0sq - m.s1sq
    log_ratio = math.log(p0 * s1 / (p1 * s0))
    delta = (m.mu0 - m.mu1) ** 2 - 2.0 * s2sq * log_ratio
    if delta <= 0:
        return DecisionRule(case_id=case_id, delta=delta)
    # the cuts are the roots (b -+ root)/s2sq of s2sq g^2 - 2 b g + c; the far
    # one adds root to b with the sign of b, and the near one comes from the
    # product of the roots, c/s2sq, as b - sign(b) root would cancel
    b = m.mu1 * m.s0sq - m.mu0 * m.s1sq
    c = m.mu1**2 * m.s0sq - m.mu0**2 * m.s1sq + 2.0 * m.s0sq * m.s1sq * log_ratio
    q = b + math.copysign(s0 * s1 * math.sqrt(delta), b)
    far, near = q / s2sq, c / q
    return DecisionRule(case_id=case_id, delta=delta, gamma_lo=min(far, near), gamma_hi=max(far, near))


def _d1_interval(rule: DecisionRule) -> tuple[float, float, bool]:
    """(lo, hi, inside): the rule decides D1 exactly where lo < s < hi holds
    (inside) or fails (outside).  A negative discriminant is the empty
    interval (inf, inf)."""
    if rule.case_id == 3:
        g = rule.gamma_single
        return (g, math.inf, True) if rule.alt_on_high else (-math.inf, g, True)
    lo, hi = (rule.gamma_lo, rule.gamma_hi) if rule.delta > 0 else (math.inf, math.inf)
    return lo, hi, rule.case_id == 1


def decide(rule: DecisionRule, statistic: float) -> Decision:
    """Apply the interval rule; D1 means the alternative wins the posterior."""
    lo, hi, inside = _d1_interval(rule)
    return Decision.D1 if (lo < statistic < hi) == inside else Decision.D0


def _mass(lo: float, hi: float, inside: bool, mu: float, sd: float) -> float:
    """Gaussian mass inside or outside (lo, hi), summed from its own tails
    (the upper ones for an interval above the mean)."""
    a, b = (lo - mu) / sd, (hi - mu) / sd
    if not inside:
        return normal_cdf(a) + normal_cdf(-b)
    return normal_cdf(b) - normal_cdf(a) if a <= 0 else normal_cdf(-a) - normal_cdf(-b)


def error_report(m: GaussianMoments, p0: float, p1: float) -> ErrorReport:
    """Conditional error probabilities of the rule built from these moments."""
    rule = build_rule(m, p0, p1)
    lo, hi, inside = _d1_interval(rule)
    t1 = _mass(lo, hi, inside, m.mu0, math.sqrt(m.s0sq))
    t2 = _mass(lo, hi, not inside, m.mu1, math.sqrt(m.s1sq))
    return ErrorReport(p_err=t1 * p0 + t2 * p1, p_type1=t1, p_type2=t2, rule=rule)


def _statistic_error(m: GaussianMoments, p0: float, p1: float) -> ErrorReport:
    """``error_report`` for a nonnegative statistic, or the prior guess where
    its moments are degenerate."""
    z0 = m.mu0 / math.sqrt(m.s0sq)
    z1 = m.mu1 / math.sqrt(m.s1sq)
    if z0 > DEGENERATE_Z or z1 > DEGENERATE_Z:
        return error_report(m, p0, p1)
    # always decide for the larger prior
    t1, t2 = (0.0, 1.0) if p0 >= p1 else (1.0, 0.0)
    return ErrorReport(
        p_err=t1 * p0 + t2 * p1,
        p_type1=t1,
        p_type2=t2,
        degenerate=True,
        reason=(
            f"Gaussian approximation reaches the statistic's boundary 0 under both "
            f"hypotheses: z0={z0:.3g}, z1={z1:.3g} <= {DEGENERATE_Z:g}"
        ),
    )


def p_err(problem: TestProblem) -> ErrorReport:
    """Overall error probability of the MAP rule for this problem.

    With z_i = mu_i / s_i, a noise level where z0 <= 2 and z1 <= 2
    (``DEGENERATE_Z``) is degenerate: the path rarely crosses the threshold
    under either hypothesis, and the Gaussian tails would report an error
    near 0 where Monte Carlo measures about min(p0, p1).  The report is then
    the prior-guess error min(p0, p1), with the components of always
    deciding for the larger prior, ``degenerate`` set and both z values in
    ``reason``.
    """
    return _statistic_error(moments(problem), problem.p0, problem.p1)


@dataclass(frozen=True)
class SurfaceCell:
    """One (theta1, eps) cell of the error surface.

    A ``degenerate`` cell carries the prior-guess error and no Gaussian rule
    (see ``p_err``); it is not ``failed``, which means no value at all.
    """

    theta1: float
    eps: float
    case_id: Optional[int]
    delta: Optional[float]
    gamma_lo: Optional[float]
    gamma_hi: Optional[float]
    p_err: float
    failed: bool = False
    skipped: bool = False
    degenerate: bool = False


def p_err_surface(
    theta0: float,
    theta1_grid,
    eps_grid,
    tau: float,
    horizon: float,
    p0: float,
    p1: float,
    law: InvariantLaw,
    scheme: Scheme = "time",
) -> list[SurfaceCell]:
    """Error probability over a (theta1, eps) grid.

    Cells violating theta0 < theta1 < tau are skipped with a flag; cells
    whose statistic variance cannot be evaluated (a gap outside the law's
    tabulated support, or a cancelling energy quadratic form) are flagged
    as failed with NaN; cells where the Gaussian approximation is
    degenerate follow the rule of ``p_err`` and are flagged as degenerate.
    The null-hypothesis row of moments is one table lookup over the noise
    levels, and so is each theta1 row.  Raises ValueError unless theta0
    and tau are finite, the noise levels positive and finite and the
    horizon positive and finite.
    """
    eps = np.array([float(e) for e in eps_grid])
    if not (math.isfinite(theta0) and math.isfinite(tau)):
        raise ValueError("theta0 and tau must be finite")
    _check_horizon(horizon)
    if not (np.all(eps > 0.0) and np.all(np.isfinite(eps))):
        raise ValueError("eps must be positive and finite")
    null = _statistic_moments(theta0, tau, eps, horizon, law, scheme)
    rows = []  # (theta1, its reports per noise level, or None where skipped)
    for theta1 in map(float, theta1_grid):
        if not theta0 < theta1 < tau:
            rows.append((theta1, None))
            continue
        alt = _statistic_moments(theta1, tau, eps, horizon, law, scheme)
        rows.append((theta1, _error_row(null, alt, p0, p1)))
    cells: list[SurfaceCell] = []
    for k, e in enumerate(eps.tolist()):
        for theta1, row in rows:
            if row is None:
                cells.append(SurfaceCell(theta1, e, None, None, None, None, math.nan, skipped=True))
            elif row[k] is None:
                cells.append(SurfaceCell(theta1, e, None, None, None, None, math.nan, failed=True))
            elif row[k].degenerate:
                cells.append(
                    SurfaceCell(theta1, e, None, None, None, None, row[k].p_err, degenerate=True)
                )
            else:
                rule = row[k].rule
                cells.append(SurfaceCell(
                    theta1=theta1,
                    eps=e,
                    case_id=rule.case_id,
                    delta=rule.delta,
                    gamma_lo=rule.gamma_lo,
                    gamma_hi=rule.gamma_hi,
                    p_err=row[k].p_err,
                ))
    return cells


def _error_row(null, alt, p0: float, p1: float) -> list[Optional[ErrorReport]]:
    """The ``p_err`` report at each noise level of a row of null moments and
    a row of alternative ones, None where either failed."""
    return [
        None if failed0 or failed1
        else _statistic_error(GaussianMoments(mu0=mu0, mu1=mu1, s0sq=v0, s1sq=v1), p0, p1)
        for mu0, v0, failed0, mu1, v1, failed1 in zip(*(np.asarray(v).tolist() for v in null + alt))
    ]


@dataclass(frozen=True)
class PerrMinimum:
    """Result of ``find_perr_minimum``.

    ``n_failed`` counts the levels of the scan grid (``scan_points`` of the
    bracket) without a value, ``n_degenerate`` those that took the
    prior-guess error; neither depends on ``tol``.  ``endpoints``
    holds the reports at the two bracket ends, taken from the scan grid,
    whose first and last points are the ends (None where that level failed).
    """

    eps_star: float
    p_err_min: float
    local_minima: list[tuple[float, float]]
    n_failed: int
    n_degenerate: int
    endpoints: tuple[Optional[ErrorReport], Optional[ErrorReport]]


def find_perr_minimum(
    theta0: float,
    theta1: float,
    tau: float,
    horizon: float,
    p0: float,
    p1: float,
    law: InvariantLaw,
    scheme: Scheme = "time",
    bracket: Bracket = Bracket(0.05, 3.0),
    tol: float = 1e-4,
) -> PerrMinimum:
    """Minimize the overall error probability over the noise level.

    Degenerate noise levels (see ``p_err``) and failed ones evaluate to
    min(p0, p1), the error of guessing by prior alone, which is both the
    genuine limit at the bracket edges and never spuriously optimal.
    ``local_minima`` lists the interior local minima of a scan of
    ``SCAN_CELLS`` cells.  Two kinds of minimum are dropped: one within a
    scan cell of either bracket end, which is the edge of the search and not
    a dip, and one with a degenerate scan level within a scan cell, which
    sits where the Gaussian approximation starts.  The list may be empty.
    ``eps_star`` is the lowest error found, dropped minima and bracket
    endpoints included.  Raises ValueError unless theta0 < theta1 < tau with
    theta0 and tau finite, and unless the horizon is positive and finite.
    """
    if not (theta0 < theta1 < tau and math.isfinite(theta0) and math.isfinite(tau)):
        raise ValueError("need theta0 < theta1 < tau, with theta0 and tau finite")
    _check_horizon(horizon)
    if bracket.lo <= 0:
        raise ValueError("noise bracket must be positive")
    ceiling = min(p0, p1)

    def reports(eps: np.ndarray) -> list[Optional[ErrorReport]]:
        null, alt = (_statistic_moments(t, tau, eps, horizon, law, scheme)
                     for t in (theta0, theta1))
        return _error_row(null, alt, p0, p1)

    def value(report: Optional[ErrorReport]) -> float:
        return -ceiling if report is None else -report.p_err

    scan = scan_points(bracket)
    row = reports(scan)
    result = maximize_scalar(lambda eps: [value(r) for r in reports(eps)], bracket, tol=tol,
                             scan=[value(r) for r in row])
    degenerate = [eps for eps, r in zip(scan.tolist(), row) if r is not None and r.degenerate]
    cell = (bracket.hi - bracket.lo) / SCAN_CELLS
    local = [
        (x, -v)
        for x, v in result.local_maxima
        if bracket.lo + cell < x < bracket.hi - cell
        and not any(abs(x - d) <= cell for d in degenerate)
    ]
    return PerrMinimum(
        eps_star=result.x_star,
        p_err_min=-result.h_star,
        local_minima=local,
        n_failed=sum(r is None for r in row),
        n_degenerate=len(degenerate),
        endpoints=(row[0], row[-1]),
    )
