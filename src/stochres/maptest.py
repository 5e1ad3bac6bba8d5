"""Maximum a posteriori test between two subthreshold signal values.

Under either observation scheme the statistic is asymptotically Gaussian
with hypothesis-dependent mean and variance, so the posterior comparison
reduces to interval rules on the statistic.  Three cases arise from the
variance ordering; each carries a closed-form overall error probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import QuadratureFailure
from .estimators import (
    ChannelConfig,
    Scheme,
    edf_variance,
    energy_limit,
    energy_statistic_variance,
    time_fraction_limit,
)
from .laws import InvariantLaw
from .numerics import DEFAULT_QUADRATURE, Bracket, QuadratureConfig, maximize_scalar, normal_cdf

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


class Decision(Enum):
    """D0 accepts the null signal value, D1 rejects it for the alternative."""

    D0 = "D0"
    D1 = "D1"


@dataclass(frozen=True)
class TestProblem:
    """Two simple hypotheses theta0 < theta1 < tau with prior weights."""

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
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.scheme not in ("time", "energy"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


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
    case_id 2: alternative variance larger; accept the null inside the interval.
    case_id 3: equal variances; single cut gamma_single, reject on the side
    where the alternative mean lies (``alt_on_high``).
    A negative discriminant in cases 1/2 collapses the rule to a constant
    decision.
    """

    case_id: int
    delta: Optional[float]
    gamma_lo: Optional[float]
    gamma_hi: Optional[float]
    gamma_single: Optional[float]
    accept_h0_region: str
    alt_on_high: bool = True


@dataclass(frozen=True)
class ErrorReport:
    """Overall error probability and its two conditional components."""

    p_err: float
    p_type1: float  # P(D1 | H0)
    p_type2: float  # P(D0 | H1)


def moments(problem: TestProblem, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> GaussianMoments:
    """Gaussian moments of the chosen statistic under both hypotheses.

    Time scheme: mean sf((tau - theta_i)/eps), variance V(a_i)/T.
    Energy scheme: mean is the long-run energy, variance 4E[M^2/(sigma f)^2]/T.
    """
    ch = ChannelConfig(tau=problem.tau, eps=problem.eps, law=problem.law)
    if problem.scheme == "time":
        mu = [time_fraction_limit(t, ch) for t in (problem.theta0, problem.theta1)]
        var = [
            edf_variance(ch.gap_ratio(t), problem.law, problem.law.spec.diffusion, cfg)
            / problem.horizon
            for t in (problem.theta0, problem.theta1)
        ]
    else:
        mu = [energy_limit(t, ch, cfg) for t in (problem.theta0, problem.theta1)]
        var = [
            energy_statistic_variance(t, ch, cfg) / problem.horizon
            for t in (problem.theta0, problem.theta1)
        ]
    for v in var:
        if not (math.isfinite(v) and v > 0.0):
            raise QuadratureFailure(
                f"statistic variance degenerates at eps={problem.eps} (variance={v})"
            )
    return GaussianMoments(mu0=mu[0], mu1=mu[1], s0sq=var[0], s1sq=var[1])


def build_rule(m: GaussianMoments, p0: float, p1: float) -> DecisionRule:
    """Translate the posterior comparison into interval thresholds.

    Near-equal variances (relative difference below 1e-12) use the single-cut
    case: the two-cut formulas divide by the variance difference and lose all
    precision there, while the single cut is their well-defined limit.
    """
    s0, s1 = math.sqrt(m.s0sq), math.sqrt(m.s1sq)
    if abs(m.s0sq - m.s1sq) <= _VAR_EQUAL_RTOL * max(m.s0sq, m.s1sq):
        alt_on_high = m.mu1 >= m.mu0
        if m.mu1 == m.mu0:
            # identical Gaussians: pick the larger prior everywhere
            gamma = math.inf if p0 >= p1 else -math.inf
        else:
            # posterior-equality point; valid for either mean ordering
            gamma = (m.mu1**2 - m.mu0**2 + 2.0 * m.s0sq * math.log(p0 / p1)) / (
                2.0 * (m.mu1 - m.mu0)
            )
        side = "<=" if alt_on_high else ">="
        return DecisionRule(
            case_id=3,
            delta=None,
            gamma_lo=None,
            gamma_hi=None,
            gamma_single=gamma,
            accept_h0_region=f"statistic {side} {gamma:.6g}",
            alt_on_high=alt_on_high,
        )

    if m.s0sq > m.s1sq:
        s2sq = m.s0sq - m.s1sq
        delta = (m.mu0 - m.mu1) ** 2 - 2.0 * s2sq * math.log(p0 * s1 / (p1 * s0))
        if delta <= 0:
            return DecisionRule(
                case_id=1,
                delta=delta,
                gamma_lo=None,
                gamma_hi=None,
                gamma_single=None,
                accept_h0_region="always (negative discriminant)",
            )
        root = s0 * s1 * math.sqrt(delta)
        gamma_lo = (m.mu1 * m.s0sq - m.mu0 * m.s1sq - root) / s2sq
        gamma_hi = (m.mu1 * m.s0sq - m.mu0 * m.s1sq + root) / s2sq
        return DecisionRule(
            case_id=1,
            delta=delta,
            gamma_lo=gamma_lo,
            gamma_hi=gamma_hi,
            gamma_single=None,
            accept_h0_region=f"statistic outside ({gamma_lo:.6g}, {gamma_hi:.6g})",
        )

    s2sq = m.s1sq - m.s0sq
    delta = (m.mu0 - m.mu1) ** 2 - 2.0 * s2sq * math.log(p1 * s0 / (p0 * s1))
    if delta <= 0:
        return DecisionRule(
            case_id=2,
            delta=delta,
            gamma_lo=None,
            gamma_hi=None,
            gamma_single=None,
            accept_h0_region="never (negative discriminant)",
        )
    root = s0 * s1 * math.sqrt(delta)
    gamma_lo = (m.mu0 * m.s1sq - m.mu1 * m.s0sq - root) / s2sq
    gamma_hi = (m.mu0 * m.s1sq - m.mu1 * m.s0sq + root) / s2sq
    return DecisionRule(
        case_id=2,
        delta=delta,
        gamma_lo=gamma_lo,
        gamma_hi=gamma_hi,
        gamma_single=None,
        accept_h0_region=f"statistic inside ({gamma_lo:.6g}, {gamma_hi:.6g})",
    )


def decide(rule: DecisionRule, statistic: float) -> Decision:
    """Apply the interval rule; D1 means the alternative wins the posterior."""
    if rule.case_id == 3:
        if rule.alt_on_high:
            return Decision.D1 if statistic > rule.gamma_single else Decision.D0
        return Decision.D1 if statistic < rule.gamma_single else Decision.D0
    if rule.delta is not None and rule.delta <= 0:
        return Decision.D0 if rule.case_id == 1 else Decision.D1
    inside = rule.gamma_lo < statistic < rule.gamma_hi
    if rule.case_id == 1:
        return Decision.D1 if inside else Decision.D0
    return Decision.D0 if inside else Decision.D1


def _interval_mass(lo: float, hi: float, mu: float, sd: float) -> float:
    return normal_cdf((hi - mu) / sd) - normal_cdf((lo - mu) / sd)


def error_report(m: GaussianMoments, p0: float, p1: float) -> ErrorReport:
    """Conditional error probabilities of the rule built from these moments."""
    rule = build_rule(m, p0, p1)
    s0, s1 = math.sqrt(m.s0sq), math.sqrt(m.s1sq)
    if rule.case_id == 3:
        g = rule.gamma_single
        if not math.isfinite(g):
            t1 = 1.0 if g == -math.inf else 0.0
            t2 = 0.0 if g == -math.inf else 1.0
        elif rule.alt_on_high:
            t1 = 1.0 - normal_cdf((g - m.mu0) / s0)
            t2 = normal_cdf((g - m.mu1) / s1)
        else:
            t1 = normal_cdf((g - m.mu0) / s0)
            t2 = 1.0 - normal_cdf((g - m.mu1) / s1)
    elif rule.case_id == 1:
        if rule.delta <= 0:
            t1, t2 = 0.0, 1.0
        else:
            t1 = _interval_mass(rule.gamma_lo, rule.gamma_hi, m.mu0, s0)
            t2 = 1.0 - _interval_mass(rule.gamma_lo, rule.gamma_hi, m.mu1, s1)
    else:
        if rule.delta <= 0:
            t1, t2 = 1.0, 0.0
        else:
            t1 = 1.0 - _interval_mass(rule.gamma_lo, rule.gamma_hi, m.mu0, s0)
            t2 = _interval_mass(rule.gamma_lo, rule.gamma_hi, m.mu1, s1)
    return ErrorReport(p_err=t1 * p0 + t2 * p1, p_type1=t1, p_type2=t2)


def p_err(problem: TestProblem, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> ErrorReport:
    """Overall error probability of the MAP rule for this problem."""
    return error_report(moments(problem, cfg), problem.p0, problem.p1)


@dataclass(frozen=True)
class SurfaceCell:
    theta1: float
    eps: float
    case_id: Optional[int]
    delta: Optional[float]
    gamma_lo: Optional[float]
    gamma_hi: Optional[float]
    p_err: float
    failed: bool = False
    skipped: bool = False


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
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[SurfaceCell]:
    """Error probability over a (theta1, eps) grid.

    Cells violating theta0 < theta1 < tau are skipped with a flag; cells
    whose variance quadrature degenerates are flagged as failed with NaN.
    Null-hypothesis moments are cached per noise level since they do not
    depend on theta1.
    """
    cells: list[SurfaceCell] = []
    for eps in eps_grid:
        ch = ChannelConfig(tau=tau, eps=float(eps), law=law)
        try:
            if scheme == "time":
                mu0 = time_fraction_limit(theta0, ch)
                v0 = edf_variance(ch.gap_ratio(theta0), law, law.spec.diffusion, cfg) / horizon
            else:
                mu0 = energy_limit(theta0, ch, cfg)
                v0 = energy_statistic_variance(theta0, ch, cfg) / horizon
            null_ok = True
        except QuadratureFailure:
            null_ok = False
        for theta1 in theta1_grid:
            theta1 = float(theta1)
            if not theta0 < theta1 < tau:
                cells.append(
                    SurfaceCell(theta1, float(eps), None, None, None, None, math.nan, skipped=True)
                )
                continue
            if not null_ok:
                cells.append(
                    SurfaceCell(theta1, float(eps), None, None, None, None, math.nan, failed=True)
                )
                continue
            try:
                if scheme == "time":
                    mu1 = time_fraction_limit(theta1, ch)
                    v1 = edf_variance(ch.gap_ratio(theta1), law, law.spec.diffusion, cfg) / horizon
                else:
                    mu1 = energy_limit(theta1, ch, cfg)
                    v1 = energy_statistic_variance(theta1, ch, cfg) / horizon
            except QuadratureFailure:
                cells.append(
                    SurfaceCell(theta1, float(eps), None, None, None, None, math.nan, failed=True)
                )
                continue
            m = GaussianMoments(mu0=mu0, mu1=mu1, s0sq=v0, s1sq=v1)
            rule = build_rule(m, p0, p1)
            report = error_report(m, p0, p1)
            cells.append(
                SurfaceCell(
                    theta1=theta1,
                    eps=float(eps),
                    case_id=rule.case_id,
                    delta=rule.delta,
                    gamma_lo=rule.gamma_lo,
                    gamma_hi=rule.gamma_hi,
                    p_err=report.p_err,
                )
            )
    return cells


@dataclass(frozen=True)
class PerrMinimum:
    eps_star: float
    p_err_min: float
    local_minima: list[tuple[float, float]]
    n_failed: int


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
    grid_n: int = 64,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> PerrMinimum:
    """Minimize the overall error probability over the noise level.

    Degenerate noise levels evaluate to min(p0, p1), the error of guessing
    by prior alone, which is both the genuine limit at the bracket edges and
    never spuriously optimal.  All interior local minima are reported.
    """
    if bracket.lo <= 0:
        raise ValueError("noise bracket must be positive")
    ceiling = min(p0, p1)
    failures = [0]

    def objective(eps: float) -> float:
        problem = TestProblem(
            theta0=theta0,
            theta1=theta1,
            p0=p0,
            p1=p1,
            tau=tau,
            eps=eps,
            horizon=horizon,
            law=law,
            scheme=scheme,
        )
        try:
            return -p_err(problem, cfg).p_err
        except QuadratureFailure:
            failures[0] += 1
            return -ceiling

    result = maximize_scalar(objective, bracket, grid_n=grid_n, tol=tol)
    local = [(x, -v) for x, v in result.local_maxima]
    if not local:
        local = [(result.x_star, -result.h_star)]
    return PerrMinimum(
        eps_star=result.x_star,
        p_err_min=-result.h_star,
        local_minima=local,
        n_failed=failures[0],
    )
