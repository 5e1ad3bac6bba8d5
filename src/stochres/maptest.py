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
and the raw variance divided by the horizon.  It takes an array of signal
values beside the noise levels, so the whole error surface, each scan of
``find_perr_minimum`` (the coarse scan and the scans that refine each dip)
and each ``moments`` call take one table lookup for both hypotheses, and
no other read of the tables.  A single noise level is an array of one.  An
unknown scheme raises ValueError there.

One core on Python floats (``_cell``) evaluates the rule and the error of
each cell, and the public ``build_rule``, ``error_report`` and ``p_err``
wrap it, so the formulas exist once.  The core builds the public records
themselves, a ``DecisionRule`` and the ``p_err`` ``ErrorReport`` of each
cell (both NamedTuples), so a scan, the surface and ``p_err`` read one
record of each.  A cell whose cuts
underflow (both terms of the far cut round to 0, so the near cut would
divide by 0) fails, like one whose variance fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

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
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the widest interval, as width times max(1, |midpoint|) in standard
# deviations, whose mass is formed from its midpoint (see ``_mass``)
_NARROW = 1.0

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


def _check_priors(p0: float, p1: float) -> None:
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0):
        raise ValueError("priors must lie strictly inside (0, 1)")
    if abs(p0 + p1 - 1.0) > 1e-12:
        raise ValueError("priors must sum to 1")


@dataclass(frozen=True)
class TestProblem:
    """Two simple hypotheses theta0 < theta1 < tau with prior weights.

    theta0, tau, eps and the horizon must be finite, eps and the horizon
    positive.  The scheme is checked where the moments are read
    (``statistic_at``).
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
        _check_priors(self.p0, self.p1)
        if not (math.isfinite(self.theta0) and math.isfinite(self.tau)):
            raise ValueError("theta0 and tau must be finite")
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


class DecisionRule(NamedTuple):
    """Interval form of the posterior comparison, an immutable NamedTuple.

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


class ErrorReport(NamedTuple):
    """Overall error probability and its two conditional components, an
    immutable NamedTuple.

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


def _lookup(thetas: list[float], tau: float, eps: np.ndarray, horizon: float, law: InvariantLaw,
            scheme: Scheme) -> tuple[list, list, list]:
    """Mean and variance of the statistic at each signal value (a row) and
    each entry of an array of noise levels (a column), and the mask of the
    cells whose variance fails (see ``statistic_at``), as nested lists of
    Python floats: one table lookup for all the rows."""
    n = len(eps)
    _, _, mu, var, failed = statistic_at(np.repeat(np.array(thetas, dtype=float), n), tau,
                                         np.tile(eps, len(thetas)), law, scheme)
    var = var / horizon
    failed = failed | not_finite_above(var)
    return tuple(v.reshape(len(thetas), n).tolist() for v in (mu, var, failed))


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
    mu, var, failed = _lookup([problem.theta0, problem.theta1], problem.tau, np.array([problem.eps]),
                              problem.horizon, problem.law, problem.scheme)
    (mu0,), (mu1,) = mu
    (v0,), (v1,) = var
    if failed[0][0] or failed[1][0]:
        raise QuadratureFailure(f"statistic variance degenerates at eps={problem.eps} (variances {v0}, {v1})")
    return GaussianMoments(mu0=mu0, mu1=mu1, s0sq=v0, s1sq=v1)


# The core on Python floats (see the module docstring).


def _rule(mu0: float, mu1: float, s0sq: float, s1sq: float, p0: float, p1: float,
          sd0: float, sd1: float) -> Optional[DecisionRule]:
    """``build_rule`` with the standard deviations sd_i = sqrt(s_i^2); None
    where the cuts underflow (see ``build_rule``)."""
    if abs(s0sq - s1sq) <= _VAR_EQUAL_RTOL * max(s0sq, s1sq):
        if mu1 == mu0:
            # identical Gaussians: pick the larger prior everywhere
            gamma = math.inf if p0 >= p1 else -math.inf
        else:
            # posterior-equality point; valid for either mean ordering
            gamma = (mu1**2 - mu0**2 + 2.0 * s0sq * math.log(p0 / p1)) / (2.0 * (mu1 - mu0))
        return DecisionRule(3, gamma_single=gamma, alt_on_high=mu1 >= mu0)
    case_id = 1
    if s1sq > s0sq:
        # the same cuts with the hypotheses swapped; D1 now lies outside them
        mu0, mu1, s0sq, s1sq, p0, p1, sd0, sd1, case_id = mu1, mu0, s1sq, s0sq, p1, p0, sd1, sd0, 2
    s2sq = s0sq - s1sq
    log_ratio = math.log(p0 * sd1 / (p1 * sd0))
    delta = (mu0 - mu1) ** 2 - 2.0 * s2sq * log_ratio
    if delta <= 0:
        return DecisionRule(case_id, delta)
    # the cuts are the roots (b -+ root)/s2sq of s2sq g^2 - 2 b g + c; the far
    # one adds root to b with the sign of b, and the near one comes from the
    # product of the roots, c/s2sq, as b - sign(b) root would cancel
    b = mu1 * s0sq - mu0 * s1sq
    c = mu1**2 * s0sq - mu0**2 * s1sq + 2.0 * s0sq * s1sq * log_ratio
    q = b + math.copysign(sd0 * sd1 * math.sqrt(delta), b)
    if q == 0.0:
        return None
    far, near = q / s2sq, c / q
    return DecisionRule(case_id, delta, min(far, near), max(far, near))


def _d1_interval(rule: DecisionRule) -> tuple[float, float, bool]:
    """(lo, hi, inside) of a rule: it decides D1 exactly where lo < s < hi
    holds (inside) or fails (outside).  A negative discriminant is the
    empty interval (inf, inf)."""
    if rule.case_id == 3:
        g = rule.gamma_single
        return (g, math.inf, True) if rule.alt_on_high else (-math.inf, g, True)
    lo, hi = (rule.gamma_lo, rule.gamma_hi) if rule.delta > 0 else (math.inf, math.inf)
    return lo, hi, rule.case_id == 1


def _mass(lo: float, hi: float, inside: bool, mu: float, sd: float) -> float:
    """Gaussian mass inside or outside (lo, hi), summed from its own tails
    (the upper ones for an interval above the mean).

    Inside an interval of width w whose midpoint lies m standard deviations
    from the mean, the two tails cancel, losing a digit per decade that
    w max(1, |m|) falls below 1.  Where that product is at most
    ``_NARROW`` (1), the mass is the series of the density about the
    midpoint, w phi(m) sum_k He_2k(m) (w/2)^2k / (2k+1)!, to eight terms,
    He_n being the probabilists' Hermite polynomials; its first omitted
    term is below 1e-13 relative there.
    """
    a, b = (lo - mu) / sd, (hi - mu) / sd
    if not inside:
        return normal_cdf(a) + normal_cdf(-b)
    w, m = (hi - lo) / sd, ((lo + hi) / 2 - mu) / sd
    if w * max(1.0, abs(m)) <= _NARROW:
        # He_n+1 = m He_n - n He_n-1 gives the even He_2k, each step from the
        # odd one before it; c is (w/2)^2k / (2k+1)!
        even, odd, c, total = 1.0, m, 1.0, 1.0
        for n in range(1, 15, 2):
            even = m * odd - n * even
            odd = m * even - (n + 1) * odd
            c *= w * w / (4 * (n + 1) * (n + 2))
            total += even * c
        return w * math.exp(-m * m / 2) / _SQRT_2PI * total
    return normal_cdf(b) - normal_cdf(a) if a <= 0 else normal_cdf(-a) - normal_cdf(-b)


def _errors(rule: DecisionRule, mu0: float, mu1: float, sd0: float, sd1: float, p0: float,
            p1: float) -> tuple[float, float, float]:
    """(p_err, p_type1, p_type2) of a rule: the null mass of its D1 set, the
    alternative mass of the complement, and their prior-weighted sum."""
    lo, hi, inside = _d1_interval(rule)
    t1 = _mass(lo, hi, inside, mu0, sd0)
    t2 = _mass(lo, hi, not inside, mu1, sd1)
    return t1 * p0 + t2 * p1, t1, t2


def _cell(mu0: float, mu1: float, s0sq: float, s1sq: float, p0: float, p1: float) -> Optional[ErrorReport]:
    """The ``p_err`` report of these moments (the prior guess where they are
    degenerate); None where the cuts underflow."""
    sd0, sd1 = math.sqrt(s0sq), math.sqrt(s1sq)
    z0, z1 = mu0 / sd0, mu1 / sd1
    if z0 > DEGENERATE_Z or z1 > DEGENERATE_Z:
        rule = _rule(mu0, mu1, s0sq, s1sq, p0, p1, sd0, sd1)
        return None if rule is None else ErrorReport(*_errors(rule, mu0, mu1, sd0, sd1, p0, p1), rule=rule)
    # always decide for the larger prior
    t1, t2 = (0.0, 1.0) if p0 >= p1 else (1.0, 0.0)
    reason = (f"Gaussian approximation reaches the statistic's boundary 0 under both "
              f"hypotheses: z0={z0:.3g}, z1={z1:.3g} <= {DEGENERATE_Z:g}")
    return ErrorReport(t1 * p0 + t2 * p1, t1, t2, degenerate=True, reason=reason)


def _cuts_underflow(m: GaussianMoments) -> QuadratureFailure:
    return QuadratureFailure(
        f"MAP rule cuts underflow (the near cut would divide by 0) at mu0={m.mu0}, mu1={m.mu1}, "
        f"s0sq={m.s0sq}, s1sq={m.s1sq}"
    )


def build_rule(m: GaussianMoments, p0: float, p1: float) -> DecisionRule:
    """Translate the posterior comparison into interval thresholds.

    Near-equal variances (relative difference below 1e-12) use the single-cut
    case: the two-cut formulas divide by the variance difference and lose all
    precision there, while the single cut is their well-defined limit.  Case 2
    runs the case-1 formulas on the relabelled hypotheses.  Raises
    QuadratureFailure where the cuts underflow: the linear term and the
    root of the discriminant both round to 0 (variances near the smallest
    double, as at T = 1e300), so the near cut would be c/0.
    """
    rule = _rule(m.mu0, m.mu1, m.s0sq, m.s1sq, p0, p1, math.sqrt(m.s0sq), math.sqrt(m.s1sq))
    if rule is None:
        raise _cuts_underflow(m)
    return rule


def decide(rule: DecisionRule, statistic: float) -> Decision:
    """Apply the interval rule; D1 means the alternative wins the posterior."""
    lo, hi, inside = _d1_interval(rule)
    return Decision.D1 if (lo < statistic < hi) == inside else Decision.D0


def error_report(m: GaussianMoments, p0: float, p1: float) -> ErrorReport:
    """Conditional error probabilities of the rule built from these moments."""
    rule = build_rule(m, p0, p1)
    sd0, sd1 = math.sqrt(m.s0sq), math.sqrt(m.s1sq)
    return ErrorReport(*_errors(rule, m.mu0, m.mu1, sd0, sd1, p0, p1), rule=rule)


def p_err(problem: TestProblem) -> ErrorReport:
    """Overall error probability of the MAP rule for this problem.

    With z_i = mu_i / s_i, a noise level where z0 <= 2 and z1 <= 2
    (``DEGENERATE_Z``) is degenerate: the path rarely crosses the threshold
    under either hypothesis, and the Gaussian tails would report an error
    near 0 where Monte Carlo measures about min(p0, p1).  The report is then
    the prior-guess error min(p0, p1), with the components of always
    deciding for the larger prior, ``degenerate`` set and both z values in
    ``reason``.  Raises QuadratureFailure where either variance cannot be
    evaluated (see ``moments``) or the rule's cuts underflow (see
    ``build_rule``).
    """
    m = moments(problem)
    report = _cell(m.mu0, m.mu1, m.s0sq, m.s1sq, problem.p0, problem.p1)
    if report is None:
        raise _cuts_underflow(m)
    return report


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
    degenerate follow the rule of ``p_err`` and are flagged as degenerate;
    a cell whose rule cuts underflow is failed too.  The moments of the
    null row and of every theta1 row are one table lookup.  Raises
    ValueError unless theta0 and tau are finite, the noise levels positive
    and finite, the horizon positive and finite and the priors as in
    ``TestProblem``.
    """
    eps = np.array([float(e) for e in eps_grid])
    if not (math.isfinite(theta0) and math.isfinite(tau)):
        raise ValueError("theta0 and tau must be finite")
    _check_horizon(horizon)
    _check_priors(p0, p1)
    if not (np.all(eps > 0.0) and np.all(np.isfinite(eps))):
        raise ValueError("eps must be positive and finite")
    theta1s = [float(t) for t in theta1_grid]
    alternatives = [t for t in theta1s if theta0 < t < tau]
    moments_ = _lookup([theta0, *alternatives], tau, eps, horizon, law, scheme)
    alt_rows = (_cells(moments_, k, p0, p1) for k in range(1, len(alternatives) + 1))
    # (theta1, its cells per noise level, or None where skipped)
    rows = [(theta1, next(alt_rows) if theta0 < theta1 < tau else None) for theta1 in theta1s]
    cells: list[SurfaceCell] = []
    for k, e in enumerate(eps.tolist()):
        for theta1, row in rows:
            if row is None:
                cells.append(SurfaceCell(theta1, e, None, None, None, None, math.nan, skipped=True))
            elif row[k] is None:
                cells.append(SurfaceCell(theta1, e, None, None, None, None, math.nan, failed=True))
            elif row[k].degenerate:
                cells.append(SurfaceCell(theta1, e, None, None, None, None, row[k].p_err, degenerate=True))
            else:
                rule = row[k].rule
                cells.append(SurfaceCell(theta1, e, rule.case_id, rule.delta, rule.gamma_lo, rule.gamma_hi,
                                         row[k].p_err))
    return cells


def _cells(moments_: tuple[list, list, list], k: int, p0: float, p1: float) -> list[Optional[ErrorReport]]:
    """The ``_cell`` at each noise level of row k of ``_lookup`` against row
    0, the null; None where either variance fails or the cuts underflow."""
    mu, var, failed = moments_
    return [
        None if failed0 or failed1 else _cell(mu0, mu1, v0, v1, p0, p1)
        for mu0, v0, failed0, mu1, v1, failed1 in zip(mu[0], var[0], failed[0], mu[k], var[k], failed[k])
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

    Degenerate noise levels and failed ones (a variance or the rule's cuts
    cannot be evaluated; see ``p_err``) evaluate to min(p0, p1), the error
    of guessing by prior alone, which is both the genuine limit at the
    bracket edges and never spuriously optimal.
    ``local_minima`` lists the interior local minima of a scan of
    ``SCAN_CELLS`` cells.  Two kinds of minimum are dropped: one within a
    scan cell of either bracket end, which is the edge of the search and not
    a dip, and one with a degenerate scan level within a scan cell, which
    sits where the Gaussian approximation starts.  The list may be empty.
    ``eps_star`` is the lowest error found, dropped minima and bracket
    endpoints included.  Raises ValueError unless theta0 < theta1 < tau with
    theta0 and tau finite, the horizon is positive and finite and the priors
    are as in ``TestProblem``.
    """
    if not (theta0 < theta1 < tau and math.isfinite(theta0) and math.isfinite(tau)):
        raise ValueError("need theta0 < theta1 < tau, with theta0 and tau finite")
    _check_horizon(horizon)
    _check_priors(p0, p1)
    if bracket.lo <= 0:
        raise ValueError("noise bracket must be positive")
    ceiling = min(p0, p1)

    def scan_cells(eps: np.ndarray) -> list[Optional[ErrorReport]]:
        return _cells(_lookup([theta0, theta1], tau, eps, horizon, law, scheme), 1, p0, p1)

    def values(cells: list[Optional[ErrorReport]]) -> list[float]:
        return [-ceiling if c is None else -c.p_err for c in cells]

    scan = scan_points(bracket)
    row = scan_cells(scan)
    result = maximize_scalar(lambda eps: values(scan_cells(eps)), bracket, tol=tol, scan=values(row))
    degenerate = [eps for eps, c in zip(scan.tolist(), row) if c is not None and c.degenerate]
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
        n_failed=sum(c is None for c in row),
        n_degenerate=len(degenerate),
        endpoints=(row[0], row[-1]),
    )
