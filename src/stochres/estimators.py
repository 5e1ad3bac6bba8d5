"""Statistical core: forward maps of the two observation schemes, their
inverses (the signal estimators), and the asymptotic variances with the
associated Fisher information.

Scheme conventions used throughout:

* time scheme: the statistic is the fraction of time the perturbed signal
  theta + eps*X spends above the threshold tau.  Its long-run value is
  sf((tau - theta)/eps) under the stationary law of X.
* energy scheme: the statistic is the time average of Y^2 restricted to
  Y > tau.  Its long-run value, slope and asymptotic variance follow from
  truncated moments of the stationary law.

Both schemes expose a VarianceReport whose ``fisher`` field (the reciprocal
asymptotic variance) is the objective maximized over the noise level.

Every law-dependent quantity is read from the law's cumulative tables
(``InvariantLaw.tables``), so each costs O(1) per noise level and the same
code serves every law.  A table lookup takes an array of gaps, and each
per-noise-level formula has one form (the ``*_at`` functions): it takes an
array of noise levels and returns the values with a per-point ``failed``
mask, so a curve or a scan over the noise level is one lookup.  A scalar
function evaluates that form on an array of one point and raises
QuadratureFailure where its mask is set.

Both schemes share one such form, ``statistic_at``: from one lookup at the
gaps it gives the statistic's long-run mean, its raw asymptotic variance
and the failed mask, and it checks the scheme's name (an unknown one
raises ValueError).  The Fisher information (``fisher_at``), the MAP
test's moments and the two variance forms ``edf_variance_at`` and
``energy_statistic_variance_at`` all read it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DegenerateObservation, OutOfRange, QuadratureFailure
from .laws import InvariantLaw
from .numerics import _brent, integrate_line, not_finite_above

__all__ = [
    "ChannelConfig",
    "VarianceReport",
    "time_fraction_limit",
    "estimate_theta_time",
    "estimate_theta_time_at",
    "edf_variance",
    "edf_variance_at",
    "time_scheme_variance",
    "time_scheme_variance_ou_reference",
    "energy_limit",
    "energy_limit_at",
    "energy_limit_closed_form",
    "energy_limit_quadrature",
    "energy_limit_derivative",
    "energy_limit_derivative_at",
    "energy_limit_derivative_closed_form",
    "energy_limit_derivative_quadrature",
    "estimate_theta_energy",
    "estimate_theta_energy_at",
    "energy_statistic_variance",
    "energy_statistic_variance_at",
    "energy_scheme_variance",
    "statistic_at",
    "fisher_at",
]

_SQRT_PI = math.sqrt(math.pi)
# the largest double whose reciprocal overflows: 1/x is finite for every
# double x above it
_NO_RECIPROCAL = 1.0 / sys.float_info.max

Scheme = Literal["time", "energy"]


@dataclass(frozen=True)
class ChannelConfig:
    """Detector threshold, noise level and stationary noise law."""

    tau: float
    eps: float
    law: InvariantLaw

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")

    def gap_ratio(self, theta: float) -> float:
        """Standardized distance (tau - theta)/eps of the signal from the threshold."""
        return (self.tau - theta) / self.eps


@dataclass(frozen=True)
class VarianceReport:
    """Asymptotic variance of an estimator and its reciprocal (Fisher information)."""

    value: float
    fisher: float
    scheme: Scheme

    def __post_init__(self) -> None:
        if not (self.value > 0 and self.fisher > 0):
            raise ValueError("variance and fisher information must be positive")


# ---------------------------------------------------------------------------
# time scheme
# ---------------------------------------------------------------------------


def time_fraction_limit(theta: float, ch: ChannelConfig) -> float:
    """Long-run fraction of time the perturbed signal spends above the threshold."""
    return float(ch.law.sf(ch.gap_ratio(theta)))


def estimate_theta_time_at(fractions: np.ndarray, ch: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``estimate_theta_time``: the estimate at each entry of
    an array of time fractions, from one inverse of the law's sf over them
    (``LawTables.inverse``), and the mask of the degenerate entries (a
    fraction not strictly between 0 and 1), whose estimate is NaN.  sf is
    solved at the fraction itself, or F at 1 - fraction above 1/2, so a
    fraction as small as 2^-62 keeps its estimate."""
    fractions = np.asarray(fractions, dtype=float)
    degenerate = ~((fractions > 0.0) & (fractions < 1.0))
    theta = np.full(fractions.shape, np.nan)
    theta[~degenerate] = ch.tau - ch.eps * ch.law.tables.inverse(fractions[~degenerate], True)
    return theta, degenerate


def estimate_theta_time(time_fraction: float, ch: ChannelConfig) -> float:
    """Invert the time-fraction map: theta = tau - eps * sf^-1(fraction).

    Raises DegenerateObservation at fraction 0 or 1, where the inverse
    escapes to -inf or +inf; callers decide the policy for finite samples
    that hit the boundary.  This is ``estimate_theta_time_at`` on an array
    of one.
    """
    theta, degenerate = estimate_theta_time_at(np.array([time_fraction]), ch)
    if degenerate[0]:
        raise DegenerateObservation(
            f"time fraction {time_fraction} admits no finite estimate"
        )
    return float(theta[0])


def _only(values: np.ndarray, failed: np.ndarray, what: str) -> float:
    """An array form's value at its one point; QuadratureFailure (``what``) where it failed."""
    if failed[0]:
        raise QuadratureFailure(f"{what} (value {float(values[0])})")
    return float(values[0])


def edf_variance_at(x: np.ndarray, law: InvariantLaw) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``edf_variance``: V at each entry of an array, in one
    table lookup, and the mask of the points where it fails: outside the
    tabulated support (V is NaN), or V not finite and positive (next to a
    support edge, where sf or F underflows).
    """
    # the gap (x - 0)/1 is x itself
    return statistic_at(0.0, np.asarray(x, dtype=float), 1.0, law, "time")[3:]


def edf_variance(x: float, law: InvariantLaw, sigma_fn: Callable[[float], float]) -> float:
    """Asymptotic variance of the empirical distribution function at x.

    V(x) = 4 E[(F(xi ^ x) (1 - F(xi v x)) / (sigma(xi) f(xi)))^2], the
    reciprocal of the Fisher-type information for distribution function
    estimation from an ergodic path.  Split at x it is
    4 [sf(x)^2 A(x) + F(x)^2 B(x)] with the law's tables
    A(x) = int_{-inf}^x F^2/(sigma^2 f) and B(x) = int_x^inf sf^2/(sigma^2 f);
    both products are formed in logs so far tails stay inside double range.

    ``sigma_fn`` must be the law's own diffusion coefficient, which the
    tables already contain; any other function raises ValueError.  Raises
    QuadratureFailure when x lies outside the law's tabulated support or V
    is not finite and positive there.
    """
    if sigma_fn is not law.spec.diffusion:
        raise ValueError("sigma_fn must be the law's diffusion coefficient law.spec.diffusion")
    lo, hi = law.tables.support
    return _only(*edf_variance_at(np.array([x]), law),
                 f"V is not finite and positive at x={x:.6g} "
                 f"(tabulated support ({lo:.6g}, {hi:.6g}))")


def fisher_at(theta: float, tau: float, eps: np.ndarray, law: InvariantLaw, scheme: Scheme):
    """Fisher information of either scheme at each entry of an array of
    noise levels, in one table lookup, and the mask of the levels where it
    fails (see ``time_scheme_variance`` and ``energy_scheme_variance``).
    """
    a, m, _, raw, failed = statistic_at(theta, tau, eps, law, scheme)
    f_a = law.f(a)
    if scheme == "time":
        # (f/(eps sqrt V))^2 stays finite where f and V underflow separately;
        # where f is 0 the information is 0, which the mask below flags
        num, den = f_a, eps * np.sqrt(raw)
    else:
        num, den = _energy_slope(theta, tau, eps, f_a, m), np.sqrt(raw)
        failed = failed | not_finite_above(num)
    # a failed entry may divide by 0 or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = num / den
        fisher = q * q
    return fisher, failed | not_finite_above(fisher, _NO_RECIPROCAL)


def _variance_report(theta: float, ch: ChannelConfig, scheme: Scheme) -> VarianceReport:
    fisher = _only(*fisher_at(theta, ch.tau, np.array([ch.eps]), ch.law, scheme),
                   f"{scheme}-scheme variance degenerates or its fisher information is not "
                   f"representable at theta={theta}, eps={ch.eps}")
    return VarianceReport(value=1.0 / fisher, fisher=fisher, scheme=scheme)


def time_scheme_variance(theta: float, ch: ChannelConfig) -> VarianceReport:
    """Asymptotic variance of the time-scheme estimator, by the delta method.

    Sigma(theta) = eps^2 V(a) / f(a)^2 with a = (tau - theta)/eps.  The
    Fisher information is assembled as (f(a) / (eps sqrt(V)))^2 so that
    regimes where both f and V underflow separately still produce a finite
    positive result whenever one is representable.  Raises
    QuadratureFailure where it is not, or where a lies outside the law's
    tabulated support.
    """
    return _variance_report(theta, ch, "time")


def time_scheme_variance_ou_reference(theta: float, tau: float, eps: float) -> float:
    """Textbook closed-form variance for the Gaussian noise law, kept as a
    cross-check.

    eps^2 pi^{3/2} e^{2a^2} * integral (1+erf(xi^a))^2 (1-erf(xi v a))^2
    e^{xi^2} dxi.  This expression differs from the generic pipeline by a
    constant factor (see the ratio test in the suite); the location of its
    maximum over eps is identical, which is what matters for resonance.
    The integrand is grouped as (u * erfc * e^{xi^2/2})^2 to avoid transient
    overflow in the tails.
    """
    a = (tau - theta) / eps
    if 2.0 * a * a > 700.0:
        raise QuadratureFailure("reference variance overflows for this gap ratio")

    def integrand(xi: float) -> float:
        if xi < a:
            s = (1.0 + math.erf(xi)) * math.erfc(a) * math.exp(min(xi * xi, 700.0) / 2.0)
        else:
            s = (1.0 + math.erf(a)) * math.erfc(xi) * math.exp(min(xi * xi, 700.0) / 2.0)
        return s * s

    I = integrate_line(integrand, split_at=(a,))
    return eps * eps * math.pi**1.5 * math.exp(2.0 * a * a) * I


# ---------------------------------------------------------------------------
# energy scheme
# ---------------------------------------------------------------------------


def _energy_weights(theta, eps, tail=0.0) -> np.ndarray:
    """Coefficients of (eps*xi + theta)^2 on the powers xi^0, xi^1, xi^2,
    less ``tail`` on xi^0: one contiguous row per entry of theta and eps,
    which broadcast.

    Dotted with the upper moments m_k(x) they give the truncated energy
    tail(x) = E[(eps*xi + theta)^2 1{xi > x}].
    """
    w = np.empty(np.broadcast_shapes(np.shape(theta), np.shape(eps)) + (3,))
    w[..., 0] = theta * theta - tail
    w[..., 1] = 2.0 * theta * eps
    w[..., 2] = eps * eps
    return w


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis.  Each row is one BLAS dot of three entries,
    so a row gives the same bits in an array of one point as in a longer one
    (numpy's elementwise sum rounds differently)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _quadratic_form(c: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """c . nu . c over the last axes, row by row."""
    return (c[..., None, :] @ nu @ c[..., :, None])[..., 0, 0]


def energy_limit_closed_form(theta: float, ch: ChannelConfig) -> float:
    """Long-run energy for the Gaussian noise law, in closed form (test oracle).

    ((eps^2 + 2 theta^2) erfc(a) + 2 eps (theta + tau) e^{-a^2}/sqrt(pi))/4,
    written with erfc so the deep subthreshold regime does not cancel.
    """
    a = ch.gap_ratio(theta)
    e = math.exp(-a * a) if a * a < 700.0 else 0.0
    return 0.25 * (
        (ch.eps * ch.eps + 2.0 * theta * theta) * math.erfc(a)
        + 2.0 * ch.eps * (theta + ch.tau) * e / _SQRT_PI
    )


def energy_limit_quadrature(theta: float, ch: ChannelConfig) -> float:
    """Long-run energy for an arbitrary law, as truncated moments by adaptive
    quadrature (test oracle).

    eps^2 E[xi^2 1{xi>a}] + theta^2 sf(a) + 2 theta eps E[xi 1{xi>a}].
    """
    a = ch.gap_ratio(theta)

    def moment(power: int) -> float:
        def integrand(xi: float) -> float:
            if xi <= a:
                return 0.0
            return xi**power * float(ch.law.f(xi))

        return integrate_line(integrand, split_at=(a,))

    return (
        ch.eps * ch.eps * moment(2)
        + theta * theta * float(ch.law.sf(a))
        + 2.0 * theta * ch.eps * moment(1)
    )


def energy_limit_at(theta, tau: float, eps, law: InvariantLaw) -> np.ndarray:
    """Array form of ``energy_limit`` at each entry of an array of noise
    levels, or of signals, or of both (they broadcast); it has no failure
    condition."""
    a = (tau - theta) / eps
    return _dot(_energy_weights(theta, eps), np.ascontiguousarray(law.tables.upper_moments(a).T))


def energy_limit(theta: float, ch: ChannelConfig) -> float:
    """Long-run value of the energy statistic; increasing in theta below tau.

    E[(eps*xi + theta)^2 1{xi > a}] with a = (tau - theta)/eps, a fixed
    combination of the law's upper moments at a.
    """
    return float(energy_limit_at(theta, ch.tau, np.array([ch.eps]), ch.law)[0])


def energy_limit_derivative_closed_form(theta: float, ch: ChannelConfig) -> float:
    """Slope of the energy map for the Gaussian noise law (test oracle)."""
    a = ch.gap_ratio(theta)
    e = math.exp(-a * a) if a * a < 700.0 else 0.0
    return theta * math.erfc(a) + (ch.eps * ch.eps + ch.tau * ch.tau) * e / (ch.eps * _SQRT_PI)


def energy_limit_derivative_quadrature(theta: float, ch: ChannelConfig) -> float:
    """Slope of the energy map for an arbitrary law, by adaptive quadrature
    (test oracle).

    tau^2 f(a)/eps + 2 theta sf(a) + 2 eps E[xi 1{xi>a}].
    """
    a = ch.gap_ratio(theta)

    def integrand(xi: float) -> float:
        if xi <= a:
            return 0.0
        return xi * float(ch.law.f(xi))

    m1 = integrate_line(integrand, split_at=(a,))
    return (
        ch.tau * ch.tau * float(ch.law.f(a)) / ch.eps
        + 2.0 * theta * float(ch.law.sf(a))
        + 2.0 * ch.eps * m1
    )


def _energy_slope(theta: float, tau: float, eps: np.ndarray, f_a: np.ndarray, m: np.ndarray):
    """tau^2 f(a)/eps + 2 theta m_0(a) + 2 eps m_1(a), from the density at
    the gap and the upper moments there (last axis)."""
    return tau * tau * f_a / eps + 2.0 * theta * m[..., 0] + 2.0 * eps * m[..., 1]


def energy_limit_derivative_at(theta: float, tau: float, eps: np.ndarray, law: InvariantLaw):
    """Array form of ``energy_limit_derivative`` at each entry of an array of
    noise levels; it has no failure condition."""
    a = (tau - theta) / eps
    return _energy_slope(theta, tau, eps, law.f(a), law.tables.upper_moments(a).T)


def energy_limit_derivative(theta: float, ch: ChannelConfig) -> float:
    """Slope of the energy map: tau^2 f(a)/eps + 2 theta sf(a) + 2 eps E[xi 1{xi>a}]."""
    return float(energy_limit_derivative_at(theta, ch.tau, np.array([ch.eps]), ch.law)[0])


def estimate_theta_energy_at(energies: np.ndarray, ch: ChannelConfig) -> np.ndarray:
    """Array form of ``estimate_theta_energy``: the estimate at each entry
    of an array of energies.

    The node tables give the map at the signal level tau - eps*x_k of every
    table node x_k, where it decreases in k.  One search gives each entry
    the first node whose value falls to it or below, and its bracket is the
    three node panels around that node: one panel of margin on each side of
    the panel that holds the root, so the forward map, looked up once at
    both ends of every bracket, changes sign there.  At either end of the
    table the margin is the panel past its last node, where the map holds
    the table's end value, and every bracket reaches two doubles past its
    end levels.  An energy at or above the map's value at the first node
    has its root where the map is the quadratic of the table's full
    moments, and its upper end comes from that quadratic.  One array root
    find then solves every bracket, one lookup per iteration.  Raises
    ValueError for tau <= 0, where the map is not monotone, and otherwise
    what a loop of ``estimate_theta_energy`` over the entries raises: the
    error of the first entry that fails.
    """
    if not ch.tau > 0.0:
        raise ValueError("the energy map is monotone only for tau > 0")
    energies = np.asarray(energies, dtype=float)
    x, m = ch.law.tables.x, ch.law.tables.m
    # the signal level at each node and one panel past either end
    levels = ch.tau - ch.eps * np.r_[2.0 * x[0] - x[1], x, 2.0 * x[-1] - x[-2]]
    at_nodes = _dot(_energy_weights(levels[1:-1], ch.eps), m.T)
    theta = np.full(energies.shape, np.nan)
    # past a quarter of the largest double the upper end below would make
    # the map overflow
    top = np.finfo(float).max / 4.0
    # a negative energy, 0, NaN or one above the top: the entries before the
    # first are solved, as a loop meets its error first
    failed = np.flatnonzero(~((energies > 0.0) & (energies <= top)))[:1].tolist()
    solved = energies[: failed[0] if failed else None]
    if solved.size:
        # node k is level k + 1; the root lies between nodes k - 1 and k
        k = (-at_nodes).searchsorted(-solved)
        lo, hi = levels[k + 2], levels[np.maximum(k - 1, 0)]
        # at or above the map's value at the first node the map is the
        # quadratic Q = m_0 theta^2 + 2 eps m_1 theta + eps^2 m_2 of the table's
        # full moments, and Q(levels[1] + s) >= Q(levels[1]) + m_0 s^2 there,
        # so s = sqrt(2 energy / m_0) puts the upper end past the root
        hi = np.where(k == 0, np.maximum(hi, levels[1] + np.sqrt(2.0 / m[0, 0]) * np.sqrt(solved)), hi)
        # two doubles more on each side: at an eps so small that eps times a
        # panel is below the spacing of the doubles near tau, neighbouring
        # levels round to one double
        lo, hi = lo - 2.0 * np.spacing(np.abs(lo)), hi + 2.0 * np.spacing(np.abs(hi))
        held = energy_limit_at(np.concatenate([lo, hi]), ch.tau, ch.eps, ch.law) - np.tile(solved, 2)
        theta[: solved.size] = _brent(
            lambda t, i: energy_limit_at(t, ch.tau, ch.eps, ch.law) - solved[i],
            lo, hi, held[: solved.size], held[solved.size :], 1e-10,
        )
    if failed:
        energy = float(energies[failed[0]])
        if energy < 0.0:
            raise OutOfRange("energy statistic cannot be negative")
        raise OutOfRange(f"energy {energy} is outside the forward map range (0, {top}]")
    return theta


def estimate_theta_energy(energy: float, ch: ChannelConfig) -> float:
    """Invert the energy map, which increases strictly in theta for tau > 0,
    by monotone root finding in the node panels that bracket the energy.

    Every energy in (0, top], top a quarter of the largest double, has an
    estimate, within xtol = 1e-10 of the forward map's sign change;
    OutOfRange is raised for any other (for example a negative
    observation).  This is ``estimate_theta_energy_at``
    on an array of one.
    """
    return float(estimate_theta_energy_at(np.array([energy]), ch)[0])


# below this share of the summed magnitudes the quadratic form has lost too
# many digits to cancellation; it happens when the gap a sits deep in the
# lower tail, where every S_jk(a) is of order 1/f(a)
_CANCELLATION_FLOOR = 1e-8


def statistic_at(theta: float, tau: float, eps: np.ndarray, law: InvariantLaw, scheme: Scheme):
    """The statistic of either scheme at each entry of an array of noise
    levels, from one table lookup at the gaps a = (tau - theta)/eps: a, the
    upper moments m(a) (last axis), the statistic's long-run mean, its raw
    asymptotic variance and the mask of the levels where that fails.

    The time statistic's mean is sf(a) = m_0(a) and its variance V(a) (see
    ``edf_variance``); the energy statistic's mean is tail(a) and its
    variance 4 [tail(a)^2 A(a) + c . S(a) . c] (see
    ``energy_statistic_variance``).  Both read m(a) from the lookup, equal
    to ``upper_moments`` bit for bit, and neither evaluates the density.  A
    level fails outside the tabulated support, where the energy quadratic
    form cancels, or where the variance is not finite and positive.  Raises
    ValueError for a scheme other than "time" and "energy".
    """
    if scheme not in ("time", "energy"):
        raise ValueError(f"unknown scheme {scheme!r}")
    a = (tau - theta) / eps
    p = law.tables.at(a)
    # log(0) at an underflowed edge or of a cancelled energy form (<= 0), and
    # what it makes, is flagged by the mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if scheme == "time":
            # the part above the gap, F(a)^2 B(a), in logs
            mean, log_above, failed = p.m[:, 0], 2.0 * np.log(p.F), p.outside
        else:
            mean = _dot(_energy_weights(theta, eps), p.m)
            c = _energy_weights(theta, eps, mean)
            form = _quadratic_form(c, p.nu)
            log_above = np.log(form)
            failed = p.outside | (form <= _CANCELLATION_FLOOR * _quadratic_form(np.abs(c), np.abs(p.nu)))
        raw = 4.0 * (np.exp(2.0 * np.log(mean) + p.log_A) + np.exp(log_above + p.log_B))
    return a, p.m, mean, raw, failed | not_finite_above(raw)


def energy_statistic_variance_at(theta: float, tau: float, eps: np.ndarray, law: InvariantLaw):
    """Array form of ``energy_statistic_variance`` at each entry of an array
    of noise levels, in one table lookup, and the mask of the levels where
    it fails: the gap lies outside the tabulated support, the quadratic form
    cancels, or the variance is not finite and positive.
    """
    return statistic_at(theta, tau, eps, law, "energy")[3:]


def energy_statistic_variance(theta: float, ch: ChannelConfig) -> float:
    """Raw asymptotic variance of the energy statistic: 4 E[M(xi)^2 / (sigma f)^2].

    With a = (tau - theta)/eps the covariance kernel is
    M(y) = E[(F(y) - 1{xi < y}) (eps*xi + theta)^2 1{xi > a}].  Split at a:
    below it M(y) = tail(a) F(y); above it M is linear in the upper moments,
    M(y) = sum_k c_k m_k(y) with c = (theta^2 - tail(a), 2 theta eps, eps^2).
    So 4 int M^2/(sigma^2 f) = 4 [tail(a)^2 A(a) + sum_jk c_j c_k S_jk(a)],
    read from the law's tables.  Raises QuadratureFailure outside the
    tabulated support, when the quadratic form cancels (the gap deep in the
    lower tail) and when the variance is not finite and positive.
    """
    return _only(*energy_statistic_variance_at(theta, ch.tau, np.array([ch.eps]), ch.law),
                 f"energy-statistic variance cancels or degenerates at theta={theta}, eps={ch.eps}")


def energy_scheme_variance(theta: float, ch: ChannelConfig) -> VarianceReport:
    """Asymptotic variance of the energy-scheme estimator, by the delta method.

    Sigma~(theta) = 4 E[M^2/(sigma f)^2] / (d energy_limit/d theta)^2.
    Raises QuadratureFailure where ``energy_statistic_variance`` fails, the
    energy map is flat, or the information is not representable.
    """
    return _variance_report(theta, ch, "energy")
