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
code serves every law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DegenerateObservation, OutOfRange, QuadratureFailure
from .laws import InvariantLaw
from .numerics import Bracket, find_root, integrate_line

__all__ = [
    "ChannelConfig",
    "VarianceReport",
    "time_fraction_limit",
    "estimate_theta_time",
    "edf_variance",
    "time_scheme_variance",
    "time_scheme_variance_ou_reference",
    "energy_limit",
    "energy_limit_closed_form",
    "energy_limit_quadrature",
    "energy_limit_derivative",
    "energy_limit_derivative_closed_form",
    "energy_limit_derivative_quadrature",
    "estimate_theta_energy",
    "energy_covariance_kernel",
    "energy_statistic_variance",
    "energy_scheme_variance",
    "log_likelihood_time",
]

_SQRT_PI = math.sqrt(math.pi)

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


def estimate_theta_time(time_fraction: float, ch: ChannelConfig) -> float:
    """Invert the time-fraction map: theta = tau - eps * quantile(1 - fraction).

    Raises DegenerateObservation at fraction 0 or 1, where the inverse
    escapes to -inf or +inf; callers decide the policy for finite samples
    that hit the boundary.
    """
    if not 0.0 < time_fraction < 1.0:
        raise DegenerateObservation(
            f"time fraction {time_fraction} admits no finite estimate"
        )
    return ch.tau - ch.eps * ch.law.quantile(1.0 - time_fraction)


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
    QuadratureFailure when x lies outside the law's tabulated support.
    """
    if sigma_fn is not law.spec.diffusion:
        raise ValueError("sigma_fn must be the law's diffusion coefficient law.spec.diffusion")
    p = law.tables.at(x)
    return 4.0 * (
        math.exp(2.0 * math.log(p.m[0]) + p.log_A) + math.exp(2.0 * math.log(p.F) + p.log_B)
    )


def time_scheme_variance(theta: float, ch: ChannelConfig) -> VarianceReport:
    """Asymptotic variance of the time-scheme estimator, by the delta method.

    Sigma(theta) = eps^2 V(a) / f(a)^2 with a = (tau - theta)/eps.  The
    Fisher information is assembled as (f(a) / (eps sqrt(V)))^2 so that
    regimes where both f and V underflow separately still produce a finite
    positive result whenever one is representable.
    """
    a = ch.gap_ratio(theta)
    fa = float(ch.law.f(a))
    V = edf_variance(a, ch.law, ch.law.spec.diffusion)
    if not (math.isfinite(V) and V > 0.0) or fa <= 0.0:
        raise QuadratureFailure(
            f"time-scheme variance degenerates at theta={theta}, eps={ch.eps} (f(a)={fa}, V={V})"
        )
    q = fa / (ch.eps * math.sqrt(V))
    fisher = q * q
    if not (math.isfinite(fisher) and fisher > 0.0) or not math.isfinite(1.0 / fisher):
        raise QuadratureFailure(
            f"time-scheme fisher not representable at theta={theta}, eps={ch.eps}"
        )
    return VarianceReport(value=1.0 / fisher, fisher=fisher, scheme="time")


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


def _energy_weights(theta: float, eps: float) -> np.ndarray:
    """Coefficients of (eps*xi + theta)^2 on the powers xi^0, xi^1, xi^2.

    Dotted with the upper moments m_k(x) they give the truncated energy
    tail(x) = E[(eps*xi + theta)^2 1{xi > x}].
    """
    return np.array([theta * theta, 2.0 * theta * eps, eps * eps])


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


def energy_limit(theta: float, ch: ChannelConfig) -> float:
    """Long-run value of the energy statistic; increasing in theta below tau.

    E[(eps*xi + theta)^2 1{xi > a}] with a = (tau - theta)/eps, a fixed
    combination of the law's upper moments at a.
    """
    return float(_energy_weights(theta, ch.eps) @ ch.law.tables.upper_moments(ch.gap_ratio(theta)))


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


def energy_limit_derivative(theta: float, ch: ChannelConfig) -> float:
    """Slope of the energy map: tau^2 f(a)/eps + 2 theta sf(a) + 2 eps E[xi 1{xi>a}]."""
    a = ch.gap_ratio(theta)
    m = ch.law.tables.upper_moments(a)
    return ch.tau * ch.tau * float(ch.law.f(a)) / ch.eps + 2.0 * theta * m[0] + 2.0 * ch.eps * m[1]


def estimate_theta_energy(energy: float, ch: ChannelConfig) -> float:
    """Invert the energy map by monotone root finding on [0, tau].

    The bracket is widened to [-tau, 2 tau] when the observation falls
    outside the primary range; OutOfRange is raised when no bracket
    contains a root (for example a negative observation).
    """
    if energy < 0.0:
        raise OutOfRange("energy statistic cannot be negative")

    def g(theta: float) -> float:
        return energy_limit(theta, ch) - energy

    knots = [0.0, ch.tau, -ch.tau, 2.0 * ch.tau]
    values = {t: g(t) for t in knots}
    for lo, hi in ((0.0, ch.tau), (-ch.tau, 0.0), (ch.tau, 2.0 * ch.tau)):
        glo, ghi = values[lo], values[hi]
        if glo == 0.0:
            return lo
        if ghi == 0.0:
            return hi
        if glo * ghi < 0:
            return find_root(g, Bracket(lo, hi), tol=1e-10)
    raise OutOfRange(
        f"energy {energy} is outside the forward map range on [-tau, 2*tau]"
    )


def energy_covariance_kernel(y: float, theta: float, ch: ChannelConfig) -> float:
    """Covariance kernel of the energy statistic.

    M(y) = E[(F(y) - 1{xi < y}) (eps*xi + theta)^2 1{xi > a}] with
    a = (tau - theta)/eps.  Below the threshold gap the kernel is
    tail(a) * F(y); above it, tail(y) - tail(a) * sf(y), with tail(x) the
    truncated energy above x.  Each branch pairs quantities that decay
    together, so both far tails keep relative accuracy instead of
    collapsing into roundoff of near-equal differences.
    """
    a = ch.gap_ratio(theta)
    weights = _energy_weights(theta, ch.eps)
    tail_a = float(weights @ ch.law.tables.upper_moments(a))
    if y <= a:
        return tail_a * float(ch.law.F(y))
    m = ch.law.tables.upper_moments(y)
    return float(weights @ m) - tail_a * float(m[0])


# below this share of the summed magnitudes the quadratic form has lost too
# many digits to cancellation; it happens when the gap a sits deep in the
# lower tail, where every S_jk(a) is of order 1/f(a)
_CANCELLATION_FLOOR = 1e-8


def energy_statistic_variance(theta: float, ch: ChannelConfig) -> float:
    """Raw asymptotic variance of the energy statistic: 4 E[M(xi)^2 / (sigma f)^2].

    Split at a: below it M(y) = tail(a) F(y); above it M is linear in the
    upper moments, M(y) = sum_k c_k m_k(y) with
    c = (theta^2 - tail(a), 2 theta eps, eps^2).  So
    4 int M^2/(sigma^2 f) = 4 [tail(a)^2 A(a) + sum_jk c_j c_k S_jk(a)],
    read from the law's tables.  Raises QuadratureFailure outside the
    tabulated support and when the quadratic form cancels.
    """
    p = ch.law.tables.at(ch.gap_ratio(theta))
    c = _energy_weights(theta, ch.eps)
    tail = float(c @ p.m)
    c[0] -= tail
    form = float(c @ p.nu @ c)
    if not form > _CANCELLATION_FLOOR * float(np.abs(c) @ np.abs(p.nu) @ np.abs(c)):
        raise QuadratureFailure(
            f"energy-statistic variance cancels at theta={theta}, eps={ch.eps} (gap deep in the lower tail)"
        )
    v = 4.0 * (math.exp(2.0 * math.log(tail) + p.log_A) + math.exp(p.log_B + math.log(form)))
    if not (math.isfinite(v) and v > 0.0):
        raise QuadratureFailure(
            f"energy-statistic variance degenerates at theta={theta}, eps={ch.eps} (V={v})"
        )
    return v


def energy_scheme_variance(theta: float, ch: ChannelConfig) -> VarianceReport:
    """Asymptotic variance of the energy-scheme estimator, by the delta method.

    Sigma~(theta) = 4 E[M^2/(sigma f)^2] / (d energy_limit/d theta)^2.
    """
    slope = energy_limit_derivative(theta, ch)
    raw = energy_statistic_variance(theta, ch)
    if not (math.isfinite(slope) and slope > 0.0):
        raise QuadratureFailure(
            f"energy map is flat at theta={theta}, eps={ch.eps} (slope={slope})"
        )
    q = slope / math.sqrt(raw)
    fisher = q * q
    if not (math.isfinite(fisher) and fisher > 0.0) or not math.isfinite(1.0 / fisher):
        raise QuadratureFailure(
            f"energy-scheme fisher not representable at theta={theta}, eps={ch.eps}"
        )
    return VarianceReport(value=1.0 / fisher, fisher=fisher, scheme="energy")


# ---------------------------------------------------------------------------
# approximate likelihood (time scheme)
# ---------------------------------------------------------------------------


def log_likelihood_time(
    theta: float,
    time_fraction: float,
    horizon: float,
    ch: ChannelConfig,
) -> float:
    """Gaussian approximation to the log likelihood of the time statistic.

    log sqrt(T / (2 pi V(a))) - (T/2) (1 - fraction - F(a))^2 / V(a).
    The exponent vanishes exactly at the inverse-map estimate, so this
    likelihood is maximized there up to the O(1) prefactor variation.
    """
    if not 0.0 < time_fraction < 1.0:
        raise DegenerateObservation("time fraction on the boundary has no likelihood expansion")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    a = ch.gap_ratio(theta)
    V = edf_variance(a, ch.law, ch.law.spec.diffusion)
    resid = 1.0 - time_fraction - float(ch.law.F(a))
    return 0.5 * math.log(horizon / (2.0 * math.pi * V)) - 0.5 * horizon * resid * resid / V
