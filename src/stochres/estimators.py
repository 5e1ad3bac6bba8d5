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
per-noise-level formula has one array form (the ``*_at`` functions): it
takes a float or an array of noise levels and returns the values with a
per-point ``failed`` mask, so a curve or a scan over the noise level is one
lookup.  The scalar functions evaluate that form at one point and raise
QuadratureFailure where it fails.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DegenerateObservation, OutOfRange, QuadratureFailure
from .laws import InvariantLaw
from .numerics import Bracket, find_root, integrate_line, libm, not_finite_above

__all__ = [
    "ChannelConfig",
    "VarianceReport",
    "time_fraction_limit",
    "estimate_theta_time",
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
    "energy_statistic_variance",
    "energy_statistic_variance_at",
    "energy_scheme_variance",
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


def edf_variance_at(x, law: InvariantLaw) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``edf_variance``: V at a float x or at each entry of an
    array, in one table lookup, and the mask of the points that failed
    (outside the tabulated support, where V is NaN).

    A float outside the support raises QuadratureFailure instead.
    """
    p = law.tables.at(x)
    V = 4.0 * (
        libm(math.exp, 2.0 * libm(math.log, p.m[..., 0]) + p.log_A)
        + libm(math.exp, 2.0 * libm(math.log, p.F) + p.log_B)
    )
    return V, p.outside


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
    return float(edf_variance_at(x, law)[0])


def fisher_at(theta: float, tau: float, eps, law: InvariantLaw, scheme: Scheme):
    """Fisher information of either scheme at a float noise level or at each
    entry of an array, in one table lookup, and the mask of the levels where
    it fails (see ``time_scheme_variance`` and ``energy_scheme_variance``).

    A float whose gap lies outside the tabulated support raises
    QuadratureFailure instead.
    """
    if scheme == "time":
        a = (tau - theta) / eps
        fa = law.f(a)
        V, failed = edf_variance_at(a, law)
        failed = failed | not_finite_above(V) | (fa <= 0.0)
        # (f/(eps sqrt V))^2 stays finite where f and V underflow separately
        num, den = fa, eps * libm(math.sqrt, V)
    else:
        a, m, _, raw, failed = _energy_at(theta, tau, eps, law)
        slope = _energy_slope(theta, tau, eps, law.f(a), m)
        failed = failed | not_finite_above(slope)
        num, den = slope, libm(math.sqrt, raw)
    if isinstance(failed, bool):  # a float: float arithmetic, which raises where den is 0
        if failed:
            return math.nan, True
        q = num / den
        fisher = q * q
    else:  # an array: a failed entry may divide by 0 or overflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = num / den
            fisher = q * q
    return fisher, failed | not_finite_above(fisher, _NO_RECIPROCAL)


def _variance_report(theta: float, ch: ChannelConfig, scheme: Scheme) -> VarianceReport:
    fisher, failed = fisher_at(theta, ch.tau, ch.eps, ch.law, scheme)
    if failed:
        raise QuadratureFailure(
            f"{scheme}-scheme variance degenerates or its fisher information is not representable "
            f"at theta={theta}, eps={ch.eps}"
        )
    fisher = float(fisher)
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


def _energy_weights(theta: float, eps, tail=0.0) -> np.ndarray:
    """Coefficients of (eps*xi + theta)^2 on the powers xi^0, xi^1, xi^2,
    less ``tail`` on xi^0: one contiguous row per noise level.

    Dotted with the upper moments m_k(x) they give the truncated energy
    tail(x) = E[(eps*xi + theta)^2 1{xi > x}].
    """
    # 0.0 * eps broadcasts the first coefficient to the shape of eps
    w = np.array([theta * theta - tail + 0.0 * eps, 2.0 * theta * eps, eps * eps])
    return np.ascontiguousarray(w.T)


def _plain(x):
    """A float for one number, so that the checks on it stay on Python
    floats and bools; an array unchanged."""
    return float(x) if x.ndim == 0 else x


def _dot(u: np.ndarray, v: np.ndarray):
    """u . v over the last axis.  Each row is one BLAS dot of three entries,
    the same call as ``u @ v`` for one row, so a row and a float agree bit
    for bit (numpy's elementwise sum rounds differently)."""
    return _plain((u[..., None, :] @ v[..., :, None])[..., 0, 0])


def _quadratic_form(c: np.ndarray, nu: np.ndarray):
    """c . nu . c over the last axes, as ``c @ nu @ c`` for one row."""
    return _plain((c[..., None, :] @ nu @ c[..., :, None])[..., 0, 0])


def _log_or_nan(x: float) -> float:
    """log x, NaN at x <= 0 (a cancelled quadratic form), where math.log raises."""
    return math.log(x) if x > 0.0 else math.nan


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


def energy_limit_at(theta: float, tau: float, eps, law: InvariantLaw):
    """Array form of ``energy_limit`` at a float noise level or at each entry
    of an array; it has no failure condition."""
    a = (tau - theta) / eps
    return _dot(_energy_weights(theta, eps), np.ascontiguousarray(law.tables.upper_moments(a).T))


def energy_limit(theta: float, ch: ChannelConfig) -> float:
    """Long-run value of the energy statistic; increasing in theta below tau.

    E[(eps*xi + theta)^2 1{xi > a}] with a = (tau - theta)/eps, a fixed
    combination of the law's upper moments at a.
    """
    return float(energy_limit_at(theta, ch.tau, ch.eps, ch.law))


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


def _energy_slope(theta: float, tau: float, eps, f_a, m):
    """tau^2 f(a)/eps + 2 theta m_0(a) + 2 eps m_1(a), from the density at
    the gap and the upper moments there (last axis)."""
    return _plain(tau * tau * f_a / eps + 2.0 * theta * m[..., 0] + 2.0 * eps * m[..., 1])


def energy_limit_derivative_at(theta: float, tau: float, eps, law: InvariantLaw):
    """Array form of ``energy_limit_derivative`` at a float noise level or at
    each entry of an array; it has no failure condition."""
    a = (tau - theta) / eps
    return _energy_slope(theta, tau, eps, law.f(a), law.tables.upper_moments(a).T)


def energy_limit_derivative(theta: float, ch: ChannelConfig) -> float:
    """Slope of the energy map: tau^2 f(a)/eps + 2 theta sf(a) + 2 eps E[xi 1{xi>a}]."""
    return float(energy_limit_derivative_at(theta, ch.tau, ch.eps, ch.law))


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


# below this share of the summed magnitudes the quadratic form has lost too
# many digits to cancellation; it happens when the gap a sits deep in the
# lower tail, where every S_jk(a) is of order 1/f(a)
_CANCELLATION_FLOOR = 1e-8


def _energy_at(theta: float, tau: float, eps, law: InvariantLaw):
    """The energy scheme at a float noise level or at each entry of an array,
    from one table lookup at the gap a = (tau - theta)/eps: a, the upper
    moments m(a) (last axis), the long-run energy tail(a), the statistic's
    raw variance and its failed mask (see ``energy_statistic_variance_at``).

    m(a) and tail(a) equal ``upper_moments`` and ``energy_limit_at`` bit for
    bit.  A float whose gap lies outside the support raises QuadratureFailure.
    """
    a = (tau - theta) / eps
    p = law.tables.at(a)
    tail = _dot(_energy_weights(theta, eps), p.m)
    c = _energy_weights(theta, eps, tail)
    form = _quadratic_form(c, p.nu)
    cancels = form <= _CANCELLATION_FLOOR * _quadratic_form(np.abs(c), np.abs(p.nu))
    v = 4.0 * (
        libm(math.exp, 2.0 * libm(math.log, tail) + p.log_A)
        + libm(math.exp, p.log_B + libm(_log_or_nan, form))
    )
    return a, p.m, tail, v, p.outside | cancels | not_finite_above(v)


def energy_statistic_variance_at(theta: float, tau: float, eps, law: InvariantLaw):
    """Array form of ``energy_statistic_variance`` at a float noise level or
    at each entry of an array, in one table lookup, and the mask of the
    levels where it fails: the gap lies outside the tabulated support, the
    quadratic form cancels, or the variance is not finite and positive.

    A float whose gap lies outside the support raises QuadratureFailure
    instead.
    """
    return _energy_at(theta, tau, eps, law)[3:]


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
    v, failed = energy_statistic_variance_at(theta, ch.tau, ch.eps, ch.law)
    if failed:
        raise QuadratureFailure(
            f"energy-statistic variance cancels or degenerates at theta={theta}, eps={ch.eps} "
            f"(V={float(v)})"
        )
    return float(v)


def energy_scheme_variance(theta: float, ch: ChannelConfig) -> VarianceReport:
    """Asymptotic variance of the energy-scheme estimator, by the delta method.

    Sigma~(theta) = 4 E[M^2/(sigma f)^2] / (d energy_limit/d theta)^2.
    Raises QuadratureFailure where ``energy_statistic_variance`` fails, the
    energy map is flat, or the information is not representable.
    """
    return _variance_report(theta, ch, "energy")
