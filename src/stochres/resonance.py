"""Sweep and maximize Fisher information over the noise level.

The phenomenon of interest: a subthreshold signal is invisible without
noise and drowned by too much of it, so the Fisher information of either
observation scheme rises and falls with the noise level.  The maximizer is
the resonance point; several interior maxima would indicate multi-resonance
and are all reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureFailure
from .estimators import ChannelConfig, Scheme, energy_scheme_variance, time_scheme_variance
from .laws import InvariantLaw
from .numerics import SCAN_CELLS, Bracket, maximize_scalar

__all__ = ["CurvePoint", "ResonanceResult", "resonance_curve", "find_resonance"]

DEFAULT_EPS_BRACKET = Bracket(0.02, 3.0)


@dataclass(frozen=True)
class CurvePoint:
    """One sampled point of the information-versus-noise curve.

    ``failed`` marks noise levels where the variance cannot be evaluated:
    the gap (tau - theta)/eps lies outside the law's tabulated support, or
    the energy quadratic form cancels.  The information is reported as 0
    there rather than dropping the point.
    """

    eps: float
    fisher: float
    failed: bool = False


@dataclass(frozen=True)
class ResonanceResult:
    eps_star: float
    fisher_star: float
    local_maxima: list[tuple[float, float]]
    curve: list[CurvePoint]
    scheme: Scheme


def _fisher_objective(
    theta: float, tau: float, law: InvariantLaw, scheme: Scheme
) -> Callable[[float], CurvePoint]:
    variance = time_scheme_variance if scheme == "time" else energy_scheme_variance

    @lru_cache(maxsize=None)
    def point(eps: float) -> CurvePoint:
        ch = ChannelConfig(tau=tau, eps=eps, law=law)
        try:
            report = variance(theta, ch)
        except QuadratureFailure:
            return CurvePoint(eps=eps, fisher=0.0, failed=True)
        return CurvePoint(eps=eps, fisher=report.fisher, failed=False)

    return point


def resonance_curve(
    theta: float,
    tau: float,
    law: InvariantLaw,
    scheme: Scheme,
    eps_grid: Sequence[float],
) -> list[CurvePoint]:
    """Fisher information sampled on an increasing grid of noise levels."""
    grid = np.asarray(list(eps_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("eps_grid must be nonempty")
    if not (np.all(grid > 0) and np.all(np.diff(grid) > 0)):
        raise ValueError("eps_grid must be strictly positive and increasing")
    if scheme not in ("time", "energy"):
        raise ValueError(f"unknown scheme {scheme!r}")
    point = _fisher_objective(theta, tau, law, scheme)
    return [point(float(e)) for e in grid]


def find_resonance(
    theta: float,
    tau: float,
    law: InvariantLaw,
    scheme: Scheme = "time",
    bracket: Bracket = DEFAULT_EPS_BRACKET,
    tol: float = 1e-4,
) -> ResonanceResult:
    """Locate the noise level that maximizes Fisher information.

    A coarse scan over the bracket feeds golden-section refinement of every
    interior peak, so a multi-peaked curve reports all of its maxima.  Grid
    points whose variance cannot be evaluated (see ``CurvePoint``)
    contribute information 0 and are flagged on the returned curve.
    """
    if bracket.lo <= 0:
        raise ValueError("noise bracket must be positive")
    if scheme not in ("time", "energy"):
        raise ValueError(f"unknown scheme {scheme!r}")
    point = _fisher_objective(theta, tau, law, scheme)

    result = maximize_scalar(lambda e: point(e).fisher, bracket, tol=tol)
    curve = [point(float(e)) for e in np.linspace(bracket.lo, bracket.hi, SCAN_CELLS + 1)]
    local = result.local_maxima if result.local_maxima else [(result.x_star, result.h_star)]
    return ResonanceResult(
        eps_star=result.x_star,
        fisher_star=result.h_star,
        local_maxima=local,
        curve=curve,
        scheme=scheme,
    )
