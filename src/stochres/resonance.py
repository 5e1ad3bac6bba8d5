"""Sweep and maximize Fisher information over the noise level.

The phenomenon of interest: a subthreshold signal is invisible without
noise and drowned by too much of it, so the Fisher information of either
observation scheme rises and falls with the noise level.  The maximizer is
the resonance point; several interior maxima would indicate multi-resonance
and are all reported.

The table lookup takes an array of gaps, so a curve and each scan of
``find_resonance`` are one lookup each: the coarse scan and the scans of
the same size that refine each peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import QuadratureFailure
from .estimators import Scheme, fisher_at
from .laws import InvariantLaw
from .numerics import Bracket, maximize_scalar, scan_points

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


def _check_signal(theta: float, tau: float) -> None:
    if not (theta < tau and math.isfinite(theta) and math.isfinite(tau)):
        raise ValueError("need theta < tau, with theta and tau finite")


def _curve(
    theta: float, tau: float, law: InvariantLaw, scheme: Scheme, grid: np.ndarray
) -> list[CurvePoint]:
    """The curve on an array ``grid`` of noise levels, from one table lookup."""
    fisher, failed = fisher_at(theta, tau, grid, law, scheme)
    return [
        CurvePoint(eps=e, fisher=0.0 if bad else f, failed=bad)
        for e, f, bad in zip(grid.tolist(), fisher.tolist(), failed.tolist())
    ]


def resonance_curve(
    theta: float,
    tau: float,
    law: InvariantLaw,
    scheme: Scheme,
    eps_grid: Sequence[float],
) -> list[CurvePoint]:
    """Fisher information sampled on an increasing grid of noise levels.

    Raises ValueError unless theta < tau with both finite, and for an empty
    grid or one that is not strictly positive and increasing.
    """
    _check_signal(theta, tau)
    grid = np.asarray(list(eps_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("eps_grid must be nonempty")
    if not (np.all(grid > 0) and np.all(np.diff(grid) > 0)):
        raise ValueError("eps_grid must be strictly positive and increasing")
    return _curve(theta, tau, law, scheme, grid)


def find_resonance(
    theta: float,
    tau: float,
    law: InvariantLaw,
    scheme: Scheme = "time",
    bracket: Bracket = DEFAULT_EPS_BRACKET,
    tol: float = 1e-4,
) -> ResonanceResult:
    """Locate the noise level that maximizes Fisher information.

    A coarse scan over the bracket, one table lookup that is also the
    returned curve, locates every interior peak, so a multi-peaked curve
    reports all of its maxima.  Each peak is refined by scans of the same
    size over its two scan cells, one lookup each, until a cell is at most
    ``tol``.  Points whose variance cannot be evaluated (see
    ``CurvePoint``) contribute information 0 and are flagged on the
    returned curve.  Raises ValueError unless theta < tau with both finite,
    and for a bracket that is not positive; raises QuadratureFailure when
    every level of the coarse scan fails, as there is then no peak.
    """
    _check_signal(theta, tau)
    if bracket.lo <= 0:
        raise ValueError("noise bracket must be positive")

    def fisher(eps: np.ndarray) -> np.ndarray:
        value, failed = fisher_at(theta, tau, eps, law, scheme)
        return np.where(failed, 0.0, value)

    curve = _curve(theta, tau, law, scheme, scan_points(bracket))
    if all(p.failed for p in curve):
        lo, hi = law.tables.support
        raise QuadratureFailure(
            f"all {len(curve)} noise levels of the scan failed, so there is no peak: the gaps "
            f"(tau - theta)/eps run from {(tau - theta) / bracket.hi:.6g} to "
            f"{(tau - theta) / bracket.lo:.6g}, and the law's tabulated support is "
            f"({lo:.6g}, {hi:.6g})"
        )
    result = maximize_scalar(fisher, bracket, tol=tol, scan=[p.fisher for p in curve])
    local = result.local_maxima if result.local_maxima else [(result.x_star, result.h_star)]
    return ResonanceResult(
        eps_star=result.x_star,
        fisher_star=result.h_star,
        local_maxima=local,
        curve=curve,
        scheme=scheme,
    )
