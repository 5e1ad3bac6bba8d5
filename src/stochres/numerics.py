"""Shared numerical kernels: adaptive quadrature, root finding on arrays,
scalar maximization by array scans, the array adapter and the error-function
family.

scipy is imported only inside ``integrate_interval`` (QUADPACK), so importing
the package loads no scipy module.  The adaptive quadrature serves the
reference oracles of ``estimators`` and the tests; building a law and root
finding do not call it.  ``maximize_scalar`` calls its objective on arrays
of points only, a coarse scan and then scans of the same size that zoom in
on each peak; ``_array_form`` lifts an objective or a coefficient that takes
floats only.  ``_brent`` is the one root finder: Brent's method over an
array of brackets, the entries stepping in lockstep, each with the
arithmetic of a scalar solve; ``find_root`` is an array of one.  All
functions here are pure and safe for concurrent use.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BadBracket, NonConvergence, NonFinite

__all__ = [
    "Bracket",
    "REL_TOL",
    "ABS_TOL",
    "MAX_SUBDIVISIONS",
    "SCAN_CELLS",
    "erf",
    "normal_cdf",
    "integrate_interval",
    "integrate_line",
    "find_root",
    "not_finite_above",
    "maximize_scalar",
    "scan_points",
    "MaximizeResult",
]

_SQRT2 = math.sqrt(2.0)

# tolerances and subdivision budget of every adaptive quadrature
REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 200

# cells of every scan of maximize_scalar: the coarse scan and each zoom
SCAN_CELLS = 64


@dataclass(frozen=True)
class Bracket:
    """A search interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def erf(x: float) -> float:
    """Error function (2/sqrt(pi)) * integral_0^x exp(-t^2) dt."""
    return math.erf(x)


def normal_cdf(z: float) -> float:
    """Standard normal distribution function, accurate in both tails.

    Evaluated as erfc(-z/sqrt(2))/2, which equals (1 + erf(z/sqrt(2)))/2
    without cancellation for z far below zero.
    """
    return 0.5 * math.erfc(-z / _SQRT2)


def _array_form(fn: Callable, x: np.ndarray) -> tuple[Callable, np.ndarray]:
    """``fn`` itself when it maps the float array ``x`` to a float array of
    the same shape, otherwise a wrapper that does: a loop over the entries
    for a function that takes floats only, a broadcast for one that
    returns a constant.  Decided once, from ``x``, rather than at every
    call, and returned with its values at ``x``, from the one evaluation
    that decided it.  A compiled expression is judged by its ``array``
    form, which skips the compiled function's dispatch between floats and
    arrays."""
    fn = getattr(fn, "array", fn)
    try:
        out = fn(x)
    except (TypeError, ValueError):
        form = np.vectorize(fn, otypes=[float])
        return form, form(x)
    if isinstance(out, np.ndarray) and out.shape == x.shape and out.dtype == np.float64:
        return fn, out
    return (lambda y: np.broadcast_to(np.asarray(fn(y), dtype=float), np.shape(y)),
            np.broadcast_to(np.asarray(out, dtype=float), x.shape))


def not_finite_above(x: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """The mask of the entries of x that are not a finite number above
    ``floor``: NaN, +inf or at most ``floor``."""
    return ~(np.isfinite(x) & (x > floor))


def _t_of_x(x: float) -> float:
    """Inverse of the line-to-interval substitution x = t/(1-t^2)."""
    if x == 0.0:
        return 0.0
    x = max(min(x, 1e150), -1e150)
    return (math.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)


def integrate_interval(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Integrate f over the finite interval [lo, hi] by adaptive quadrature.

    Raises NonConvergence when the MAX_SUBDIVISIONS budget runs out before
    the REL_TOL / ABS_TOL tolerance is met, or when the result is not finite.
    QUADPACK comes from scipy, a dependency of the ``test`` extra only: the
    reference oracles that call this, and ``perfbench/run.py``, need it.
    """
    from scipy.integrate import quad

    out = quad(f, lo, hi, epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=1)
    if len(out) > 3:
        raise NonConvergence(f"quadrature failed on ({lo}, {hi}): {out[3]}")
    if not math.isfinite(out[0]):
        raise NonConvergence(f"quadrature produced non-finite value on ({lo}, {hi})")
    return float(out[0])


def integrate_line(f: Callable[[float], float], *, split_at: Sequence[float] = ()) -> float:
    """Integrate f over the whole real line.

    The line is mapped onto (-1, 1) by the smooth substitution x = t/(1-t^2)
    and each segment goes through ``integrate_interval``.  ``split_at`` lists
    interior points where the integrand has kinks or jumps; splitting there
    keeps the adaptive scheme efficient and reliable.  A divergent integral
    raises NonConvergence, also when the subdivision reaches t = +-1.  Each
    segment needs scipy, from the ``test`` extra (see ``integrate_interval``).
    """
    cuts = sorted({_t_of_x(p) for p in split_at if math.isfinite(p)})
    edges = [-1.0] + [t for t in cuts if -1.0 < t < 1.0] + [1.0]

    def g(t: float) -> float:
        one_minus = 1.0 - t * t
        if one_minus == 0.0:  # reached only on a slowly divergent integrand
            raise NonConvergence("quadrature reached x = +-inf: the integral diverges")
        x = t / one_minus
        jac = (1.0 + t * t) / (one_minus * one_minus)
        return f(x) * jac

    return sum(integrate_interval(g, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def find_root(g: Callable[[float], float], bracket: Bracket, tol: float = 1e-10) -> float:
    """Locate the root of a continuous function inside a sign-changing bracket.

    Brent's method: the returned x lies within tol + 4 eps |x| of a sign
    change of g.  Raises BadBracket when g has the same nonzero sign at both
    endpoints, NonFinite when g is not finite at a point inside the bracket,
    and NonConvergence when 100 iterations do not reach tol.  g takes
    floats; the solve is ``_brent`` on an array of one entry.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    roots = _brent(lambda x, _: [g(v) for v in x.tolist()], [bracket.lo], [bracket.hi],
                   [g(bracket.lo)], [g(bracket.hi)], tol)
    return float(roots[0])


_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brent(g: Callable, lo: np.ndarray, hi: np.ndarray, glo: np.ndarray, ghi: np.ndarray,
           xtol: float) -> np.ndarray:
    """The roots of n functions g_i, each in its own bracket [lo[i], hi[i]]
    with g_i held at the ends, by Brent's method over arrays.

    ``g(x, i)`` gives g_i(x[k]) for each entry i[k]: an array of points and
    the indices of their entries.  The entries step in lockstep, each with
    the step rule and tolerances of scipy's ``brentq`` in the arithmetic of
    one Python float, so every root is the scalar method's bit for bit.  An
    entry leaves at its end checks or when it converges, and each iteration
    calls g once, on the entries still running; with none, g is not called.
    The errors are ``find_root``'s, per entry: the one raised is that of the
    lowest failing entry, as a loop over the entries would raise it, after
    the others have finished.
    """
    lo, hi, glo, ghi = (np.asarray(v, dtype=float) for v in (lo, hi, glo, ghi))
    root = np.full(lo.shape, np.nan)
    errors: dict[int, Exception] = {}
    finite = np.isfinite(glo) & np.isfinite(ghi)
    for i in np.flatnonzero(~finite).tolist():
        errors[i] = BadBracket("function is not finite at the bracket endpoints")
    at_lo = finite & (glo == 0.0)
    at_hi = finite & ~at_lo & (ghi == 0.0)
    root[at_lo], root[at_hi] = lo[at_lo], hi[at_hi]
    live = finite & ~at_lo & ~at_hi
    for i in np.flatnonzero(live & ((glo < 0.0) == (ghi < 0.0))).tolist():
        errors[i] = BadBracket(
            f"no sign change on [{float(lo[i])}, {float(hi[i])}]: "
            f"g(lo)={float(glo[i]):.6g}, g(hi)={float(ghi[i]):.6g}"
        )
    entry = np.flatnonzero(live & ((glo < 0.0) != (ghi < 0.0)))
    xpre, xcur, fpre, fcur = lo[entry], hi[entry], glo[entry], ghi[entry]
    xblk, fblk, spre, scur = (np.zeros(entry.size) for _ in range(4))
    for _ in range(_BRENT_MAXITER):
        flip = (fpre < 0.0) != (fcur < 0.0)
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        root[entry[done]] = xcur[done]
        if done.any():
            on = ~done
            entry, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[on] for v in (entry, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
        if not entry.size:
            break
        # every step form is computed for every entry and each entry keeps its
        # own; the forms it does not take may divide by zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            den = dblk * dpre * (fblk - fpre)
            # a zero denominator gives no usable step, so the test below bisects
            quadratic = np.where(den != 0.0, -fcur * (fblk * dblk - fpre * dpre) / den, np.inf)
            stry = np.where(xpre == xblk, secant, quadratic)
            take = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)))
        spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
        fcur = np.asarray(g(xcur, entry), dtype=float)
        bad = ~np.isfinite(fcur)
        if bad.any():
            for k in np.flatnonzero(bad).tolist():
                errors[int(entry[k])] = NonFinite(f"function is not finite at x={float(xcur[k])}: {float(fcur[k])}")
            on = ~bad
            entry, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                v[on] for v in (entry, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur))
    for i in entry.tolist():
        errors[i] = NonConvergence(f"root finding did not converge in {_BRENT_MAXITER} iterations")
    if errors:
        raise errors[min(errors)]
    return root


class MaximizeResult(NamedTuple):
    x_star: float
    h_star: float
    local_maxima: list[tuple[float, float]]


def scan_points(bracket: Bracket) -> np.ndarray:
    """The SCAN_CELLS + 1 points of every scan of ``maximize_scalar``."""
    return np.linspace(bracket.lo, bracket.hi, SCAN_CELLS + 1)


def _finite(xs: np.ndarray, hs) -> np.ndarray:
    """hs, the objective at the points xs, as a float array.  Raises
    ValueError unless it holds one value per point and NonFinite at its
    first value that is not finite."""
    hs = np.asarray(hs, dtype=float)
    if hs.shape != xs.shape:
        raise ValueError(f"objective must give {len(xs)} values, one per point, got shape {hs.shape}")
    bad = np.flatnonzero(~np.isfinite(hs))
    if bad.size:
        raise NonFinite(f"objective is not finite at x={xs[bad[0]]}: {hs[bad[0]]}")
    return hs


def _zoom(h: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Scan [lo, hi], then the two cells around the best point of each scan,
    until a cell is at most tol; the best point of the last scan and h there."""
    while True:
        xs = scan_points(Bracket(lo, hi))
        hs = _finite(xs, h(xs))
        best = int(np.argmax(hs))
        if (hi - lo) / SCAN_CELLS <= tol:
            return float(xs[best]), float(hs[best])
        k = min(max(best, 1), SCAN_CELLS - 1)
        lo, hi = float(xs[k - 1]), float(xs[k + 1])


def maximize_scalar(
    h: Callable,
    bracket: Bracket,
    tol: float = 1e-6,
    scan: Sequence[float] | None = None,
) -> MaximizeResult:
    """Locate the global maximum of h on a bracket, reporting every interior peak.

    A scan of SCAN_CELLS equal cells locates candidate peaks.  Each
    candidate is refined by the same scan over its two cells, repeated over
    the two cells around the best point of each scan until a cell is at
    most ``tol``; the best point of the last scan is the peak.  Several
    interior maxima may be reported, which is how multi-peaked objectives
    are detected.  The global maximizer is chosen among the refined peaks
    and the bracket endpoints.  h is called on arrays of points only.  An h
    that takes floats only is lifted by ``_array_form`` from the scan
    points; a caller that passes ``scan``, h at ``scan_points(bracket)``
    from one call (one table lookup over an array of gaps), passes an h
    that takes arrays.  Raises NonFinite where a scanned value is not
    finite.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = scan_points(bracket)
    if scan is None:
        h, scan = _array_form(h, xs)
    hs = _finite(xs, scan)

    candidates = [
        i
        for i in range(1, SCAN_CELLS)
        if hs[i] >= hs[i - 1] and hs[i] >= hs[i + 1] and (hs[i] > hs[i - 1] or hs[i] > hs[i + 1])
    ]

    refined: list[tuple[float, float]] = []
    cell = (bracket.hi - bracket.lo) / SCAN_CELLS
    for i in candidates:
        x_ref, h_ref = _zoom(h, float(xs[i - 1]), float(xs[i + 1]), tol)
        # adjacent grid candidates can refine onto the same peak
        if refined and abs(x_ref - refined[-1][0]) <= cell:
            if h_ref > refined[-1][1]:
                refined[-1] = (x_ref, h_ref)
            continue
        refined.append((x_ref, h_ref))

    best = max(
        refined + [(float(xs[0]), float(hs[0])), (float(xs[-1]), float(hs[-1]))],
        key=lambda p: p[1],
    )
    return MaximizeResult(x_star=best[0], h_star=best[1], local_maxima=refined)
