"""Stationary (invariant) law of the noise diffusion.

A diffusion dX = S(X)dt + sigma(X)dW with suitable drift admits a stationary
density proportional to exp(2*int_0^x S/sigma^2) / sigma(x)^2.  This module
checks the ergodicity conditions numerically, builds the normalized law from
arbitrary coefficients, and provides the closed-form law for the standard
mean-reverting (Ornstein-Uhlenbeck) noise, which is Gaussian with mean zero
and variance 1/2.

Every law carries a node grid and cumulative tables on it (``LawTables``)
from which the asymptotic variances of both observation schemes are read in
O(1) per noise level; one lookup takes a whole array of gaps.  For a law
built from coefficients the tables are its only representation: F, sf and
the quantile read them.  The ergodicity check, the support edges and the
density exponent all come from one Gauss-Legendre panel rule, and the
quantile is a bracketed root of F or sf, so no law imports scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from .errors import NotErgodic, QuadratureFailure
from .expressions import compile_expression
from .numerics import REL_TOL, Bracket, find_root, libm

__all__ = [
    "DiffusionSpec",
    "ErgodicityReport",
    "InvariantLaw",
    "LawPoint",
    "LawTables",
    "check_ergodicity",
    "build_invariant_law",
    "ou_law",
    "NAMED_SPECS",
]

_SQRT_PI = math.sqrt(math.pi)

# 5-point Gauss-Legendre rule, exact through degree 9 polynomials per panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)
# Q(u) = int_{-1}^u p, for p the degree-4 polynomial through values at the
# points _GL_X: values @ _PARTIAL gives Q's coefficients of u^0..u^5, and
# Q(1) is the Gauss-Legendre sum of the values.  Stored contiguous, so a
# product with one row of values per panel runs in BLAS.
_PARTIAL = np.ascontiguousarray(
    (
        np.vstack([(-1.0) ** np.arange(5) / np.arange(1, 6), np.diag(1.0 / np.arange(1, 6))])
        @ np.linalg.inv(np.vander(_GL_X, 5, increasing=True))
    ).T
)

# the support ends where the stationary mass falls below this fraction of its peak
_MASS_FLOOR = 1e-300
_PROBE_RANGE = Bracket(-50.0, 50.0)
_NODE_SPACING = 0.005

# index pairs j <= k of the six suffix tables S_jk, and the pair of each
# entry of the symmetric 3 x 3 matrix, row by row
_PAIRS = np.triu_indices(3)
_SYMMETRIC = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
# panels per block when building the tables or summing the probe mass
_BLOCK = 512


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficients of the noise SDE dX = drift(X)dt + diffusion(X)dW.

    A diffusion with a float ``constant`` attribute, as a compiled
    expression without ``x`` has, is taken to return that value at every
    X: the Euler-Maruyama steppers then never call it.
    """

    drift: Callable[[float], float]
    diffusion: Callable[[float], float]
    label: str = ""


@dataclass(frozen=True)
class ErgodicityReport:
    """Numerical evidence for the two ergodicity conditions.

    The drift integral int_0^y S/sigma^2 must diverge to -inf in both
    directions (c2, checked by a finite-probe trend), and the unnormalized
    stationary mass must be finite (c3): its panel sum G over the probe
    range is finite and it has decayed at both probe ends (else G is inf).
    """

    c2_left_limit: float
    c2_right_limit: float
    G: float
    c2_holds: bool
    c3_holds: bool


@dataclass(frozen=True)
class InvariantLaw:
    """Stationary law: density f, distribution F, survival sf and quantile.

    ``sf`` is kept separate from ``1 - F`` so that far tails retain relative
    accuracy.  ``grid_x`` is the node grid over the numerical support and
    ``tables`` the cumulative tables of ``f`` on it, built on first use; a
    law built from coefficients reads its F, sf and quantile from them too,
    and keeps the ``ergodicity`` report its build checked.  Instances are
    immutable apart from that cache and safe to share.
    """

    f: Callable
    F: Callable
    sf: Callable
    quantile: Callable[[float], float]
    G: float
    spec: DiffusionSpec
    grid_x: np.ndarray = field(repr=False, compare=False)
    # the tables of a density on grid_x, built at the first call with it
    lazy_tables: Callable[[Callable], "LawTables"] = field(repr=False, compare=False)
    label: str = ""
    ergodicity: Optional[ErgodicityReport] = field(default=None, compare=False)

    @property
    def tables(self) -> "LawTables":
        """Cumulative Gauss-Legendre tables of this law's f on ``grid_x``."""
        return self.lazy_tables(self.f)


def _lazy_tables(nodes: np.ndarray, sigma: Callable) -> Callable[[Callable], "LawTables"]:
    """The tables of a density on ``nodes``, built at the first call with it."""
    sigma = _vectorized(sigma)
    return cache(lambda f: LawTables(nodes, f, sigma))


def _as_output(out: np.ndarray):
    """A float for a scalar argument, the array otherwise."""
    return float(out) if out.ndim == 0 else out


def _vectorized(fn: Callable) -> Callable:
    """Wrap a scalar-only coefficient so it accepts numpy arrays too."""

    def wrapped(x):
        try:
            out = fn(x)
        except (TypeError, ValueError):
            return np.vectorize(fn, otypes=[float])(x)
        out = np.asarray(out, dtype=float)
        if np.shape(out) != np.shape(x):
            out = np.broadcast_to(out, np.shape(x)).copy()
        return out

    return wrapped


def _panels(fn: Callable, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss-Legendre points t on the panels [lo, hi] (which
    broadcast), and w*fn(t); both have one more axis, of length 5."""
    half = 0.5 * (np.asarray(hi, dtype=float) - lo)
    t = (lo + half)[..., None] + half[..., None] * _GL_X
    return t, half[..., None] * _GL_W * np.asarray(fn(t), dtype=float)


def _moments(t: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """The rule's moments sum(w f t^k), k = 0..2, over the last axis."""
    return np.array([wf.sum(-1), (wf * t).sum(-1), (wf * t * t).sum(-1)])


def _support_edges(mass: Callable) -> tuple[float, float]:
    """The support of a vectorized ``mass``: the edges double outward from
    +-1 until the mass falls below ``_MASS_FLOOR`` times its peak near the
    origin, capped at ``_PROBE_RANGE``."""
    peak = float(np.max(mass(np.linspace(-1.0, 1.0, 21))))
    if not (math.isfinite(peak) and peak > 0):
        raise NotErgodic("stationary mass is degenerate near the origin")
    floor = peak * _MASS_FLOOR

    def expand(direction: float, cap: float) -> float:
        edge = direction
        while abs(edge) < abs(cap):
            v = float(mass(edge))
            if not math.isfinite(v) or v <= floor:
                return edge
            edge *= 2.0
        return cap

    return expand(-1.0, _PROBE_RANGE.lo), expand(1.0, _PROBE_RANGE.hi)


def _node_grid(lo: float, hi: float) -> tuple[np.ndarray, int]:
    """Nodes ``_NODE_SPACING`` apart over [lo, hi], lo < 0 < hi, with 0 among
    them, and the index of 0."""
    n_left = max(int(round(-lo / _NODE_SPACING)), 8)
    n_right = max(int(round(hi / _NODE_SPACING)), 8)
    nodes = np.concatenate([np.linspace(lo, 0.0, n_left + 1)[:-1], np.linspace(0.0, hi, n_right + 1)])
    return nodes, n_left


def _mass(spec: DiffusionSpec, nodes: np.ndarray, zero_idx: int) -> tuple[Callable, Callable]:
    """The exponent int_0^x S/sigma^2 and the unnormalized stationary mass
    exp(2*exponent)/sigma^2 at any x in [nodes[0], nodes[-1]], scalar or array.

    At the nodes the exponent is a prefix of 5-point Gauss-Legendre panels,
    accumulated outward from ``nodes[zero_idx] = 0`` so that rounding stays
    relative to |exponent|.  Between nodes it adds half * Q(u),
    u = (x - mid)/half, the partial panel of the polynomial through the
    panel's five Gauss values of S/sigma^2 (a fresh Gauss rule on [x_i, x]
    would call the coefficients five times per density point, and the tables
    evaluate the density 35 times per panel).
    """
    sigma = _vectorized(spec.diffusion)
    half = 0.5 * np.diff(nodes)
    mid = nodes[:-1] + half
    t = mid[:, None] + half[:, None] * _GL_X
    sig_t = sigma(t)
    s_gauss = _vectorized(spec.drift)(t) / (sig_t * sig_t)
    panels = half * (s_gauss @ _GL_W)
    at_nodes = np.zeros(len(nodes))
    np.cumsum(panels[zero_idx:], out=at_nodes[zero_idx + 1 :])
    at_nodes[:zero_idx] = -np.cumsum(panels[:zero_idx][::-1])[::-1]
    partial = (half[:, None] * (s_gauss @ _PARTIAL)).T
    last = len(nodes) - 2

    def exponent(x):
        i = np.minimum(np.searchsorted(nodes, x, side="right") - 1, last)
        u = (x - mid[i]) / half[i]
        e = partial[5, i]
        for c in partial[4::-1]:
            e = e * u + c[i]
        return at_nodes[i] + e

    def mass(x):
        sig = sigma(x)
        with np.errstate(over="ignore"):
            return np.exp(2.0 * exponent(x)) / (sig * sig)

    return exponent, mass


def _probe(spec: DiffusionSpec, probe_range: Bracket) -> tuple[ErgodicityReport, Callable, list[str]]:
    """The ergodicity report, the unnormalized mass on the probe range, and
    the reason for each failed condition."""
    lo, hi = probe_range.lo, probe_range.hi
    if not lo < 0.0 < hi:
        raise ValueError(f"the probe range must contain 0 inside, got [{lo}, {hi}]")
    nodes, zero_idx = _node_grid(lo, hi)
    sig = _vectorized(spec.diffusion)(nodes)
    bad = ~(np.isfinite(_vectorized(spec.drift)(nodes)) & np.isfinite(sig) & (sig > 0))
    if bad.any():
        x = nodes[bad.argmax()]
        raise ValueError(f"coefficients must be finite and sigma positive on the probe grid (x={x})")
    exponent, mass = _mass(spec, nodes, zero_idx)
    left, left_mid, right_mid, right = (float(e) for e in exponent(np.array([lo, lo / 2.0, hi / 2.0, hi])))
    c2_failures = [
        f"int_0^x S/sigma^2 does not fall toward -inf at the probe end x={end:g} ({e:.6g}, {e_mid:.6g} at x/2)"
        for end, e, e_mid in ((lo, left, left_mid), (hi, right, right_mid))
        if not e < min(e_mid, 0.0)
    ]
    lo_b, hi_b = nodes[:-1], nodes[1:]
    blocks = range(0, len(lo_b), _BLOCK)
    G = float(sum(_panels(mass, lo_b[j : j + _BLOCK], hi_b[j : j + _BLOCK])[1].sum() for j in blocks))
    c3_failures = [f"the stationary mass sums to G={G:g} on the probe range"]
    if math.isfinite(G) and G > 0:
        ends = np.array([lo, hi])
        c3_failures = [
            f"the stationary mass has not decayed at the probe end x={end:g} "
            f"(tail ratio mass*|x|/G = {ratio:.3g} > {REL_TOL:g})"
            for end, ratio in zip(ends, mass(ends) * np.abs(ends) / G)
            if not ratio <= REL_TOL
        ]
    report = ErgodicityReport(c2_left_limit=left, c2_right_limit=right, G=math.inf if c3_failures else G,
                              c2_holds=not c2_failures, c3_holds=not c3_failures)
    return report, mass, c2_failures + c3_failures


def check_ergodicity(spec: DiffusionSpec, probe_range: Bracket = _PROBE_RANGE) -> ErgodicityReport:
    """Probe the ergodicity conditions at finite range.

    int_0^x S/sigma^2 is the law's exponent on nodes ``_NODE_SPACING`` apart
    over the probe range; c2 holds when it is negative and still falling at
    both probe ends.  c3 holds when the panel sum G is finite and positive
    and the mass has decayed at both ends, mass(x)*|x| <= REL_TOL*G: about
    REL_TOL of G lies past x for a tail falling at least like |x|^-2.
    """
    return _probe(spec, probe_range)[0]


def _log_sum(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis; entries may be -inf.

    scipy.special.logsumexp does the same but its call overhead alone
    exceeds the rest of a table lookup.
    """
    top = np.maximum.reduce(v, axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.exp(v - top).sum(axis=-1)) + top[..., 0]


def _gauss_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Legendre points on the panels [lo, hi] and moments of f there.

    Returns the points t, their weights w, f(t), the panel moments
    P[k] = int_lo^hi xi^k f and the partial moments I[k] = int_lo^t xi^k f at
    every point t (a nested rule on [lo, t]), for k = 0..2.  f is called once.
    """
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None] + half[:, None] * _GL_X
    w = half[:, None] * _GL_W
    half_in = 0.5 * (t - lo[:, None])
    s = (lo[:, None] + half_in)[..., None] + half_in[..., None] * _GL_X
    vals = np.asarray(f(np.concatenate([t.ravel(), s.ravel()])), dtype=float)
    f_t = vals[: t.size].reshape(t.shape)
    wf_t = w * f_t
    wf_s = half_in[..., None] * _GL_W * vals[t.size:].reshape(s.shape)
    return t, w, f_t, _moments(t, wf_t), _moments(s, wf_s)


def _second_order_panels(F_t, m_t, f_t, sig2_t, w):
    """Panel integrals of the variance tables from values at the Gauss points.

    ``f_t``, ``sig2_t`` and ``w`` cover a row of panels, ``F_t`` the first
    of them and ``m_t`` the last (all of them when building the tables; a
    lookup's left partial panels and its right ones).  Returns, on the
    panels of ``F_t``, log int F^2/(sigma^2 f), and on those of ``m_t``
    log int sf^2/(sigma^2 f) and, for each pair j <= k, the
    sf^2/(sigma^2 f)-weighted panel mean of mu_j mu_k, where mu_k = m_k/sf
    is the conditional upper moment.  Products are formed in logs, so
    factors that underflow on their own still combine.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.log(w) - np.log(sig2_t) - np.log(f_t)
        la = _log_sum(2.0 * np.log(F_t) + base[: len(F_t)])
        lb_pts = 2.0 * np.log(m_t[0]) + base[len(base) - m_t.shape[1] :]
        lb = _log_sum(lb_pts)
        mu = m_t / m_t[0]
        q = (mu[_PAIRS[0]] * mu[_PAIRS[1]] * np.exp(lb_pts - lb[..., None])).sum(-1)
    return la, lb, q


@dataclass(frozen=True)
class LawPoint:
    """The tabulated quantities of a law at one point x, or at each of an
    array of points.

    ``m[k]`` = E[xi^k 1{xi > x}] (``m[0]`` is the survival function);
    ``log_A`` and ``log_B`` are the logarithms of
    A(x) = int_{-inf}^x F^2/(sigma^2 f) and B(x) = int_x^inf sf^2/(sigma^2 f);
    ``nu[j, k]`` = S_jk(x)/B(x) with S_jk(x) = int_x^inf m_j m_k/(sigma^2 f).
    For an array of n points every field gains a leading axis of length n
    (``m`` is (n, 3), ``nu`` is (n, 3, 3)), and ``outside`` marks the points
    that do not lie strictly inside the support, whose fields are NaN.
    """

    F: float
    m: np.ndarray
    log_A: float
    log_B: float
    nu: np.ndarray
    outside: np.ndarray | bool = False


class LawTables:
    """Node-level cumulative tables of a stationary law.

    On every panel of the node grid a 5-point Gauss-Legendre rule integrates
    the density moments (nested once more to get F, sf and the upper moments
    at the Gauss points) and then the variance integrands.  Stored per node:
    F as prefix sums and the upper moments m_0..m_2 as suffix sums of panels
    (the far tails keep relative accuracy); log A as a prefix and log B as a
    suffix of log-sum-exp accumulations; and the six suffix tables S_jk
    scaled by B, which keeps them O(1 + |x|^(j+k)) where S_jk itself would
    under- or overflow.  A lookup adds one partial panel at x.

    The grid is trimmed to the nodes where the density exceeds
    ``_MASS_FLOOR`` times its peak, so every first-order quantity is a
    normal double there.  Second-order lookups outside the trimmed support
    raise QuadratureFailure.
    """

    def __init__(self, nodes: np.ndarray, f: Callable, sigma: Callable) -> None:
        self.f = f
        self.sigma = sigma
        f_nodes = np.asarray(f(nodes), dtype=float)
        live = np.flatnonzero(f_nodes > _MASS_FLOOR * f_nodes.max())
        x = np.asarray(nodes[live[0] : live[-1] + 1], dtype=float)
        if len(x) < 2:
            raise NotErgodic("stationary density has no resolvable support on its node grid")
        n = len(x) - 1
        # the panels go through in blocks, twice: once for the node tables of
        # F and m, once for the variance integrands anchored on them; this
        # bounds the nested-rule temporaries to one block
        spans = [(j, min(j + _BLOCK, n)) for j in range(0, n, _BLOCK)]
        P = np.empty((3, n))
        for j, k in spans:
            P[:, j:k] = _moments(*_panels(f, x[j:k], x[j + 1 : k + 1]))
        F = np.zeros(n + 1)
        np.cumsum(P[0], out=F[1:])
        m = np.zeros((3, n + 1))
        m[:, :-1] = np.cumsum(P[:, ::-1], axis=1)[:, ::-1]
        la, lb, q = np.empty(n), np.empty(n), np.empty((len(_PAIRS[0]), n))
        for j, k in spans:
            t, w, f_t, P_b, I = _gauss_panels(f, x[j:k], x[j + 1 : k + 1])
            sig = np.asarray(sigma(t), dtype=float)
            la[j:k], lb[j:k], q[:, j:k] = _second_order_panels(
                F[j:k, None] + I[0], m[:, j + 1 : k + 1, None] + (P_b[..., None] - I), f_t, sig * sig, w
            )
        log_B = np.concatenate([np.logaddexp.accumulate(lb[::-1])[::-1], [-np.inf]])
        # S_jk may change sign (m_1 < 0 below a negative mean), so the positive
        # and negative panels of each are accumulated apart, in logs
        nu = np.zeros((len(q), n + 1))
        with np.errstate(divide="ignore"):
            for row, q_row in zip(nu, q):
                for sign in (1.0, -1.0):
                    log_part = np.where(sign * q_row > 0.0, lb + np.log(np.abs(q_row)), -np.inf)
                    row[:-1] += sign * np.exp(np.logaddexp.accumulate(log_part[::-1])[::-1] - log_B[:-1])
        self.x = x
        self.F = F
        self.m = m
        self.log_A = np.concatenate([[-np.inf], np.logaddexp.accumulate(la)])
        self.log_B = log_B
        self.nu = nu

    @property
    def support(self) -> tuple[float, float]:
        return float(self.x[0]), float(self.x[-1])

    def _locate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """x clipped into the support, and the index of its panel."""
        x = np.clip(np.asarray(x, dtype=float), self.x[0], self.x[-1])
        return x, np.minimum(np.searchsorted(self.x, x, side="right") - 1, len(self.x) - 2)

    def cdf(self, x):
        """F(x) at any real x, scalar or array: the prefix F of x's panel plus
        the partial panel up to x."""
        x, i = self._locate(x)
        return _as_output(self.F[i] + _panels(self.f, self.x[i], x)[1].sum(-1))

    def upper_moments(self, x) -> np.ndarray:
        """(m_0, m_1, m_2)(x) with m_k = E[xi^k 1{xi > x}], at any real x,
        scalar or array: the suffix tables of the next node plus the partial
        panel from x."""
        x, i = self._locate(x)
        return self.m[:, i + 1] + _moments(*_panels(self.f, x, self.x[i + 1]))

    def sf(self, x):
        """sf(x) = m_0(x) at any real x, scalar or array."""
        return _as_output(self.upper_moments(x)[0])

    def at(self, x) -> LawPoint:
        """Every tabulated quantity at x, a float or an array of points.

        Each point adds one partial panel on either side of it to the node
        tables.  A float must lie strictly inside the support, else
        QuadratureFailure; an array is one lookup whose points outside come
        back flagged (see ``LawPoint``).  A float runs through the same code
        as an array of one point, so both give the same bits.
        """
        lo, hi = self.support
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 0
        if scalar:
            if not lo < x < hi:
                raise QuadratureFailure(
                    f"x={x:.6g} lies outside the tabulated support ({lo:.6g}, {hi:.6g}) of the law"
                )
            pts = pts.reshape(1)
        else:
            outside = ~((pts > lo) & (pts < hi))
            if outside.any():  # an interior node stands in; its fields are replaced below
                pts = np.where(outside, self.x[1], pts)
        n = len(pts)
        i = self.x.searchsorted(pts, side="right") - 1
        j = i + 1
        m_next = self.m[:, j]
        # panels [x_i, x] (the first n) extend the prefix tables, panels
        # [x, x_i+1] the suffix ones
        ends = np.concatenate([self.x[i], pts, self.x[j]])
        t, w, f_t, P, I = _gauss_panels(self.f, ends[: 2 * n], ends[n:])
        sig = np.asarray(self.sigma(t), dtype=float)
        F_t = self.F[i, None] + I[0, :n]
        m_t = m_next[..., None] + (P[:, n:, None] - I[:, n:])
        la, lb, q = _second_order_panels(F_t, m_t, f_t, sig * sig, w)
        log_B_next = self.log_B[j]
        log_B = np.logaddexp(log_B_next, lb)
        shift = libm(math.exp, np.array([log_B_next, lb]) - log_B)
        pairs = self.nu[:, j] * shift[0] + q * shift[1]
        # contiguous rows: BLAS rounds the energy form's products on a strided
        # matrix differently from one point's
        nu = np.ascontiguousarray(pairs[_SYMMETRIC].T).reshape(n, 3, 3)
        F = self.F[i] + P[0, :n]
        m = np.ascontiguousarray((m_next + P[:, n:]).T)
        log_A = np.logaddexp(self.log_A[i], la)
        if scalar:
            return LawPoint(
                F=float(F[0]), m=m[0], log_A=float(log_A[0]), log_B=float(log_B[0]), nu=nu[0]
            )
        if outside.any():
            F, log_A, log_B = (np.where(outside, np.nan, v) for v in (F, log_A, log_B))
            m[outside] = np.nan
            nu[outside] = np.nan
        return LawPoint(F=F, m=m, log_A=log_A, log_B=log_B, nu=nu, outside=outside)


def build_invariant_law(spec: DiffusionSpec) -> InvariantLaw:
    """Construct the stationary law of a diffusion from its coefficients.

    The law is its ``LawTables`` and nothing else.  The support edges come
    from the mass of the ergodicity probe; on the support nodes the density
    exponent int_0^x S/sigma^2 is evaluated again by the same panel rule,
    and G is the panel sum of the mass exp(2*exponent)/sigma^2.  F, sf and
    the quantile (a bracketed root of F or sf) read the tables.  The
    ergodicity report is kept on the law.  Raises NotErgodic, naming each
    failed condition, when the ergodicity probes fail.
    """
    report, probe_mass, failures = _probe(spec, _PROBE_RANGE)
    if failures:
        raise NotErgodic("ergodicity checks failed: " + "; ".join(failures))
    nodes, zero_idx = _node_grid(*_support_edges(probe_mass))
    del probe_mass  # frees the probe range's panel tables before the support ones exist
    mass = _mass(spec, nodes, zero_idx)[1]
    G = float(_panels(mass, nodes[:-1], nodes[1:])[1].sum())
    lo, hi = float(nodes[0]), float(nodes[-1])

    def f(x):
        x = np.asarray(x, dtype=float)
        return _as_output(np.where((x >= lo) & (x <= hi), mass(np.clip(x, lo, hi)) / G, 0.0))

    tables = _lazy_tables(nodes, spec.diffusion)

    def quantile(p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile is defined on (0, 1)")
        # the lower tail of F and the upper tail of sf carry relative
        # accuracy; solve against whichever side resolves p
        if p <= 0.5:
            g = lambda x: tables(f).cdf(x) - p
        else:
            q = 1.0 - p
            g = lambda x: q - tables(f).sf(x)
        q_lo, q_hi = -1.0, 1.0
        while g(q_lo) > 0.0 and q_lo > lo:
            q_lo = max(q_lo * 2.0, lo)
        while g(q_hi) < 0.0 and q_hi < hi:
            q_hi = min(q_hi * 2.0, hi)
        return find_root(g, Bracket(q_lo, q_hi), tol=1e-12)

    return InvariantLaw(
        f=f,
        F=lambda x: tables(f).cdf(x),
        sf=lambda x: tables(f).sf(x),
        quantile=quantile,
        G=G,
        spec=spec,
        grid_x=nodes,
        label=spec.label or "custom",
        ergodicity=report,
        lazy_tables=tables,
    )


def _half_erfc(x, sign: float = 1.0):
    """erfc(sign * x)/2 for a scalar or an array."""
    if isinstance(x, (int, float)):
        return 0.5 * math.erfc(sign * x)
    return _as_output(0.5 * np.vectorize(math.erfc, otypes=[float])(sign * np.asarray(x, dtype=float)))


def ou_law() -> InvariantLaw:
    """Closed-form stationary law of the standard mean-reverting noise.

    The law is Gaussian with mean zero and variance 1/2: density
    exp(-x^2)/sqrt(pi), distribution erfc(-x)/2, survival erfc(x)/2 and the
    Gaussian quantile.  Its node grid follows the support rule of
    ``build_invariant_law`` applied to exp(-x^2).  The diffusion is the
    compiled constant ``1``, so paths of this law take the steppers'
    constant-diffusion route.
    """
    spec = DiffusionSpec(drift=lambda x: -x, diffusion=compile_expression("1"), label="ou")

    def f(x):
        return _as_output(np.exp(-np.square(np.asarray(x, dtype=float))) / _SQRT_PI)

    nodes = _node_grid(*_support_edges(lambda y: np.exp(-np.square(y))))[0]
    return InvariantLaw(
        f=f,
        F=partial(_half_erfc, sign=-1.0),
        sf=_half_erfc,
        quantile=NormalDist(0.0, math.sqrt(0.5)).inv_cdf,
        G=_SQRT_PI,
        spec=spec,
        grid_x=nodes,
        label="ou",
        lazy_tables=_lazy_tables(nodes, spec.diffusion),
    )


NAMED_SPECS: dict[str, Callable[[], InvariantLaw]] = {"ou": ou_law}
