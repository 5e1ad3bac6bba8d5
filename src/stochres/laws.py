"""Stationary (invariant) law of the noise diffusion.

A diffusion dX = S(X)dt + sigma(X)dW with suitable drift admits a stationary
density proportional to exp(2*int_0^x S/sigma^2) / sigma(x)^2.  This module
checks the ergodicity conditions numerically, builds the normalized law from
arbitrary coefficients, and provides the closed-form law for the standard
mean-reverting (Ornstein-Uhlenbeck) noise, which is Gaussian with mean zero
and variance 1/2.

A law is its density and the cumulative tables of that density on a node
grid (``LawTables``), from which the asymptotic variances of both
observation schemes are read in O(1) per noise level; one lookup takes a
whole array of gaps.  Both constructors hand the density and its
ergodicity report to one builder, ``_tables_law``; the report's G
normalizes the density, so ``law.ergodicity.G`` is the law's one
normalizer.  The builder builds the first-order tables (F and the upper
moments) with the law, forms the public f and lets F, sf and the quantile
read those tables: the closed-form law differs from a law built from
coefficients only in its density and its report, which is closed-form
too.  The variance tables are built by their first reader: A and B at the
first variance lookup, the S_jk at the first energy variance.  A law built
from coefficients hands the tables the mass at the Gauss points that G
summed, divided by G, so a build computes the density at each point once.
One rule sets every support: the probe's node masses, read from the
exponent it already holds at its nodes, rounded out to powers of two (see
``_support_edges``).
The tables call the density with the panel of the node grid that holds
each point, a slice of whole panels in a build and the panel a lookup has
located, so only a law's public f (and the probe) searches the nodes.  The
ergodicity check, the support edges and the density exponent all come from
one Gauss-Legendre panel rule.  The tables invert F and sf themselves
(``LawTables.inverse``): each level is one root of F or sf in the node panel
whose table entries bracket it, and all levels are one array root find, so
no law imports scipy.

The layer works on arrays.  A user coefficient is lifted to its array form
once, by ``numerics._array_form``, from the probe's node grid: a law build and the
tables read the lifted form, and the Euler-Maruyama ensemble lifts it once
more from its first row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import NotErgodic
from .expressions import compile_expression
from .numerics import REL_TOL, Bracket, _array_form, _brent

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
_PROBE_ENDS = np.array([_PROBE_RANGE.lo, _PROBE_RANGE.hi])
# the support edges: powers of two from 1 up to the first past the probe range
_EDGES = 2.0 ** np.arange(7)
_NODE_SPACING = 0.005

# index pairs j <= k of the six suffix tables S_jk, and the pair of each
# entry of the symmetric 3 x 3 matrix, row by row
_PAIRS = np.triu_indices(3)
_SYMMETRIC = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
# panels per block when building the tables
_BLOCK = 512


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficients of the noise SDE dX = drift(X)dt + diffusion(X)dW.

    A coefficient may take arrays, take floats only, or return one
    constant whatever its argument: a law build and an ensemble each lift
    it to an array form once.  A diffusion with a float ``constant`` attribute, as a compiled
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
    stationary mass must be finite (c3): its panel sum G over the support
    is finite and it has decayed at both probe ends (else G is inf).  G is
    the normalizer of the law built from the same coefficients, to the bit.
    The support is set by the probe's node masses (see ``_support_edges``).
    Every law carries one: a law built from coefficients the report its
    build checked, the closed-form law its exact one.
    """

    c2_left_limit: float
    c2_right_limit: float
    G: float
    c2_holds: bool
    c3_holds: bool


@dataclass(frozen=True)
class InvariantLaw:
    """Stationary law: density f, distribution F, survival sf and quantile.

    ``grid_x`` is the node grid over the numerical support and ``tables``
    the cumulative tables of ``f`` on it: the first-order ones are built
    with the law, the variance ones by their first reader (see
    ``LawTables``).  F, sf and the quantile read those tables, so every
    law has one representation; ``sf`` is the tables' upper moment m_0, not
    ``1 - F``, so that far tails retain relative accuracy.  Beyond the tabulated support F is 0 or
    1 and sf 1 or 0.  Every law keeps its ``ergodicity`` report: the one
    its build checked, or the closed form's.  The report's G is the law's
    one normalizer.  Instances are immutable apart from the tables'
    variance cache and safe to share.
    """

    f: Callable
    F: Callable
    sf: Callable
    quantile: Callable
    spec: DiffusionSpec
    grid_x: np.ndarray = field(repr=False, compare=False)
    tables: "LawTables" = field(repr=False, compare=False)
    ergodicity: ErgodicityReport = field(compare=False)
    label: str = ""


def _as_output(out: np.ndarray):
    """A float for a scalar argument, the array otherwise."""
    return float(out) if out.ndim == 0 else out


def _gauss_rule(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss-Legendre points t and weights w on the panels [lo, hi]
    (which broadcast).  Both put a Gauss axis of length 5 before the panel
    axes, shape (5,) for one scalar panel, so that a sum over the rule adds
    whole contiguous rows rather than 5 entries per panel."""
    half = 0.5 * (np.asarray(hi, dtype=float) - lo)
    return (lo + half) + np.multiply.outer(_GL_X, half), np.multiply.outer(_GL_W, half)


def _panels(fn: Callable, lo, hi, i) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss points t of the panels [lo, hi], which lie in the panels i
    of the density's node grid, and w*fn(t, i), in ``_gauss_rule``'s layout."""
    t, w = _gauss_rule(lo, hi)
    return t, w * np.asarray(fn(t, i), dtype=float)


def _moments(t: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """The rule's moments sum(w f t^k), k = 0..2, over the leading Gauss
    axis of ``_panels``' layout: the 3 moments lead, the panel axes follow."""
    wft = wf * t
    return np.array([wf.sum(0), wft.sum(0), (wft * t).sum(0)])


def _support_edges(nodes: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
    """The support of the unnormalized ``mass`` at the probe's ``nodes``:
    each edge is the smallest of the powers of two 1, 2, 4, ... that lies
    beyond every node whose mass exceeds ``_MASS_FLOOR`` times the largest
    node mass, capped at ``_PROBE_RANGE``.  A largest mass that is not
    finite and positive bounds nothing: the support is then the whole probe
    range."""
    peak = float(mass.max())
    if not (math.isfinite(peak) and peak > 0):
        return _PROBE_RANGE.lo, _PROBE_RANGE.hi
    live = nodes[mass > _MASS_FLOOR * peak]
    return (max(-float(_EDGES[_EDGES > -live[0]][0]), _PROBE_RANGE.lo),
            min(float(_EDGES[_EDGES > live[-1]][0]), _PROBE_RANGE.hi))


def _node_grid(lo: float, hi: float) -> tuple[np.ndarray, int]:
    """Nodes ``_NODE_SPACING`` apart over [lo, hi], lo < 0 < hi, with 0 among
    them, and the index of 0."""
    n_left = max(int(round(-lo / _NODE_SPACING)), 8)
    n_right = max(int(round(hi / _NODE_SPACING)), 8)
    nodes = np.concatenate([np.linspace(lo, 0.0, n_left + 1)[:-1], np.linspace(0.0, hi, n_right + 1)])
    return nodes, n_left


def _panel_of(nodes: np.ndarray, x):
    """The index of the panel of ``nodes`` that holds each x; the last panel
    holds the last node.  A density called by the tables is passed its
    panels, so only a law's public ``f`` and its probe search."""
    return np.minimum(np.searchsorted(nodes, x, side="right") - 1, len(nodes) - 2)


def _mass(drift: Callable, sigma: Callable, nodes: np.ndarray,
          zero_idx: int) -> tuple[np.ndarray, Callable, Callable]:
    """The exponent int_0^x S/sigma^2 at the nodes, the exponent, and the
    unnormalized stationary mass exp(2*exponent)/sigma^2, from the array
    forms of the coefficients.  The two functions take (x, i): x, scalar or
    array, lies in the panels i of ``nodes``
    (panel k is [nodes[k], nodes[k+1]]).  i broadcasts along the last axis
    of x: an index array, or a slice when that axis runs over consecutive
    panels, whose coefficients are then read as views.  Neither searches
    the nodes (``_panel_of`` does, for callers that do not know the panel).

    At the nodes the exponent is a prefix of 5-point Gauss-Legendre panels,
    accumulated outward from ``nodes[zero_idx] = 0`` so that rounding stays
    relative to |exponent|.  Between nodes it adds half * Q(u),
    u = (x - mid)/half, the partial panel of the polynomial through the
    panel's five Gauss values of S/sigma^2 (a fresh Gauss rule on [x_i, x]
    would call the coefficients five times per density point, and the tables
    evaluate the density 35 times per panel).
    """
    half = 0.5 * np.diff(nodes)
    mid = nodes[:-1] + half
    t = mid[:, None] + half[:, None] * _GL_X
    sig_t = sigma(t)
    s_gauss = drift(t) / (sig_t * sig_t)
    panels = half * (s_gauss @ _GL_W)
    at_nodes = np.zeros(len(nodes))
    np.cumsum(panels[zero_idx:], out=at_nodes[zero_idx + 1 :])
    at_nodes[:zero_idx] = -np.cumsum(panels[:zero_idx][::-1])[::-1]
    partial = (half[:, None] * (s_gauss @ _PARTIAL)).T
    at_left = at_nodes[:-1]  # per panel, as half, mid and partial are

    def exponent(x, i):
        u = (x - mid[i]) / half[i]
        e = partial[5, i]
        for c in partial[4::-1]:
            e = e * u + c[i]
        return at_left[i] + e

    def mass(x, i):
        sig = sigma(x)
        with np.errstate(over="ignore"):
            return np.exp(2.0 * exponent(x, i)) / (sig * sig)

    return at_nodes, exponent, mass


def _probe(spec: DiffusionSpec) -> tuple[tuple[float, float], list[str], np.ndarray, tuple[float, float],
                                         tuple[Callable, Callable]]:
    """The exponent int_0^x S/sigma^2 at both probe ends, the reason for
    each failed c2 condition, the unnormalized mass at the probe ends, the
    support edges, and the array forms of the drift and the diffusion,
    lifted from the probe's node grid.  Nothing of the probe's node grid
    outlives the call.

    The support edges come from the mass at every probe node, read from the
    exponent at the nodes (see ``_support_edges``); the mass function itself
    is called only at the two probe ends.  Past the edges of a bounded
    support every node mass is below ``_MASS_FLOOR`` of the largest, so the
    support holds all of G that the probe range does; a mass that is not
    finite at some node makes the support the whole probe range, where G
    sums it."""
    lo, hi = _PROBE_RANGE.lo, _PROBE_RANGE.hi
    nodes, zero_idx = _node_grid(lo, hi)
    drift, sigma = _array_form(spec.drift, nodes), _array_form(spec.diffusion, nodes)
    sig = sigma(nodes)
    bad = ~(np.isfinite(drift(nodes)) & np.isfinite(sig) & (sig > 0))
    if bad.any():
        x = nodes[bad.argmax()]
        raise ValueError(f"coefficients must be finite and sigma positive on the probe grid (x={x})")
    at_nodes, exponent, mass = _mass(drift, sigma, nodes, zero_idx)
    probes = np.array([lo, lo / 2.0, hi / 2.0, hi])
    left, left_mid, right_mid, right = (float(e) for e in exponent(probes, _panel_of(nodes, probes)))
    c2_failures = [
        f"int_0^x S/sigma^2 does not fall toward -inf at the probe end x={end:g} ({e:.6g}, {e_mid:.6g} at x/2)"
        for end, e, e_mid in ((lo, left, left_mid), (hi, right, right_mid))
        if not e < min(e_mid, 0.0)
    ]
    end_mass = mass(_PROBE_ENDS, np.array([0, -1]))
    with np.errstate(over="ignore"):
        edges = _support_edges(nodes, np.exp(2.0 * at_nodes) / np.square(sig))
    return (left, right), c2_failures, end_mass, edges, (drift, sigma)


def _support_mass(spec: DiffusionSpec) -> tuple[ErgodicityReport, list[str], np.ndarray, Callable, np.ndarray,
                                                Callable]:
    """The ergodicity report, the reason for each failed condition, the
    support's nodes, the unnormalized mass on them (see ``_mass``), the mass
    at the Gauss points of every support panel, in ``_gauss_rule``'s
    layout, and the diffusion's array form.  G, the one normalizer, is the
    panel sum of those Gauss-point masses."""
    (left, right), c2_failures, end_mass, edges, (drift, sigma) = _probe(spec)
    nodes, zero_idx = _node_grid(*edges)
    mass = _mass(drift, sigma, nodes, zero_idx)[2]
    t, w = _gauss_rule(nodes[:-1], nodes[1:])
    mass_t = mass(t, slice(None))
    # sum a contiguous (n, 5) copy: a flat sum of the (5, n) block groups the adds otherwise
    G = float((w * mass_t).T.copy().sum())
    c3_failures = [f"the stationary mass sums to G={G:g} on the probe range"]
    if math.isfinite(G) and G > 0:
        c3_failures = [
            f"the stationary mass has not decayed at the probe end x={end:g} "
            f"(tail ratio mass*|x|/G = {ratio:.3g} > {REL_TOL:g})"
            for end, ratio in zip(_PROBE_ENDS, end_mass * np.abs(_PROBE_ENDS) / G)
            if not ratio <= REL_TOL
        ]
    report = ErgodicityReport(c2_left_limit=left, c2_right_limit=right, G=math.inf if c3_failures else G,
                              c2_holds=not c2_failures, c3_holds=not c3_failures)
    return report, c2_failures + c3_failures, nodes, mass, mass_t, sigma


def check_ergodicity(spec: DiffusionSpec) -> ErgodicityReport:
    """Probe the ergodicity conditions at finite range.

    int_0^x S/sigma^2 is the law's exponent on nodes ``_NODE_SPACING`` apart
    over the fixed probe range [-50, 50]; c2 holds when it is negative and
    still falling at both probe ends.  c3 holds when G, the panel sum of the
    mass over the support that ``build_invariant_law`` builds on, is finite
    and positive and the mass has decayed at both probe ends,
    mass(x)*|x| <= REL_TOL*G: about REL_TOL of G lies past x for a tail
    falling at least like |x|^-2.  The support is the whole probe range when
    the largest node mass is not finite (see ``_support_edges``), so a mass
    that is infinite at a probe node fails c3.
    """
    return _support_mass(spec)[0]


def _log_sum(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the leading Gauss axis, one value per panel;
    entries may be -inf.

    scipy.special.logsumexp does the same but its call overhead alone
    exceeds the rest of a table lookup.
    """
    top = np.maximum.reduce(v, axis=0)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.exp(v - top).sum(0)) + top


def _nested_moments(density: Callable, lo, t: np.ndarray, i) -> np.ndarray:
    """The partial moments I[k] = int_lo^t xi^k f at every Gauss point t of
    the panels starting at lo, which lie in the panels i of the density's
    node grid: shape (3, 5, n), from a nested rule on [lo, t] whose own
    Gauss axis leads the (5, 5, n) block of points it sums.  The density is
    called on the nested points with the panel axis last, so that i
    broadcasts against them."""
    s, w_s = _gauss_rule(lo, t)
    return _moments(s, w_s * np.asarray(density(s, i), dtype=float))


def _gauss_panels(density: Callable, lo: np.ndarray, hi: np.ndarray, i):
    """Gauss-Legendre points on the n panels [lo, hi] and moments of the
    density there; the panels lie in the panels i of its node grid.

    Returns the points t, their weights w, f(t), each of shape (5, n) (the
    Gauss axis leads, the panel axis follows), the panel moments
    P[k] = int_lo^hi xi^k f, shape (3, n), and the partial moments
    I[k] = int_lo^t xi^k f at every point t (see ``_nested_moments``).
    """
    t, w = _gauss_rule(lo, hi)
    f_t = np.asarray(density(t, i), dtype=float)
    return t, w, f_t, _moments(t, w * f_t), _nested_moments(density, lo, t, i)


def _second_order_panels(F_t, m_t, f_t, sig2_t, w):
    """Panel integrals of the variance tables from values at the Gauss points.

    ``f_t``, ``sig2_t`` and ``w`` (shape (5, n): the Gauss axis leads, the
    panel axis follows) cover a row of panels, ``F_t`` (5, n_F) the first of
    them and ``m_t`` (3, 5, n_m) the last (all of them when building the
    tables; a lookup's left partial panels and its right ones).  Returns, on the
    panels of ``F_t``, log int F^2/(sigma^2 f), and on those of ``m_t``
    log int sf^2/(sigma^2 f) and, for each pair j <= k, the
    sf^2/(sigma^2 f)-weighted panel mean of mu_j mu_k, where mu_k = m_k/sf
    is the conditional upper moment.  Products are formed in logs, so
    factors that underflow on their own still combine.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.log(w) - np.log(sig2_t) - np.log(f_t)
        la = _log_sum(2.0 * np.log(F_t) + base[:, : F_t.shape[1]])
        lb_pts = 2.0 * np.log(m_t[0]) + base[:, base.shape[1] - m_t.shape[2] :]
        lb = _log_sum(lb_pts)
        mu = m_t / m_t[0]
        q = (mu[_PAIRS[0]] * mu[_PAIRS[1]] * np.exp(lb_pts - lb)).sum(1)
    return la, lb, q


def _suffix_tables(log_B: np.ndarray, lb: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The six S_jk/B at the nodes, shape (6, n + 1) in ``_PAIRS`` order,
    from log B at the nodes, each panel's log int sf^2/(sigma^2 f) ``lb``
    and its pair means ``q`` (see ``_second_order_panels``)."""
    # S_jk may change sign (m_1 < 0 below a negative mean), so the positive
    # and negative panels of each are accumulated apart, in logs; a part
    # with no panel would add -0.0 or +0.0 to every entry, and is skipped
    nu = np.zeros((len(q), len(lb) + 1))
    with np.errstate(divide="ignore"):
        for row, q_row in zip(nu, q):
            log_q = lb + np.log(np.abs(q_row))
            for sign in (1.0, -1.0):
                part = sign * q_row > 0.0
                if part.any():
                    log_part = np.where(part, log_q, -np.inf)
                    row[:-1] += sign * np.exp(np.logaddexp.accumulate(log_part[::-1])[::-1] - log_B[:-1])
    return nu


@dataclass(frozen=True)
class LawPoint:
    """The tabulated quantities of a law at each of an array of n points x.

    ``m[:, k]`` = E[xi^k 1{xi > x}] (``m[:, 0]`` is the survival function);
    ``log_A`` and ``log_B`` are the logarithms of
    A(x) = int_{-inf}^x F^2/(sigma^2 f) and B(x) = int_x^inf sf^2/(sigma^2 f);
    ``nu[:, j, k]`` = S_jk(x)/B(x) with S_jk(x) = int_x^inf m_j m_k/(sigma^2 f).
    ``F``, ``log_A`` and ``log_B`` have length n, ``m`` is (n, 3) and ``nu``
    (n, 3, 3).  ``outside``, always a boolean array of length n, marks the
    points that do not lie strictly inside the support, whose fields are NaN.
    ``nu`` is formed at its first read, by ``_nu``, so a lookup whose reader
    never reads it (a time-scheme variance) builds no S_jk table.
    """

    F: np.ndarray
    m: np.ndarray
    log_A: np.ndarray
    log_B: np.ndarray
    outside: np.ndarray
    _nu: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def nu(self) -> np.ndarray:
        return self._nu()


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

    The first-order tables (the trim, F and m) are built with the tables,
    and so with the law; ``cdf``, ``upper_moments``, ``inverse`` and
    ``support`` read only them.  The variance tables are built once each,
    by their first reader: ``log_A`` and ``log_B`` at the first ``at`` or
    the first read of one of them, and ``nu`` at its first read, from the
    table's own ``nu`` or a lookup's, which only the energy variance makes.
    The pass of ``log_A`` and ``log_B`` reuses the density that the first
    pass kept at the Gauss points, calls the density only on the nested
    points, and keeps the panel sums that ``nu`` accumulates.

    Every panel kernel holds the 5 Gauss points on the leading axis and the
    panels on the last one: (5, n) per quantity, (3, 5, n) for the moments
    at the points and (5, 5, n) for the nested rule, so each sum over a rule
    adds contiguous rows.  numpy adds the 5 points of a rule in sequence
    whichever axis holds them, so the layout does not move a bit of the
    tables.

    The grid is trimmed to the nodes where the density exceeds
    ``_MASS_FLOOR`` times its peak, so every first-order quantity is a
    normal double there.  A second-order lookup flags its points outside
    the trimmed support.  ``density(x, i)`` is the law's density at points
    x of the panels i of ``nodes`` (see ``_mass``): the build and every
    lookup know the panel of each point they pass, so none searches for it;
    a build passes a slice per block.  ``f_gauss``, when a law's build
    already holds it, is the density at the Gauss points of every panel of
    ``nodes``, shape (5, len(nodes) - 1), as ``density`` would give it; the
    first pass then calls no density on them.  ``sigma`` is the diffusion's
    array form (see ``_array_form``): it is called on arrays of Gauss points
    as it is.
    """

    def __init__(self, nodes: np.ndarray, density: Callable, sigma: Callable,
                 f_gauss: Optional[np.ndarray] = None) -> None:
        self.density = density
        self.sigma = sigma
        # node k is the left end of panel k, the last node the right end of the last panel
        f_nodes = np.asarray(density(nodes, np.minimum(np.arange(len(nodes)), len(nodes) - 2)), dtype=float)
        live = np.flatnonzero(f_nodes > _MASS_FLOOR * f_nodes.max())
        # panel j of the trimmed grid is panel j + _shift of nodes
        self._shift = shift = int(live[0])
        x = np.asarray(nodes[shift : live[-1] + 1], dtype=float)
        if len(x) < 2:
            raise NotErgodic("stationary density has no resolvable support on its node grid")
        n = len(x) - 1
        # the panels go through in blocks, in each pass: the node tables of F
        # and m here, the variance integrands anchored on them at the first
        # lookup; this bounds the nested-rule temporaries to one block
        self._spans = [(j, min(j + _BLOCK, n)) for j in range(0, n, _BLOCK)]
        # the density at the Gauss points of every panel, kept for the variance pass
        self._f_t = f_t = np.empty((len(_GL_X), n))
        P = np.empty((3, n))
        for j, k in self._spans:
            t, w = _gauss_rule(x[j:k], x[j + 1 : k + 1])
            panels = slice(shift + j, shift + k)
            f_t[:, j:k] = density(t, panels) if f_gauss is None else f_gauss[:, panels]
            P[:, j:k] = _moments(t, w * f_t[:, j:k])
        self.x = x
        self.F = np.zeros(n + 1)
        np.cumsum(P[0], out=self.F[1:])
        self.m = np.zeros((3, n + 1))
        self.m[:, :-1] = np.cumsum(P[:, ::-1], axis=1)[:, ::-1]

    @cached_property
    def _second_order(self) -> tuple[np.ndarray, np.ndarray]:
        """log A and log B at the nodes, from the variance integrands of
        every panel, anchored on the first-order tables.  The panels'
        log int sf^2/(sigma^2 f) and pair means are kept for ``nu``."""
        x, F, m, f_t, shift = self.x, self.F, self.m, self._f_t, self._shift
        n = len(x) - 1
        la, lb, q = np.empty(n), np.empty(n), np.empty((len(_PAIRS[0]), n))
        for j, k in self._spans:
            t, w = _gauss_rule(x[j:k], x[j + 1 : k + 1])
            # the panel moments of the first pass, to the bit
            P = _moments(t, w * f_t[:, j:k])
            I = _nested_moments(self.density, x[j:k], t, slice(shift + j, shift + k))
            la[j:k], lb[j:k], q[:, j:k] = _second_order_panels(
                F[j:k] + I[0], m[:, None, j + 1 : k + 1] + (P[:, None] - I), f_t[:, j:k],
                np.square(self.sigma(t)), w
            )
        log_B = np.concatenate([np.logaddexp.accumulate(lb[::-1])[::-1], [-np.inf]])
        self._lb, self._q = lb, q
        del self._f_t  # this pass is its only reader
        return np.concatenate([[-np.inf], np.logaddexp.accumulate(la)]), log_B

    @property
    def log_A(self) -> np.ndarray:
        return self._second_order[0]

    @property
    def log_B(self) -> np.ndarray:
        return self._second_order[1]

    @cached_property
    def nu(self) -> np.ndarray:
        # log_B first: its pass keeps lb and q
        nu = _suffix_tables(self.log_B, self._lb, self._q)
        del self._lb, self._q  # this pass is their only reader
        return nu

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
        return _as_output(self.F[i] + _panels(self.density, self.x[i], x, i + self._shift)[1].sum(0))

    def upper_moments(self, x) -> np.ndarray:
        """(m_0, m_1, m_2)(x) with m_k = E[xi^k 1{xi > x}], at any real x,
        scalar or array: the suffix tables of the next node plus the partial
        panel from x."""
        x, i = self._locate(x)
        return self.m[:, i + 1] + _moments(*_panels(self.density, x, self.x[i + 1], i + self._shift))

    def inverse(self, c: np.ndarray, upper: bool) -> np.ndarray:
        """The x with F(x) = c, or sf(x) = c when ``upper``, at each level c
        of a 1-d array in (0, 1).

        A level above 1/2 is solved on the other tail at 1 - c, which is
        exact there (Sterbenz), so each side keeps relative accuracy.  One
        search of the side's node table, F against the level or -m_0 against
        minus the level, finds the panel i whose two entries bracket it; they
        are the residual at the bracket ends, and ``numerics._brent`` solves
        in that panel.  Each evaluation adds the partial panel to the node
        table as ``cdf`` and ``upper_moments`` do once they have located x, so
        the residual is the law's own F or sf, bit for bit, and nothing clips
        or searches."""
        c = np.asarray(c, dtype=float)
        flip = c > 0.5
        on_sf = flip != upper
        # each side's table and level, both increasing in x: F and c, or -m_0 and -c
        key = np.where(flip, 1.0 - c, c) * np.where(on_sf, -1.0, 1.0)
        neg_m0 = -self.m[0]
        i = np.where(on_sf, neg_m0.searchsorted(key), self.F.searchsorted(key)) - 1
        ends = np.array([i, i + 1])

        def g(x, e):
            # F[i] + int_{x_i}^x f, or -(m_0[i + 1] + int_x^{x_i+1} f)
            j, sf = i[e], on_sf[e]
            partial = _panels(self.density, np.where(sf, x, self.x[j]), np.where(sf, self.x[j + 1], x),
                              j + self._shift)[1].sum(0)
            return np.where(sf, neg_m0[j + 1] - partial, self.F[j] + partial) - key[e]

        return _brent(g, *self.x[ends], *(np.where(on_sf, neg_m0[ends], self.F[ends]) - key), 1e-12)

    def at(self, x: np.ndarray) -> LawPoint:
        """Every tabulated quantity at each point of the 1-d array x, in one
        lookup; a single point is ``at(np.array([x]))``.

        Each point adds one partial panel on either side of it to the node
        tables.  Points that do not lie strictly inside the support come
        back flagged, with NaN fields (see ``LawPoint``).
        """
        lo, hi = self.support
        pts = np.asarray(x, dtype=float)
        outside = ~((pts > lo) & (pts < hi))
        if outside.any():  # an interior node stands in; its fields are replaced below
            pts = np.where(outside, self.x[1], pts)
        n = len(pts)
        i = self.x.searchsorted(pts, side="right") - 1
        j = i + 1
        m_next = self.m[:, j]
        # panels [x_i, x] (the first n) extend the prefix tables, panels
        # [x, x_i+1] the suffix ones; both lie in panel i
        ends = np.concatenate([self.x[i], pts, self.x[j]])
        t, w, f_t, P, I = _gauss_panels(self.density, ends[: 2 * n], ends[n:], np.tile(i + self._shift, 2))
        F_t = self.F[i] + I[0, :, :n]
        m_t = m_next[:, None] + (P[:, None, n:] - I[:, :, n:])
        la, lb, q = _second_order_panels(F_t, m_t, f_t, np.square(self.sigma(t)), w)
        log_B_next = self.log_B[j]
        log_B = np.logaddexp(log_B_next, lb)
        shift = np.exp(np.array([log_B_next, lb]) - log_B)

        def nu() -> np.ndarray:
            pairs = self.nu[:, j] * shift[0] + q * shift[1]
            # contiguous rows: BLAS rounds the energy form's products on a
            # strided matrix differently from one point's
            nu = np.ascontiguousarray(pairs[_SYMMETRIC].T).reshape(n, 3, 3)
            nu[outside] = np.nan
            return nu

        F = self.F[i] + P[0, :n]
        m = np.ascontiguousarray((m_next + P[:, n:]).T)
        log_A = np.logaddexp(self.log_A[i], la)
        if outside.any():
            F, log_A, log_B = (np.where(outside, np.nan, v) for v in (F, log_A, log_B))
            m[outside] = np.nan
        return LawPoint(F=F, m=m, log_A=log_A, log_B=log_B, outside=outside, _nu=nu)


def _tables_law(density: Callable, spec: DiffusionSpec, nodes: np.ndarray, sigma: Callable, label: str,
                report: ErgodicityReport, f_gauss: Optional[np.ndarray] = None) -> InvariantLaw:
    """The law of ergodicity ``report`` whose density at points x of the
    panels i of the node grid ``nodes`` is ``density(x, i)``, with ``sigma``
    the diffusion's array form; the report's G is the density's normalizer.
    The law's tables are built here, first-order tables only: F, sf and the
    quantile read them and never build the variance tables, which their
    first reader builds.  The public f clips x to the grid, searches its
    panel and reads the density there, and is 0 off the grid; only f
    searches the nodes.  ``f_gauss``, if given, is the density at the Gauss
    points of every panel, which a build already holds (see ``LawTables``).

    The quantile takes a level or an array of levels in (0, 1) and returns
    a float for a float, as F and sf do.  It is the tables' inverse of F
    (``LawTables.inverse``): a level above 1/2 is solved on sf at 1 - p, and
    each level is a root in the node panel that brackets it."""
    lo, hi = float(nodes[0]), float(nodes[-1])
    tables = LawTables(nodes, density, sigma, f_gauss)

    def f(x):
        x = np.asarray(x, dtype=float)
        y = np.clip(x, lo, hi)
        return _as_output(np.where((x >= lo) & (x <= hi), density(y, _panel_of(nodes, y)), 0.0))

    def sf(x):
        return _as_output(tables.upper_moments(x)[0])

    def quantile(p):
        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValueError("quantile is defined on (0, 1)")
        return _as_output(tables.inverse(p.reshape(-1), False).reshape(p.shape))

    return InvariantLaw(f=f, F=tables.cdf, sf=sf, quantile=quantile, spec=spec, grid_x=nodes, tables=tables,
                        ergodicity=report, label=label)


def build_invariant_law(spec: DiffusionSpec) -> InvariantLaw:
    """Construct the stationary law of a diffusion from its coefficients.

    The support edges come from the probe's node masses (see
    ``_support_edges``).  On the support nodes the density exponent
    int_0^x S/sigma^2 is evaluated again by the same panel rule, and G is
    the panel sum of the mass exp(2*exponent)/sigma^2 there, summed
    panel-major.  That one G decides c3 and is the report's G, to the bit,
    the law's one normalizer.  The mass at those Gauss points, divided in
    place by G, goes to the tables.  f, F, sf and the quantile read the
    density (see ``_tables_law``), and the law keeps the report.  Raises
    NotErgodic, naming each failed condition, when the ergodicity probes
    fail.
    """
    report, failures, nodes, mass, mass_t, sigma = _support_mass(spec)
    if failures:
        raise NotErgodic("ergodicity checks failed: " + "; ".join(failures))
    # the first pass of the tables reads these densities instead of calling the density
    G = report.G
    mass_t /= G
    return _tables_law(lambda x, i: mass(x, i) / G, spec, nodes, sigma, spec.label or "custom", report, mass_t)


def ou_law() -> InvariantLaw:
    """Closed-form stationary law of the standard mean-reverting noise.

    The law is Gaussian with mean zero and variance 1/2: its density
    exp(-x^2)/sqrt(pi), its normalizer sqrt(pi) and its ergodicity report
    are exact (int_0^{+-50} -x dx = -1250 at both probe ends), and its f, F,
    sf and quantile read that density as a law built from coefficients does
    (F, sf and the quantile match erfc(-x)/2, erfc(x)/2 and the Gaussian
    quantile to about 1e-14).  Its node grid is +-32, the one the support
    rule gives exp(-x^2), which falls below ``_MASS_FLOOR`` of its peak
    near |x| = 26.3 (see ``_support_edges``).  The diffusion is the
    compiled constant ``1``, so paths of this law take the steppers'
    constant-diffusion route.
    """
    spec = DiffusionSpec(drift=lambda x: -x, diffusion=compile_expression("1"), label="ou")
    nodes = _node_grid(-32.0, 32.0)[0]
    report = ErgodicityReport(c2_left_limit=-1250.0, c2_right_limit=-1250.0, G=_SQRT_PI, c2_holds=True, c3_holds=True)
    return _tables_law(lambda x, i: np.exp(-np.square(x)) / _SQRT_PI, spec, nodes, _array_form(spec.diffusion, nodes),
                       "ou", report)


NAMED_SPECS: dict[str, Callable[[], InvariantLaw]] = {"ou": ou_law}
