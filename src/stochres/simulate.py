"""Euler-Maruyama simulation of the noise, signal perturbation, and the two
path observables (fraction of time above threshold, observed energy).

Randomness comes from a counter-based generator (Philox), so replication k
of a study simply uses seed = base_seed + k and every path is reproducible
bit for bit in isolation or inside an ensemble.

Ensembles are stepped in chunks of ``CHUNK`` steps, each path drawing its
normals ``_NORMALS_BLOCK`` at a time, and a step writes the next row of the
chunk in place.  For a diffusion with a ``constant`` (a compiled expression
without x) the increments (c sqrt(dt)) Z of a whole chunk are one product,
so a step is the drift, one product and two sums, and the diffusion is
never called.  A single path steps on Python floats, ``_NORMALS_BLOCK``
steps at a time, each block one list comprehension: a step makes one call
of the drift and one of a diffusion that is not a constant, a compiled
coefficient through its ``scalar`` form, and no other call, bound check or
append.  The bound on |X| is checked once per block, over its values.
Every product and sum keeps the operands and order of
X + S(X) dt + sigma(X) sqrt(dt) Z, so no route changes a bit of a path.

``observe_paths`` steps, perturbs and observes a block of paths keeping
only per-path counters, in buffers allocated once, so its memory is
O(paths x CHUNK) whatever the horizon; ``simulate_paths`` steps the same
chunks and stores the full paths.  Both observation routes reduce the
energy the same way (a pairwise sum over each chunk of ``CHUNK`` samples,
chunk sums accumulated in order; ``observe`` reduces all the whole chunks
of a path in one call, as the rows of one view), so a path's time fraction
and energy are bit-identical whether it comes from
``observe(perturb(simulate_path(...)))`` or from ``observe_paths``, in an
ensemble of any size.  A caller that reads only the time fractions asks
``observe_paths`` for no energy: each chunk is then perturbed and counted
in the layout it was stepped in, with no transpose, square or sum, and the
counts, integers, are the same.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import NumericBlowup
from .laws import DiffusionSpec
from .numerics import _array_form

__all__ = [
    "SimConfig",
    "Trajectory",
    "ObservationSummary",
    "simulate_path",
    "simulate_paths",
    "observe_paths",
    "perturb",
    "observe",
]

_BLOWUP = 1e12
# Steps per chunk of the ensemble stepper and of the energy reduction.  Not
# a power of two: the per-path normals (rows of _NORMALS_BLOCK doubles) are
# read column-wise into step rows, and a power-of-two row stride maps a column
# onto few cache sets (the transpose of a 2000-path chunk then takes ~5x longer).
# Below 256, so a chunk's count of samples above the threshold fits a byte.
CHUNK = 250
# Steps of normals a path of an ensemble draws per generator call: one call
# serves four chunks.  A single path steps this many at a time, which keeps
# the fixed cost of a block (its increments, store and bound check) small.
_NORMALS_BLOCK = 4 * CHUNK


@dataclass(frozen=True)
class SimConfig:
    """Horizon, step size, seed and start point of one simulation."""

    T: float
    dt: float = 0.01
    seed: int = 0
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.dt <= self.T):
            raise ValueError("need 0 < dt <= T")
        if self.n_steps > 2**62:
            raise ValueError("T/dt too large for the index type")

    @property
    def n_steps(self) -> int:
        # tiny slack so T/dt that is an integer up to float error rounds down correctly
        return int(math.floor(self.T / self.dt + 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """A discretized path sampled on a uniform time grid."""

    values: np.ndarray
    dt: float
    seed: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt

    @property
    def horizon(self) -> float:
        return (len(self.values) - 1) * self.dt


@dataclass(frozen=True)
class ObservationSummary:
    """Path statistics: fraction of time above threshold and observed energy."""

    time_fraction: float
    energy: float
    horizon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.time_fraction <= 1.0:
            raise ValueError("time_fraction must lie in [0, 1]")
        if not 0.0 <= self.energy < math.inf:
            raise ValueError("energy must be finite and nonnegative")


def _normals(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(seed)).standard_normal(n)


def _em_scalar(spec: DiffusionSpec, x0: float, dt: float, z: np.ndarray) -> np.ndarray:
    """X_0 = x0 and the Euler-Maruyama steps driven by the normals ``z``.

    x stays a Python float, and a compiled coefficient is called through its
    ``scalar`` form.  Each block of ``_NORMALS_BLOCK`` steps is one call of
    ``steps``, a list comprehension over the block's normals, or over its
    increments (c sqrt(dt)) z when the diffusion is a constant, which is then
    never called.  The block's values are stored with one slice assignment
    and checked against the bound in one pass, which names the first step
    past it.  A numpy floating-point error that the caller would see (a
    warning, say) raises inside the comprehension, and so may any other
    error of a coefficient (OverflowError past the bound, say); that one
    block is then stepped again through ``steps`` one step at a time, in the
    caller's error state and with the bound checked before the next step, so
    the error surfaces, or the blow-up is named, where a step-by-step loop
    would do it.

    The coefficients must be pure functions of x: a block calls them for up
    to ``_NORMALS_BLOCK - 1`` steps past the first step out of bounds, and a
    block stepped again calls them a second time for its steps before the
    error."""
    drift = getattr(spec.drift, "scalar", spec.drift)
    diffusion = getattr(spec.diffusion, "scalar", spec.diffusion)
    c = getattr(spec.diffusion, "constant", None)
    sqrt_dt = math.sqrt(dt)
    if c is None:
        def steps(x: float, ws: list) -> list:
            return [x := x + drift(x) * dt + diffusion(x) * sqrt_dt * w for w in ws]
    else:
        def steps(x: float, ws: list) -> list:
            return [x := x + drift(x) * dt + w for w in ws]
    caller = np.geterr()
    out = np.empty(len(z) + 1)
    out[0] = x = float(x0)
    with np.errstate(**{k: "ignore" if v == "ignore" else "raise" for k, v in caller.items()}):
        for start in range(0, len(z), _NORMALS_BLOCK):
            block = z[start : start + _NORMALS_BLOCK]
            ws = (block if c is None else c * sqrt_dt * block).tolist()
            try:
                chunk = steps(x, ws)
            except Exception:  # any error: stepping one at a time tells it from a blow-up
                chunk = None
            if chunk is None:  # outside the handler, so an error raised again is not chained
                chunk = []
                with np.errstate(**caller):
                    for w in ws:
                        [x] = steps(x, [w])
                        if not (-_BLOWUP < x < _BLOWUP):  # also catches NaN
                            raise _blowup_at(start + len(chunk) + 1)
                        chunk.append(x)
            end = start + 1 + len(chunk)
            out[start + 1 : end] = chunk
            size = np.abs(out[start + 1 : end])
            if not size.max() < _BLOWUP:
                raise _blowup_at(start + 1 + int(np.argmax(~(size < _BLOWUP))))
            x = chunk[-1]
    return out


def _blowup_at(k: int) -> NumericBlowup:
    return NumericBlowup(f"|X| exceeded {_BLOWUP:g} at step {k}; check coefficients/dt")


def simulate_path(spec: DiffusionSpec, cfg: SimConfig) -> Trajectory:
    """One Euler-Maruyama path of the noise SDE.

    X_{k+1} = X_k + S(X_k) dt + sigma(X_k) sqrt(dt) Z_k with Z_k drawn from
    the counter-based generator seeded at cfg.seed.  The same config always
    yields the identical path.
    """
    z = _normals(cfg.seed, cfg.n_steps)
    values = _em_scalar(spec, cfg.x0, cfg.dt, z)
    return Trajectory(values=values, dt=cfg.dt, seed=cfg.seed)


def _chunks(spec: DiffusionSpec, cfg: SimConfig, n_paths: int) -> Iterator[np.ndarray]:
    """Step the paths seeded cfg.seed, ..., cfg.seed + n_paths - 1 in chunks.

    Yields one (m + 1, n_paths) array per chunk of m <= CHUNK steps: row i
    holds X at step start + i across the paths, row 0 repeating the last row
    of the previous chunk (X_0 for the first).  The array is reused, so it is
    valid until the next chunk is requested.  Each path draws its normals
    from its own Philox stream, ``_NORMALS_BLOCK`` at a time, which gives the
    numbers of one draw of the whole path: every path is bit-identical to
    ``simulate_path`` with its seed.  Raises NumericBlowup after the first
    chunk where a path leaves |X| <= _BLOWUP, naming the lowest such seed,
    its ``step`` the chunk's last step.  A chunk is checked with one max
    and one min, through which a NaN propagates; the per-path mask that
    names the seed is formed only for a chunk that fails.

    A step writes the next row in place, from increments formed for the
    whole chunk when the diffusion is a constant (see the module docstring).
    """
    gens = [np.random.Generator(np.random.Philox(cfg.seed + k)) for k in range(n_paths)]
    n = cfg.n_steps
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    rows = np.empty((CHUNK + 1, n_paths))
    rows[0] = cfg.x0
    drift = _array_form(spec.drift, rows[0])[0]
    c = getattr(spec.diffusion, "constant", None)
    diffusion = _array_form(spec.diffusion, rows[0])[0] if c is None else None
    z_paths = np.empty((n_paths, min(_NORMALS_BLOCK, n)))
    # row i: the normals of step i, or for a constant diffusion its increments
    dw = np.empty((CHUNK, n_paths))
    sigma_dw = np.empty(n_paths)
    x_rows = list(rows)
    # local names and positional out: a step is four ufunc calls whose fixed
    # cost, not the path work, dominates at a few hundred paths
    multiply, add = np.multiply, np.add
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        offset = start % _NORMALS_BLOCK
        if offset == 0:
            drawn = min(_NORMALS_BLOCK, n - start)
            for k, gen in enumerate(gens):
                gen.standard_normal(out=z_paths[k, :drawn])
        z = z_paths[:, offset : offset + m].T
        steps = zip(x_rows[:m], x_rows[1 : m + 1], dw)
        with np.errstate(over="ignore", invalid="ignore"):
            if diffusion is None:
                multiply(c * sqrt_dt, z, dw[:m])
                for x, y, dw_i in steps:
                    multiply(drift(x), dt, y)
                    add(x, y, y)
                    add(y, dw_i, y)
            else:
                dw[:m] = z
                for x, y, z_i in steps:
                    multiply(drift(x), dt, y)
                    add(x, y, y)
                    multiply(diffusion(x), sqrt_dt, sigma_dw)
                    multiply(sigma_dw, z_i, sigma_dw)
                    add(y, sigma_dw, y)
            chunk = rows[: m + 1]
            if not (chunk.max() <= _BLOWUP and chunk.min() >= -_BLOWUP):  # also catches NaN
                bad = ~(np.abs(chunk) <= _BLOWUP).all(axis=0)
                raise NumericBlowup(
                    f"|X| exceeded {_BLOWUP:g} for path seed {cfg.seed + int(np.argmax(bad))}; "
                    "check coefficients/dt", start + m,
                )
        yield rows[: m + 1]
        rows[0] = rows[m]


def simulate_paths(spec: DiffusionSpec, cfg: SimConfig, n_paths: int) -> list[Trajectory]:
    """An ensemble of paths with seeds cfg.seed, cfg.seed+1, ...

    The stepping is vectorized across paths but each path is bit-identical
    to what simulate_path would produce with the derived seed.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    values = np.empty((n_paths, cfg.n_steps + 1))
    start = 0
    for rows in _chunks(spec, cfg, n_paths):
        m = len(rows) - 1
        values[:, start : start + m + 1] = rows.T
        start += m
    return [
        Trajectory(values=values[k], dt=cfg.dt, seed=cfg.seed + k) for k in range(n_paths)
    ]


def _above_energy(
    y: np.ndarray, tau: float, above: np.ndarray, square: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Count of samples above tau and pairwise sum of y^2 over them, along
    the last (contiguous) axis of at most CHUNK samples.  ``above`` (bool)
    and ``square`` (float) are scratch arrays of the shape of ``y``."""
    np.greater(y, tau, out=above)
    np.square(y, out=square)
    np.multiply(square, above, out=square)
    return _count(above, -1), np.sum(square, axis=-1)


def _count(above: np.ndarray, axis: int) -> np.ndarray:
    """The entries of the mask ``above`` that are set, counted along an
    axis of at most CHUNK entries as bytes: about a third of the time of
    ``count_nonzero``, which casts every entry to a machine integer."""
    return np.add.reduce(above.view(np.uint8), axis=axis, dtype=np.uint8)


def _scratch(n_paths: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat buffers for the observed chunk, its threshold mask and its squares."""
    size = n_paths * CHUNK
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size)


def _check_channel(theta: float | np.ndarray, eps: float) -> None:
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    if eps <= 0:
        raise ValueError("eps must be positive")


def observe_paths(
    spec: DiffusionSpec,
    cfg: SimConfig,
    n_paths: int,
    theta: float | np.ndarray,
    eps: float,
    tau: float,
    energy: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Time fraction and energy of the perturbed paths theta + eps * X with
    seeds cfg.seed, ..., cfg.seed + n_paths - 1, without storing the paths.

    ``theta`` is one value for every path or one value per path.  Entry k
    is bit-identical to ``observe(perturb(simulate_path(spec, cfg with seed
    cfg.seed + k), theta_k, eps), tau)``.  Memory is O(n_paths x CHUNK).
    With ``energy=False`` the energies are not formed and None takes their
    place: each chunk is perturbed as an (m, n_paths) array, the layout it
    was stepped in, and its samples above tau are counted down the columns,
    so the fractions are the same to the bit.  Raises ValueError for a
    non-finite theta or eps.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _check_channel(theta, eps)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_paths,))
    count = np.zeros(n_paths, dtype=np.int64)
    total = np.zeros(n_paths) if energy else None
    buffers = _scratch(n_paths)
    for rows in _chunks(spec, cfg, n_paths):
        m = len(rows) - 1
        if not energy:
            y, above = (b[: m * n_paths].reshape(m, n_paths) for b in buffers[:2])
            np.multiply(eps, rows[:-1], out=y)
            np.add(theta, y, out=y)
            count += _count(np.greater(y, tau, out=above), 0)
            continue
        # contiguous (n_paths, m) views, one row per path: the last chunk's
        # rows must be contiguous too for its energy sums to pair as a path's
        y, above, square = (b[: n_paths * m].reshape(n_paths, m) for b in buffers)
        # left endpoints, perturbed as in ``perturb``
        np.multiply(eps, rows[:-1].T, out=y)
        np.add(theta[:, None], y, out=y)
        c, e = _above_energy(y, tau, above, square)
        count += c
        total += e
    n = cfg.n_steps
    return count / n, None if total is None else total / n


def perturb(traj: Trajectory, theta: float, eps: float) -> Trajectory:
    """Affine channel map: the observed signal is theta + eps * X.  Raises
    ValueError for a non-finite theta or eps."""
    _check_channel(theta, eps)
    return replace(traj, values=theta + eps * traj.values)


def observe(traj: Trajectory, tau: float) -> ObservationSummary:
    """Evaluate both path statistics against a threshold.

    Time integrals use the left-endpoint rule, so the fraction of time above
    the threshold is an exact step count over n = len(values) - 1 steps.
    The energy is reduced chunk by chunk exactly as in ``observe_paths``,
    all chunks in one pass.
    """
    if len(traj.values) < 2:
        raise ValueError("trajectory must contain at least one step")
    y = traj.values[:-1]
    n = len(y)
    full = n - n % CHUNK
    count = 0
    energy = 0.0
    # the whole chunks as the rows of one view, then the tail as a row of its own
    for part in (y[:full].reshape(-1, CHUNK), y[full:].reshape(1, -1)):
        c, e = _above_energy(part, tau, np.empty(part.shape, dtype=bool), np.empty(part.shape))
        count += int(c.sum())
        # in order from 0.0, as observe_paths adds them (not sum(), which
        # compensates from Python 3.12)
        for chunk_energy in e.tolist():
            energy += chunk_energy
    return ObservationSummary(time_fraction=count / n, energy=energy / n, horizon=traj.horizon)
