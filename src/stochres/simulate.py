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
never called; a single path uses the same increments, one chunk at a time.
Every product and sum keeps the operands and order of
X + S(X) dt + sigma(X) sqrt(dt) Z, so no route changes a bit of a path.

``observe_paths`` steps, perturbs and observes a block of paths keeping
only per-path counters, in buffers allocated once, so its memory is
O(paths x CHUNK) whatever the horizon; ``simulate_paths`` steps the same
chunks and stores the full paths.  Both observation routes reduce the
energy the same way (a pairwise sum over each chunk of ``CHUNK`` samples,
chunk sums accumulated in order), so a path's time fraction and energy are
bit-identical whether it comes from
``observe(perturb(simulate_path(...)))`` or from ``observe_paths``, in an
ensemble of any size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .errors import NumericBlowup
from .laws import DiffusionSpec, _vectorized

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
CHUNK = 250
# Steps of normals a path draws per generator call: one call serves four chunks.
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
        if self.energy < 0.0:
            raise ValueError("energy must be nonnegative")


def _normals(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.Philox(seed)).standard_normal(n)


def _em_scalar(spec: DiffusionSpec, x0: float, dt: float, z: np.ndarray) -> np.ndarray:
    drift = spec.drift
    diffusion = spec.diffusion
    c = getattr(diffusion, "constant", None)
    sqrt_dt = math.sqrt(dt)
    out = np.empty(len(z) + 1)
    out[0] = x = float(x0)
    # x stays a Python float, which a compiled expression steps on without
    # numpy; the normals, or a constant diffusion's increments
    # (c sqrt(dt)) z, become floats one chunk at a time
    for start in range(0, len(z), CHUNK):
        block = z[start : start + CHUNK]
        if c is None:
            for k, zk in enumerate(block.tolist(), start + 1):
                x = x + drift(x) * dt + diffusion(x) * sqrt_dt * zk
                if not (-_BLOWUP < x < _BLOWUP):  # also catches NaN
                    raise _blowup_at(k)
                out[k] = x
        else:
            for k, dw in enumerate((c * sqrt_dt * block).tolist(), start + 1):
                x = x + drift(x) * dt + dw
                if not (-_BLOWUP < x < _BLOWUP):
                    raise _blowup_at(k)
                out[k] = x
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


def _array_form(fn: Callable, x: np.ndarray) -> Callable:
    """``fn`` itself when it maps the float array ``x`` to a float array of
    the same shape, otherwise a wrapper that does; decided once per ensemble
    rather than at every step."""
    try:
        out = fn(x)
    except (TypeError, ValueError):
        return np.vectorize(fn, otypes=[float])
    if isinstance(out, np.ndarray) and out.shape == x.shape and out.dtype == np.float64:
        return fn
    return _vectorized(fn)


def _chunks(spec: DiffusionSpec, cfg: SimConfig, n_paths: int) -> Iterator[np.ndarray]:
    """Step the paths seeded cfg.seed, ..., cfg.seed + n_paths - 1 in chunks.

    Yields one (m + 1, n_paths) array per chunk of m <= CHUNK steps: row i
    holds X at step start + i across the paths, row 0 repeating the last row
    of the previous chunk (X_0 for the first).  The array is reused, so it is
    valid until the next chunk is requested.  Each path draws its normals
    from its own Philox stream, ``_NORMALS_BLOCK`` at a time, which gives the
    numbers of one draw of the whole path: every path is bit-identical to
    ``simulate_path`` with its seed.  Raises NumericBlowup after the first
    chunk where a path leaves |X| <= _BLOWUP, naming the lowest such seed.

    A step writes the next row in place, from increments formed for the
    whole chunk when the diffusion is a constant (see the module docstring).
    """
    gens = [np.random.Generator(np.random.Philox(cfg.seed + k)) for k in range(n_paths)]
    n = cfg.n_steps
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    rows = np.empty((CHUNK + 1, n_paths))
    rows[0] = cfg.x0
    drift = _array_form(spec.drift, rows[0])
    c = getattr(spec.diffusion, "constant", None)
    diffusion = _array_form(spec.diffusion, rows[0]) if c is None else None
    z_paths = np.empty((n_paths, min(_NORMALS_BLOCK, n)))
    # row i: the normals of step i, or for a constant diffusion its increments
    dw = np.empty((CHUNK, n_paths))
    sigma_dw = np.empty(n_paths)
    x_rows = list(rows)
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
                np.multiply(c * sqrt_dt, z, out=dw[:m])
                for x, y, dw_i in steps:
                    np.multiply(drift(x), dt, out=y)
                    np.add(x, y, out=y)
                    np.add(y, dw_i, out=y)
            else:
                dw[:m] = z
                for x, y, z_i in steps:
                    np.multiply(drift(x), dt, out=y)
                    np.add(x, y, out=y)
                    np.multiply(diffusion(x), sqrt_dt, out=sigma_dw)
                    np.multiply(sigma_dw, z_i, out=sigma_dw)
                    np.add(y, sigma_dw, out=y)
            bad = ~(np.abs(rows[: m + 1]) <= _BLOWUP).all(axis=0)  # also catches NaN
        if bad.any():
            raise NumericBlowup(
                f"|X| exceeded {_BLOWUP:g} for path seed {cfg.seed + int(np.argmax(bad))}; "
                "check coefficients/dt"
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
    return np.count_nonzero(above, axis=-1), np.sum(square, axis=-1)


def _scratch(n_paths: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat buffers for the observed chunk, its threshold mask and its squares."""
    size = n_paths * CHUNK
    return np.empty(size), np.empty(size, dtype=bool), np.empty(size)


def observe_paths(
    spec: DiffusionSpec,
    cfg: SimConfig,
    n_paths: int,
    theta: float | np.ndarray,
    eps: float,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Time fraction and energy of the perturbed paths theta + eps * X with
    seeds cfg.seed, ..., cfg.seed + n_paths - 1, without storing the paths.

    ``theta`` is one value for every path or one value per path.  Entry k
    is bit-identical to ``observe(perturb(simulate_path(spec, cfg with seed
    cfg.seed + k), theta_k, eps), tau)``.  Memory is O(n_paths x CHUNK).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (n_paths,))[:, None]
    count = np.zeros(n_paths, dtype=np.int64)
    energy = np.zeros(n_paths)
    buffers = _scratch(n_paths)
    for rows in _chunks(spec, cfg, n_paths):
        m = len(rows) - 1
        # contiguous (n_paths, m) views, one row per path: the last chunk's
        # rows must be contiguous too for its energy sums to pair as a path's
        y, above, square = (b[: n_paths * m].reshape(n_paths, m) for b in buffers)
        # left endpoints, perturbed as in ``perturb``
        np.multiply(eps, rows[:-1].T, out=y)
        np.add(theta, y, out=y)
        c, e = _above_energy(y, tau, above, square)
        count += c
        energy += e
    n = cfg.n_steps
    return count / n, energy / n


def perturb(traj: Trajectory, theta: float, eps: float) -> Trajectory:
    """Affine channel map: the observed signal is theta + eps * X."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return replace(traj, values=theta + eps * traj.values)


def observe(traj: Trajectory, tau: float) -> ObservationSummary:
    """Evaluate both path statistics against a threshold.

    Time integrals use the left-endpoint rule, so the fraction of time above
    the threshold is an exact step count over n = len(values) - 1 steps.
    The energy is reduced chunk by chunk exactly as in ``observe_paths``.
    """
    if len(traj.values) < 2:
        raise ValueError("trajectory must contain at least one step")
    y = traj.values[:-1]
    count = 0
    energy = 0.0
    _, above, square = _scratch(1)
    for start in range(0, len(y), CHUNK):
        chunk = y[start : start + CHUNK]
        c, e = _above_energy(chunk, tau, above[: len(chunk)], square[: len(chunk)])
        count += int(c)
        energy += float(e)
    return ObservationSummary(
        time_fraction=count / len(y), energy=energy / len(y), horizon=traj.horizon
    )
