"""Euler-Maruyama simulation of the noise, signal perturbation, and the two
path observables (fraction of time above threshold, observed energy).

Randomness comes from a counter-based generator (Philox), so replication k
of a study simply uses seed = base_seed + k and every path is reproducible
bit for bit in isolation or inside an ensemble.

Ensembles are stepped in chunks of ``CHUNK`` steps.  ``observe_paths``
steps, perturbs and observes a block of paths keeping only per-path
counters, so its memory is O(paths x CHUNK) whatever the horizon;
``simulate_paths`` steps the same chunks and stores the full paths.  Both
observation routes reduce the energy the same way (a pairwise sum over
each chunk of ``CHUNK`` samples, chunk sums accumulated in order), so a
path's time fraction and energy are bit-identical whether it comes from
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
# a power of two: the per-path normals (rows of CHUNK doubles) are read
# column-wise into step rows, and a power-of-two row stride maps a column
# onto few cache sets (the transpose of a 2000-path chunk then takes ~5x longer).
CHUNK = 250


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
    sqrt_dt = math.sqrt(dt)
    out = np.empty(len(z) + 1)
    out[0] = x = float(x0)
    # x stays a Python float, which a compiled expression steps on without
    # numpy; the normals become floats one chunk at a time
    for start in range(0, len(z), CHUNK):
        for k, zk in enumerate(z[start : start + CHUNK].tolist(), start + 1):
            x = x + drift(x) * dt + diffusion(x) * sqrt_dt * zk
            if not (-_BLOWUP < x < _BLOWUP):  # also catches NaN
                raise NumericBlowup(f"|X| exceeded {_BLOWUP:g} at step {k}; check coefficients/dt")
            out[k] = x
    return out


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
    from its own Philox stream, m at a time, which gives the numbers of one
    draw of the whole path: every path is bit-identical to ``simulate_path``
    with its seed.  Raises NumericBlowup after the first chunk where a path
    leaves |X| <= _BLOWUP, naming the lowest such seed.
    """
    gens = [np.random.Generator(np.random.Philox(cfg.seed + k)) for k in range(n_paths)]
    rows = np.empty((CHUNK + 1, n_paths))
    z_paths = np.empty((n_paths, CHUNK))
    z = np.empty((CHUNK, n_paths))
    rows[0] = cfg.x0
    drift = _array_form(spec.drift, rows[0])
    diffusion = _array_form(spec.diffusion, rows[0])
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    n = cfg.n_steps
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        for k, gen in enumerate(gens):
            gen.standard_normal(out=z_paths[k, :m])
        z[:m] = z_paths[:, :m].T
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(m):
                x = rows[i]
                rows[i + 1] = x + drift(x) * dt + diffusion(x) * sqrt_dt * z[i]
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


def _above_energy(y: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Count of samples above tau and pairwise sum of y^2 over them, along
    the last (contiguous) axis of at most CHUNK samples."""
    above = y > tau
    return np.count_nonzero(above, axis=-1), np.sum(np.square(y) * above, axis=-1)


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
    for rows in _chunks(spec, cfg, n_paths):
        # left endpoints, one contiguous row per path, perturbed as in ``perturb``
        y = theta + eps * np.ascontiguousarray(rows[:-1].T)
        c, e = _above_energy(y, tau)
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
    for start in range(0, len(y), CHUNK):
        c, e = _above_energy(y[start : start + CHUNK], tau)
        count += int(c)
        energy += float(e)
    return ObservationSummary(
        time_fraction=count / len(y), energy=energy / len(y), horizon=traj.horizon
    )
