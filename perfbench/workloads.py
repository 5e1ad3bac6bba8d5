"""The benchmark's workloads: CLI commands from a seed, output checks and
accuracy probes.

Every workload's inputs come from the workload seed alone.  Seed 0 gives the
README inputs (theta = 0.5, tau = 1, estimate --seed 11, validate --seed 0);
other seeds set the commands' --seed to 11 + seed (estimate) or seed
(validate).  On ou_closed_form they also move theta by up to 0.01, which
keeps the closed-form work, and so the timings, comparable across seeds.
grid_law keeps theta = 0.5: its quadrature failures, fake peaks and cost
jump with theta (cubic time-scheme resonance 14.2 s at theta = 0.48,
20.0 s at 0.49 and 14.7 s at 0.5), so a moving theta would swamp the
timings.  Its cubic estimate still fails or not depending on the path seed.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TAU = 1.0
RESONANCE_GRID = (0.05, 3.0, 0.05)  # the CLI default for resonance
TEST_ARGS = ["--theta0", "0", "--theta-grid", "0.3:0.7:0.2", "--grid", "0.1:3:0.1", "--T", "100"]
TEST_ROWS = 30 * 3  # eps grid 0.1:3:0.1 times theta1 grid 0.3:0.7:0.2
LAW_ROWS = 801  # the CLI default law grid -4:4:0.01
LAW_F_TOL = 1e-9  # the default quadrature rel_tol; grid-built F ends at 1 + 1e-11
VALIDATE_REPS = 200
VALIDATE_TEST_PATHS = 2000
# closed-form OU resonance at theta = 0.5, tau = 1 (README criteria 1 and 2)
OU_EPS_STAR = {"time": 0.3660, "energy": 0.3635}
EPS_STAR_TOL = 1e-3
VAR_RATIO_RANGE = (0.6, 1.6)  # acceptance criterion 5
GRID_THETA = 0.5


def theta_for(seed: int) -> float:
    """Signal level of ou_closed_form: 0.5 at seed 0, else within 0.5 +- 0.01."""
    if seed == 0:
        return 0.5
    return round(0.5 + 0.002 * random.Random(seed).randint(-5, 5), 3)


@dataclass(frozen=True)
class Command:
    kind: str  # CLI command name
    label: str  # unique within the workload; names the output directory
    argv: list[str]


@dataclass
class Checks:
    """Failed output checks, and accuracy metrics read from the outputs."""

    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, Path], list[Command]]
    setup_code: str  # run in a fresh interpreter: import stochres, build the workload laws
    check: Callable[[int, Path, list[Command], set[str], Checks], None]
    min_iterations: int = 1


def _cmd(kind: str, label: str, out: Path, *args: str) -> Command:
    return Command(kind, label, [kind, *args, "--out", str(out / label)])


# -- ou_closed_form ----------------------------------------------------------

def _ou_closed_form(seed: int, out: Path) -> list[Command]:
    theta = str(theta_for(seed))
    return [
        _cmd("resonance", "res_time", out, "--noise", "ou", "--scheme", "time", "--theta", theta),
        _cmd("resonance", "res_energy", out, "--noise", "ou", "--scheme", "energy", "--theta", theta),
        _cmd("test", "test_time", out, "--noise", "ou", "--scheme", "time", *TEST_ARGS),
        _cmd("test", "test_energy", out, "--noise", "ou", "--scheme", "energy", *TEST_ARGS),
        _cmd("estimate", "estimate", out, "--noise", "ou", "--theta", theta, "--eps", "0.7244",
             "--T", "2000", "--seed", str(11 + seed)),
    ]


def _check_ou_closed_form(seed: int, out: Path, commands: list[Command], ok: set[str],
                          checks: Checks) -> None:
    from stochres import find_resonance, ou_law
    from stochres.numerics import Bracket

    theta = theta_for(seed)
    _check_outputs(out, commands, ok, checks)
    law = ou_law()
    bracket = Bracket(RESONANCE_GRID[0], RESONANCE_GRID[1])
    ref = {s: find_resonance(0.5, TAU, law, s, bracket=bracket).eps_star for s in OU_EPS_STAR}
    for scheme, expected in OU_EPS_STAR.items():
        checks.expect(abs(ref[scheme] - expected) <= EPS_STAR_TOL,
                      f"OU {scheme} eps* at theta=0.5 is {ref[scheme]:.4f}, expected {expected}")
    at_zero = find_resonance(0.0, TAU, law, "time", bracket=bracket).eps_star
    checks.expect(abs(at_zero - 2.0 * ref["time"]) <= 2 * EPS_STAR_TOL,
                  f"OU time eps*(0)={at_zero:.4f} is not 2*eps*(0.5)={2 * ref['time']:.4f}")
    if "res_time" in ok:
        # the time-scheme maximizer scales exactly with the gap: eps* = (tau - theta)/a*
        got = _read_json(out / "res_time" / "resonance.json")["eps_star"]
        scaled = got * (TAU - 0.5) / (TAU - theta)
        checks.expect(abs(scaled - OU_EPS_STAR["time"]) <= EPS_STAR_TOL,
                      f"CLI OU time eps* {got:.4f} at theta={theta} breaks the gap scaling")


# -- grid_law ----------------------------------------------------------------

_CUBIC = ["--drift=-x^3", "--sigma", "1"]
_OU_GRID = ["--drift=-x", "--sigma", "1"]


def _grid_law(seed: int, out: Path) -> list[Command]:
    theta = str(GRID_THETA)
    return [
        _cmd("law", "cubic_law", out, *_CUBIC),
        _cmd("resonance", "cubic_res_time", out, *_CUBIC, "--scheme", "time", "--theta", theta),
        _cmd("resonance", "cubic_res_energy", out, *_CUBIC, "--scheme", "energy", "--theta", theta),
        _cmd("estimate", "cubic_estimate", out, *_CUBIC, "--theta", theta, "--eps", "0.7244",
             "--T", "2000", "--seed", str(11 + seed)),
        _cmd("law", "ou_grid_law", out, *_OU_GRID),
        _cmd("resonance", "ou_grid_res_time", out, *_OU_GRID, "--scheme", "time", "--theta", theta),
        _cmd("resonance", "ou_grid_res_energy", out, *_OU_GRID, "--scheme", "energy", "--theta", theta),
    ]


def _check_grid_law(seed: int, out: Path, commands: list[Command], ok: set[str],
                    checks: Checks) -> None:
    from stochres import ChannelConfig, DiffusionSpec, build_invariant_law, find_resonance, ou_law
    from stochres.errors import StochresError
    from stochres.estimators import edf_variance, energy_statistic_variance
    from stochres.expressions import compile_expression
    from stochres.numerics import Bracket

    theta = GRID_THETA
    _check_outputs(out, commands, ok, checks)
    ou = ou_law()

    # eps* of OU rebuilt on a grid against the closed-form law, same theta and grid
    bracket = Bracket(RESONANCE_GRID[0], RESONANCE_GRID[1])
    gaps = []
    for scheme in ("time", "energy"):
        label = f"ou_grid_res_{scheme}"
        if label in ok:
            grid_eps = _read_json(out / label / "resonance.json")["eps_star"]
            gaps.append(abs(grid_eps - find_resonance(theta, TAU, ou, scheme, bracket=bracket).eps_star))
    checks.expect(len(gaps) == 2, "eps_star_err needs both OU grid-law resonance reports")
    if gaps:
        checks.quality["eps_star_err"] = max(gaps)

    # time change: drift -4x, sigma 2 has the OU stationary law and runs 4x
    # faster, so both raw variances must be exactly 1/4 of the OU ones.  The
    # noise levels are the README ones (time-scheme eps* and the estimate eps).
    try:
        fast = build_invariant_law(DiffusionSpec(
            drift=compile_expression("-4*x"), diffusion=compile_expression("2"), label="ou_x4"))
        errs = []
        for eps in (0.3660, 0.7244):
            a = (TAU - theta) / eps
            pairs = (
                (edf_variance(a, fast, fast.spec.diffusion), edf_variance(a, ou, ou.spec.diffusion)),
                (energy_statistic_variance(theta, ChannelConfig(tau=TAU, eps=eps, law=fast)),
                 energy_statistic_variance(theta, ChannelConfig(tau=TAU, eps=eps, law=ou))),
            )
            errs += [abs(4.0 * v_fast / v_ou - 1.0) for v_fast, v_ou in pairs]
        checks.quality["sigma_scaling_err"] = max(errs)
    except StochresError as exc:
        checks.failures.append(f"time-change probe raised {type(exc).__name__}: {exc}")


# -- monte_carlo -------------------------------------------------------------

def _monte_carlo(seed: int, out: Path) -> list[Command]:
    # --workers 2 is ignored by validate today; it is passed so that a worker
    # pool can show a gain without a change to the benchmark
    return [_cmd("validate", "validate", out, "--noise", "ou", "--reps", str(VALIDATE_REPS),
                 "--test-paths", str(VALIDATE_TEST_PATHS), "--workers", "2", "--seed", str(seed))]


def _check_monte_carlo(seed: int, out: Path, commands: list[Command], ok: set[str],
                       checks: Checks) -> None:
    _check_outputs(out, commands, ok, checks)
    if "validate" not in ok:
        return
    report = _read_json(out / "validate" / "validate.json")
    ratios = [report["empirical_var_ratio_time"], report["empirical_var_ratio_energy"]]
    lo, hi = VAR_RATIO_RANGE
    for name, r in zip(("time", "energy"), ratios):
        checks.expect(lo <= r <= hi, f"validate {name} variance ratio {r:.3f} outside [{lo}, {hi}]")
    checks.quality["mc_var_ratio_err"] = max(abs(r - 1.0) for r in ratios)
    checks.expect(report["n_reps"] + report["n_degenerate"] == VALIDATE_REPS,
                  "validate replications do not add up")
    checks.expect(report["n_test_paths"] == VALIDATE_TEST_PATHS, "validate test path count")
    checks.expect(0.0 <= report["empirical_error_rate"] <= 1.0, "validate error rate")
    checks.expect(report["seeds"] == {
        "variance_study": [seed, seed + VALIDATE_REPS - 1],
        "error_study": [seed + VALIDATE_REPS, seed + VALIDATE_REPS + VALIDATE_TEST_PATHS - 1],
    }, "validate seed ranges")


# -- shared output checks ----------------------------------------------------

def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _grid_size(lo: float, hi: float, step: float) -> int:
    return int(round((hi - lo) / step)) + 1


def _check_outputs(out: Path, commands: list[Command], ok: set[str], checks: Checks) -> None:
    """Every report and table of a successful command parses, with its row count.

    Also counts failed curve points and surface cells (skipped cells excluded)
    and resonance peaks beyond one per command, as quality metrics.
    """
    points = failed_points = extra_peaks = 0
    for c in commands:
        if c.label not in ok:
            continue
        d = out / c.label
        try:
            if c.kind == "resonance":
                rows = _read_csv(d / "curve.csv")
                checks.expect(len(rows) == _grid_size(*RESONANCE_GRID),
                              f"{c.label}: curve has {len(rows)} rows")
                points += len(rows)
                failed_points += sum(r["failed"] == "True" for r in rows)
                report = _read_json(d / "resonance.json")
                checks.expect(report["fisher_star"] > 0 and report["local_maxima"],
                              f"{c.label}: empty resonance report")
                extra_peaks += max(len(report["local_maxima"]) - 1, 0)
            elif c.kind == "test":
                rows = _read_csv(d / "surface.csv")
                checks.expect(len(rows) == TEST_ROWS, f"{c.label}: surface has {len(rows)} rows")
                live = [r for r in rows if r["skipped"] != "True"]
                points += len(live)
                failed_points += sum(r["failed"] == "True" for r in live)
                minima = _read_json(d / "minima.json")["minima"]
                checks.expect(len(minima) == 3 and all("eps_star" in m for m in minima),
                              f"{c.label}: minima report")
            elif c.kind == "estimate":
                report = _read_json(d / "estimate.json")
                checks.expect(0.0 < report["gamma_T"] < 1.0 and report["Sigma"] > 0
                              and report["Sigma_tilde"] > 0
                              and math.isfinite(report["theta_hat_time"])
                              and math.isfinite(report["theta_hat_energy"]),
                              f"{c.label}: estimate report {report}")
            elif c.kind == "law":
                rows = _read_csv(d / "law.csv")
                checks.expect(len(rows) == LAW_ROWS, f"{c.label}: law table has {len(rows)} rows")
                F = [float(r["F"]) for r in rows]
                checks.expect(all(0.0 <= a <= b <= 1.0 + LAW_F_TOL for a, b in zip(F, F[1:])),
                              f"{c.label}: F is not a distribution function")
                ergodic = _read_json(d / "ergodicity.json")
                checks.expect(ergodic["c2_holds"] and ergodic["c3_holds"],
                              f"{c.label}: ergodicity report")
            elif c.kind == "validate":
                _read_json(d / "validate.json")
        except (OSError, KeyError, ValueError, TypeError) as exc:
            checks.failures.append(f"{c.label}: unreadable output ({type(exc).__name__}: {exc})")
    checks.quality["point_fail_ratio"] = failed_points / points if points else 0.0
    checks.quality["extra_peaks"] = float(extra_peaks)


_LAW_BUILD = (
    "from stochres import DiffusionSpec, build_invariant_law\n"
    "from stochres.expressions import compile_expression as c\n"
    "for d in ('-x^3', '-x'):\n"
    "    build_invariant_law(DiffusionSpec(drift=c(d), diffusion=c('1'), label='custom'))\n"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ou_closed_form", _ou_closed_form, "import stochres\nstochres.ou_law()\n",
                 _check_ou_closed_form),
        Workload("grid_law", _grid_law, "import stochres\n" + _LAW_BUILD, _check_grid_law),
        # two repeats with one seed must write byte-identical reports
        Workload("monte_carlo", _monte_carlo, "import stochres\nstochres.ou_law()\n",
                 _check_monte_carlo, min_iterations=2),
    )
}
