"""Command-line surface: law inspection, estimation, resonance sweeps,
hypothesis-test studies and Monte Carlo validation.

Structured reports are written as JSON, grids as CSV (or JSON with
--format json).  Every command is bit-reproducible for a fixed seed and
configuration.  Config files are JSON objects mirroring the flag names;
explicit flags override file values.

Exit codes: 0 success, 1 typed numerical error, 2 configuration error,
3 degenerate observation (statistic on its boundary).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateObservation, QuadratureFailure, StochresError
from .estimators import (
    ChannelConfig,
    energy_scheme_variance,
    estimate_theta_energy,
    estimate_theta_time,
    time_scheme_variance,
)
from .expressions import ExpressionError, compile_expression
from .laws import NAMED_SPECS, DiffusionSpec, InvariantLaw, build_invariant_law, check_ergodicity
from .maptest import PerrMinimum, TestProblem, find_perr_minimum, p_err_surface
from .numerics import Bracket
from .resonance import find_resonance, resonance_curve
from .simulate import SimConfig, observe, perturb, simulate_path
from .validate import error_rate_study, variance_validation_study

_COMMON_KEYS = {
    "noise", "drift", "sigma", "tau", "theta", "eps", "T", "dt", "seed",
    "scheme", "grid", "p0", "reps", "out", "format", "workers",
}
_KNOWN_KEYS = {
    "law": _COMMON_KEYS,
    "estimate": _COMMON_KEYS | {"trajectory_out"},
    "resonance": _COMMON_KEYS,
    "test": _COMMON_KEYS | {"theta0", "theta_grid"},
    "validate": _COMMON_KEYS | {"theta0", "theta1", "test_paths", "test_T", "test_eps"},
}

_DEFAULTS: dict[str, Any] = {
    "noise": "ou",
    "tau": 1.0,
    "theta": 0.5,
    "eps": 0.7244,
    "T": 1000.0,
    "dt": 0.01,
    "seed": 0,
    "scheme": "time",
    "p0": 0.5,
    "reps": 200,
    "out": "out",
    "format": "csv",
    "workers": 1,
    "theta0": 0.0,
    "theta1": 0.5,
    "theta_grid": "0.1:0.9:0.1",
    "grid": None,
    "drift": None,
    "sigma": None,
    "trajectory_out": None,
    "test_paths": 2000,
    "test_T": 200.0,
    "test_eps": 0.7,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochres",
        description="Subthreshold signal estimation through a noisy threshold detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
        p.add_argument("--noise", type=str, default=None, help="named noise law (e.g. 'ou')")
        p.add_argument("--drift", type=str, default=None, help="drift expression in x for a custom law")
        p.add_argument("--sigma", type=str, default=None, help="diffusion expression in x for a custom law")
        p.add_argument("--tau", type=float, default=None, help="detector threshold")
        p.add_argument("--theta", type=float, default=None, help="signal level")
        p.add_argument("--eps", type=float, default=None, help="noise level")
        p.add_argument("--T", type=float, default=None, help="time horizon")
        p.add_argument("--dt", type=float, default=None, help="simulation step size")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--scheme", choices=["time", "energy"], default=None)
        p.add_argument("--grid", type=str, default=None, help="grid as lo:hi:step")
        p.add_argument("--p0", type=float, default=None, help="prior of the null hypothesis")
        p.add_argument("--reps", type=int, default=None, help="Monte Carlo replications")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default=None, help="grid table format")
        p.add_argument("--workers", type=int, default=None,
                       help="processes that split the seeds of the validate studies, capped at "
                            "the CPUs this process may use (the report is the same for any "
                            "count); other commands run in one process")

    add_common(sub.add_parser("law", help="ergodicity report and sampled density/distribution"))
    p_est = sub.add_parser("estimate", help="simulate one path and estimate the signal")
    add_common(p_est)
    p_est.add_argument("--trajectory-out", dest="trajectory_out", type=str, default=None,
                       help="also write the perturbed path as CSV (t, value)")
    add_common(sub.add_parser("resonance", help="fisher-information sweep over the noise level"))
    p_test = sub.add_parser("test", help="MAP error-probability surface over (theta1, eps)")
    add_common(p_test)
    p_test.add_argument("--theta0", type=float, default=None)
    p_test.add_argument("--theta-grid", dest="theta_grid", type=str, default=None,
                        help="theta1 grid as lo:hi:step")
    p_val = sub.add_parser("validate", help="Monte Carlo validation studies")
    add_common(p_val)
    p_val.add_argument("--theta0", type=float, default=None)
    p_val.add_argument("--theta1", type=float, default=None)
    p_val.add_argument("--test-paths", dest="test_paths", type=int, default=None,
                       help="labeled paths for the error-rate study")
    p_val.add_argument("--test-T", dest="test_T", type=float, default=None,
                       help="horizon for the error-rate study")
    p_val.add_argument("--test-eps", dest="test_eps", type=float, default=None,
                       help="noise level for the error-rate study")
    return parser


def _load_config(path: str | None, command: str) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _KNOWN_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown config keys for '{command}': {sorted(unknown)}")
    return raw


def _merge_config(args: argparse.Namespace, command: str) -> dict[str, Any]:
    merged = dict(_DEFAULTS)
    merged.update(_load_config(getattr(args, "config", None), command))
    for key in _KNOWN_KEYS[command]:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    workers = merged["workers"]
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"--workers must be an integer of at least 1, got {workers!r}")
    return merged


def _parse_grid(text: str, name: str = "grid") -> np.ndarray:
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"{name} must look like lo:hi:step, got {text!r}") from exc
    if step <= 0 or hi <= lo:
        raise ConfigError(f"{name} needs hi > lo and step > 0, got {text!r}")
    n = int(round((hi - lo) / step))
    if n < 1:
        raise ConfigError(f"{name} {text!r} contains no points")
    return np.linspace(lo, hi, n + 1)


def _resolve_law(cfg: dict[str, Any]) -> InvariantLaw:
    if cfg.get("drift") or cfg.get("sigma"):
        if not (cfg.get("drift") and cfg.get("sigma")):
            raise ConfigError("custom laws need both --drift and --sigma expressions")
        try:
            drift = compile_expression(cfg["drift"])
            sigma = compile_expression(cfg["sigma"])
        except ExpressionError as exc:
            raise ConfigError(f"bad coefficient expression: {exc}") from exc
        spec = DiffusionSpec(drift=drift, diffusion=sigma, label="custom")
        try:
            return build_invariant_law(spec)
        except ValueError as exc:  # coefficients not finite, or sigma not positive
            raise ConfigError(str(exc)) from exc
    label = cfg["noise"]
    maker = NAMED_SPECS.get(label)
    if maker is None:
        raise ConfigError(f"unknown noise label {label!r}; available: {sorted(NAMED_SPECS)}")
    return maker()


def _check_positive(cfg: dict[str, Any], keys: Iterable[str]) -> None:
    for key in keys:
        if not cfg[key] > 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be positive, got {cfg[key]}")


def _check_step(cfg: dict[str, Any], horizons: Iterable[str]) -> None:
    for key in horizons:
        if not cfg["dt"] <= cfg[key]:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"--dt must not exceed {flag}, got dt={cfg['dt']} > {cfg[key]}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")


def _write_table(path_base: Path, header: Sequence[str], rows: Iterable[Sequence], fmt: str) -> Path:
    path_base.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = path_base.with_suffix(".json")
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")
        return path
    path = path_base.with_suffix(".csv")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[_cell(v) for v in row] for row in rows])
    return path


def _cell(v: Any) -> Any:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return v


def cmd_law(cfg: dict[str, Any]) -> None:
    law = _resolve_law(cfg)
    # a law built from coefficients carries the report its build checked
    report = law.ergodicity if law.ergodicity is not None else check_ergodicity(law.spec)
    out = Path(cfg["out"])
    _write_json(out / "ergodicity.json", {
        "c2_left_limit": report.c2_left_limit,
        "c2_right_limit": report.c2_right_limit,
        "G": report.G if math.isfinite(report.G) else "inf",
        "c2_holds": report.c2_holds,
        "c3_holds": report.c3_holds,
        "label": law.label,
    })
    grid = _parse_grid(cfg["grid"] or "-4:4:0.01")
    rows = list(zip(grid.tolist(), law.f(grid).tolist(), law.F(grid).tolist()))
    path = _write_table(out / "law", ("x", "f", "F"), rows, cfg["format"])
    print(f"wrote {out / 'ergodicity.json'} and {path} ({len(rows)} rows)")


def cmd_estimate(cfg: dict[str, Any]) -> None:
    _check_positive(cfg, ("eps", "T", "dt", "tau"))
    _check_step(cfg, ("T",))
    if not cfg["theta"] < cfg["tau"]:
        raise ConfigError("estimation assumes a subthreshold signal: need theta < tau")
    law = _resolve_law(cfg)
    sim = SimConfig(T=cfg["T"], dt=cfg["dt"], seed=cfg["seed"])
    path = perturb(simulate_path(law.spec, sim), cfg["theta"], cfg["eps"])
    obs = observe(path, cfg["tau"])
    ch = ChannelConfig(tau=cfg["tau"], eps=cfg["eps"], law=law)
    theta_t = estimate_theta_time(obs.time_fraction, ch)
    theta_e = estimate_theta_energy(obs.energy, ch)
    report = {
        "gamma_T": obs.time_fraction,
        "nu_T": obs.energy,
        "theta_hat_time": theta_t,
        "theta_hat_energy": theta_e,
        "Sigma": time_scheme_variance(theta_t, ch).value,
        "Sigma_tilde": energy_scheme_variance(theta_e, ch).value,
        "T": obs.horizon,
        "seed": cfg["seed"],
    }
    out = Path(cfg["out"])
    _write_json(out / "estimate.json", report)
    if cfg.get("trajectory_out"):
        traj_path = Path(cfg["trajectory_out"])
        traj_path.parent.mkdir(parents=True, exist_ok=True)
        with traj_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("t", "value"))
            writer.writerows(zip(path.times.tolist(), path.values.tolist()))
    print(json.dumps(report, sort_keys=True))


def cmd_resonance(cfg: dict[str, Any]) -> None:
    _check_positive(cfg, ("tau",))
    law = _resolve_law(cfg)
    grid = _parse_grid(cfg["grid"] or "0.05:3.0:0.05")
    if np.any(grid <= 0):
        raise ConfigError("resonance grid must be strictly positive")
    points = resonance_curve(cfg["theta"], cfg["tau"], law, cfg["scheme"], grid)
    result = find_resonance(
        cfg["theta"], cfg["tau"], law, cfg["scheme"],
        bracket=Bracket(float(grid[0]), float(grid[-1])),
    )
    out = Path(cfg["out"])
    rows = [(p.eps, p.fisher, cfg["scheme"], cfg["theta"], cfg["tau"], p.failed) for p in points]
    table = _write_table(out / "curve", ("eps", "fisher", "scheme", "theta", "tau", "failed"),
                         rows, cfg["format"])
    _write_json(out / "resonance.json", {
        "eps_star": result.eps_star,
        "fisher_star": result.fisher_star,
        "local_maxima": [{"eps": e, "fisher": f} for e, f in result.local_maxima],
        "scheme": cfg["scheme"],
        "theta": cfg["theta"],
        "tau": cfg["tau"],
    })
    print(f"eps_star={result.eps_star:.4f} fisher_star={result.fisher_star:.6g} "
          f"({table}, {out / 'resonance.json'})")


def cmd_test(cfg: dict[str, Any]) -> None:
    _check_positive(cfg, ("tau", "T"))
    if not 0.0 < cfg["p0"] < 1.0:
        raise ConfigError("--p0 must lie strictly inside (0, 1)")
    p0 = cfg["p0"]
    p1 = 1.0 - p0
    law = _resolve_law(cfg)
    eps_grid = _parse_grid(cfg["grid"] or "0.1:3.0:0.1")
    if np.any(eps_grid <= 0):
        raise ConfigError("eps grid must be strictly positive")
    theta1_grid = _parse_grid(cfg["theta_grid"], "theta-grid")
    cells = p_err_surface(cfg["theta0"], theta1_grid, eps_grid, cfg["tau"], cfg["T"],
                          p0, p1, law, cfg["scheme"])
    out = Path(cfg["out"])
    rows = [(c.theta1, c.eps, c.case_id, c.delta, c.gamma_lo, c.gamma_hi, c.p_err,
             c.failed, c.skipped, c.degenerate) for c in cells]
    table = _write_table(
        out / "surface",
        ("theta1", "eps", "case_id", "delta", "gamma_lo", "gamma_hi", "p_err", "failed", "skipped",
         "degenerate"),
        rows, cfg["format"],
    )
    bracket = Bracket(float(eps_grid[0]), float(eps_grid[-1]))
    minima = []
    for theta1 in theta1_grid:
        theta1 = float(theta1)
        if not cfg["theta0"] < theta1 < cfg["tau"]:
            minima.append({"theta1": theta1, "skipped": True})
            continue
        found = find_perr_minimum(cfg["theta0"], theta1, cfg["tau"], cfg["T"], p0, p1,
                                  law, cfg["scheme"], bracket=bracket)
        if any(r is None for r in found.endpoints):
            raise QuadratureFailure(_bracket_end_failure(cfg, theta1, bracket, found, law))
        minima.append({
            "theta1": theta1,
            "eps_star": found.eps_star,
            "p_err_min": found.p_err_min,
            "p_err_at_bracket": [r.p_err for r in found.endpoints],
            "degenerate_at_bracket": [r.degenerate for r in found.endpoints],
            "interior_minima": [{"eps": e, "p_err": v} for e, v in found.local_minima],
            "interior_minimum": bool(found.local_minima),
            "n_failed": found.n_failed,
            "n_degenerate": found.n_degenerate,
        })
    _write_json(out / "minima.json", {"theta0": cfg["theta0"], "minima": minima})
    print(f"wrote {table} ({len(rows)} cells) and {out / 'minima.json'}")


def _bracket_end_failure(cfg: dict[str, Any], theta1: float, bracket: Bracket,
                         found: PerrMinimum, law: InvariantLaw) -> str:
    """Why ``p_err`` failed at an end of the --grid bracket.  Where the null
    gap (tau - theta0)/eps, the larger one, lies beyond the tabulated support
    at the low end, the message names it and the smallest usable start."""
    message = f"p_err failed at a bracket end of --grid (theta1={theta1})"
    lo, hi = law.tables.support
    distance = cfg["tau"] - cfg["theta0"]
    if found.endpoints[0] is None and distance / bracket.lo >= hi:
        message += (f": at eps={bracket.lo:g} the null gap (tau - theta0)/eps = "
                    f"{distance / bracket.lo:.6g} lies beyond the law's tabulated support "
                    f"({lo:.6g}, {hi:.6g}); start --grid above (tau - theta0)/{hi:.6g} = "
                    f"{distance / hi:.6g}")
    return message


def cmd_validate(cfg: dict[str, Any]) -> None:
    if cfg["reps"] < 50:
        raise ConfigError(f"--reps must be at least 50, got {cfg['reps']}")
    if cfg["test_paths"] < 50:
        raise ConfigError(f"--test-paths must be at least 50, got {cfg['test_paths']}")
    _check_positive(cfg, ("eps", "T", "dt", "tau", "test_T", "test_eps"))
    _check_step(cfg, ("T", "test_T"))
    if not cfg["theta0"] < cfg["theta1"] < cfg["tau"]:
        raise ConfigError(
            f"need theta0 < theta1 < tau, got {cfg['theta0']}, {cfg['theta1']}, {cfg['tau']}"
        )
    if not 0.0 < cfg["p0"] < 1.0:
        raise ConfigError("--p0 must lie strictly inside (0, 1)")
    law = _resolve_law(cfg)
    # each study caps this again at its number of paths
    workers = min(cfg["workers"], _usable_cpus())
    var_study = variance_validation_study(
        law, cfg["theta"], cfg["tau"], cfg["eps"], cfg["T"], cfg["dt"],
        n_reps=cfg["reps"], base_seed=cfg["seed"], workers=workers,
    )
    p1 = 1.0 - cfg["p0"]
    problem = TestProblem(theta0=cfg["theta0"], theta1=cfg["theta1"], p0=cfg["p0"], p1=p1,
                          tau=cfg["tau"], eps=cfg["test_eps"], horizon=cfg["test_T"],
                          law=law, scheme=cfg["scheme"])
    err_study = error_rate_study(problem, cfg["dt"], cfg["test_paths"],
                                 base_seed=cfg["seed"] + cfg["reps"], workers=workers)
    report = {
        "empirical_var_ratio_time": var_study.ratio_time,
        "empirical_var_ratio_energy": var_study.ratio_energy,
        "empirical_error_rate": err_study.empirical_rate,
        "predicted_p_err": err_study.predicted_p_err,
        "degenerate": err_study.degenerate,
        "n_reps": var_study.n_reps,
        "n_degenerate": var_study.n_degenerate,
        "n_test_paths": err_study.n_paths,
        "seeds": {
            "variance_study": list(var_study.seeds),
            "error_study": list(err_study.seeds),
        },
    }
    out = Path(cfg["out"])
    _write_json(out / "validate.json", report)
    print(json.dumps(report, sort_keys=True))


_COMMANDS = {
    "law": cmd_law,
    "estimate": cmd_estimate,
    "resonance": cmd_resonance,
    "test": cmd_test,
    "validate": cmd_validate,
}


# built once: a parser holds reference cycles that only the cyclic collector frees
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args, args.command)
        _COMMANDS[args.command](cfg)
    except (ConfigError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateObservation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StochresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
