"""Command-line surface: law inspection, estimation, resonance sweeps,
hypothesis-test studies and Monte Carlo validation.

Structured reports are written as JSON, grids as CSV (or JSON with
--format json).  Every command is bit-reproducible for a fixed seed and
configuration.  Config files are JSON objects mirroring the flag names;
explicit flags override file values.  Each option is one row of
``_OPTIONS``: its name, type or choices, default and help.  The parser is
built from that table, and a config value must be one its flag accepts: a
JSON number for a float flag, an integer (not a bool) for --seed, --reps,
--workers and --test-paths, a listed choice for --scheme and --format, and
a string for the rest.  NaN and infinity are rejected as flags and as
config values alike.

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
from typing import Any, Callable, Iterable, NamedTuple, Sequence

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
from .laws import NAMED_SPECS, DiffusionSpec, InvariantLaw, build_invariant_law
from .maptest import PerrMinimum, TestProblem, find_perr_minimum, p_err, p_err_surface
from .numerics import Bracket
from .resonance import find_resonance, resonance_curve
from .simulate import SimConfig, observe, perturb, simulate_path
from .validate import validation_studies


def _finite(value: Any) -> float:
    """The type of every float option: a finite float, so NaN and infinity
    are rejected as a flag and as a config value alike."""
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}")
    return number


# the JSON types a config value of each option type may have, and their name
_JSON_TYPES = {_finite: ((int, float), "a finite number"), int: ((int,), "an integer"),
               str: ((str,), "a string")}


class _Option(NamedTuple):
    """One option: the config key ``name`` and the flag ``_flag(name)``.

    ``type`` converts the flag's text and the config file's value alike.
    ``default`` is one value, or a mapping from command to value (None for
    a command it leaves out).  ``commands`` lists the commands that take
    the option; None means every command.
    """

    name: str
    default: Any
    help: str
    type: Callable[[Any], Any] = str
    choices: tuple[str, ...] | None = None
    commands: tuple[str, ...] | None = None

    def default_for(self, command: str) -> Any:
        return self.default.get(command) if isinstance(self.default, dict) else self.default


_OPTIONS = (
    _Option("noise", "ou", "named noise law (e.g. 'ou')"),
    _Option("drift", None, "drift expression in x for a custom law"),
    _Option("sigma", None, "diffusion expression in x for a custom law"),
    _Option("tau", 1.0, "detector threshold", _finite),
    _Option("theta", 0.5, "signal level", _finite),
    _Option("eps", 0.7244, "noise level", _finite),
    _Option("T", 1000.0, "time horizon", _finite),
    _Option("dt", 0.01, "simulation step size", _finite),
    _Option("seed", 0, "base RNG seed", int),
    _Option("scheme", "time", "observation scheme", choices=("time", "energy")),
    _Option("grid", {"law": "-4:4:0.01", "resonance": "0.05:3.0:0.05", "test": "0.1:3.0:0.1"},
            "grid as lo:hi:step"),
    _Option("p0", 0.5, "prior of the null hypothesis", _finite),
    _Option("reps", 200, "Monte Carlo replications", int),
    _Option("out", "out", "output directory"),
    _Option("format", "csv", "grid table format", choices=("csv", "json")),
    _Option("workers", 1, "processes that split the seeds of the validate studies, capped at the "
            "CPUs this process may use (the report is the same for any count); other commands "
            "run in one process", int),
    _Option("trajectory_out", None, "also write the perturbed path as CSV (t, value)",
            commands=("estimate",)),
    _Option("theta0", 0.0, "null signal level", _finite, commands=("test", "validate")),
    _Option("theta_grid", "0.1:0.9:0.1", "theta1 grid as lo:hi:step", commands=("test",)),
    _Option("theta1", 0.5, "alternative signal level", _finite, commands=("validate",)),
    _Option("test_paths", 2000, "labeled paths for the error-rate study", int,
            commands=("validate",)),
    _Option("test_T", 200.0, "horizon for the error-rate study", _finite, commands=("validate",)),
    _Option("test_eps", 0.7, "noise level for the error-rate study", _finite,
            commands=("validate",)),
)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _options(command: str) -> dict[str, _Option]:
    return {o.name: o for o in _OPTIONS if o.commands is None or command in o.commands}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochres",
        description="Subthreshold signal estimation through a noisy threshold detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (
        ("law", "ergodicity report and sampled density/distribution"),
        ("estimate", "simulate one path and estimate the signal"),
        ("resonance", "fisher-information sweep over the noise level"),
        ("test", "MAP error-probability surface over (theta1, eps)"),
        ("validate", "Monte Carlo validation studies"),
    ):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON config file; flags override it")
        # the parser's default stays None, so a given flag is told apart from an unset one
        for option in _options(command).values():
            default = option.default_for(command)
            text = option.help if default is None else f"{option.help} (default: {default})"
            p.add_argument(_flag(option.name), dest=option.name, type=option.type,
                           choices=option.choices, help=text)
    return parser


def _config_value(option: _Option, value: Any) -> Any:
    """A config-file value through its flag's type and choices; it must
    also be of the JSON type the flag's type reads (``_JSON_TYPES``), so a
    bool is not an integer and a string is not a number."""
    accepted, kind = _JSON_TYPES[option.type]
    if option.choices is not None:
        kind = "one of " + ", ".join(option.choices)
    try:
        if type(value) in accepted and (option.choices is None or value in option.choices):
            return option.type(value)
    except argparse.ArgumentTypeError:
        pass
    raise ConfigError(f"config value {json.dumps(value)} for {_flag(option.name)}: must be {kind}")


def _merge_config(args: argparse.Namespace, command: str) -> dict[str, Any]:
    """Each option of ``command``: its flag if given, else its value in the
    --config file, else its default."""
    options = _options(command)
    merged = {name: option.default_for(command) for name, option in options.items()}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(raw) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys for '{command}': {sorted(unknown)}")
        merged.update((key, _config_value(options[key], value)) for key, value in raw.items())
    for name in options:
        flag = getattr(args, name)
        if flag is not None:
            merged[name] = flag
    if merged["workers"] < 1:
        raise ConfigError(f"--workers must be an integer of at least 1, got {merged['workers']!r}")
    return merged


# the most cells a grid may have; the default grids have 800, 59 and 29
_MAX_GRID_CELLS = 100_000


def _parse_grid(text: str, name: str = "grid") -> np.ndarray:
    flag = "--" + name
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"{flag} must look like lo:hi:step, got {text!r}") from exc
    if step <= 0 or hi <= lo:
        raise ConfigError(f"{flag} needs hi > lo and step > 0, got {text!r}")
    # a span that is not finite makes the cell count inf or NaN
    cells = (hi - lo) / step
    if not math.isfinite(cells) or round(cells) > _MAX_GRID_CELLS:
        raise ConfigError(f"{flag} needs a finite span and at most {_MAX_GRID_CELLS} cells, got {text!r}")
    n = round(cells)
    if n < 1:
        raise ConfigError(f"{flag} {text!r} contains no points")
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
            raise ConfigError(f"{_flag(key)} must be positive, got {cfg[key]}")


def _check_step(cfg: dict[str, Any], horizons: Iterable[str]) -> None:
    for key in horizons:
        if not cfg["dt"] <= cfg[key]:
            raise ConfigError(f"--dt must not exceed {_flag(key)}, got dt={cfg['dt']} > {cfg[key]}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header and rows; the csv module writes None as an empty cell and
    NaN as ``nan``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(path_base: Path, header: Sequence[str], rows: Iterable[Sequence], fmt: str) -> Path:
    path = path_base.with_suffix("." + fmt)
    if fmt == "json":
        _write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        _write_csv(path, header, rows)
    return path


def cmd_law(cfg: dict[str, Any]) -> None:
    law = _resolve_law(cfg)
    report = law.ergodicity
    out = Path(cfg["out"])
    _write_json(out / "ergodicity.json", {
        "c2_left_limit": report.c2_left_limit,
        "c2_right_limit": report.c2_right_limit,
        "G": report.G if math.isfinite(report.G) else "inf",
        "c2_holds": report.c2_holds,
        "c3_holds": report.c3_holds,
        "label": law.label,
        "nodes": len(law.grid_x),
        "support": list(law.tables.support),
    })
    grid = _parse_grid(cfg["grid"])
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
    if cfg["trajectory_out"]:
        _write_csv(Path(cfg["trajectory_out"]), ("t", "value"),
                   zip(path.times.tolist(), path.values.tolist()))
    print(json.dumps(report, sort_keys=True))


def cmd_resonance(cfg: dict[str, Any]) -> None:
    _check_positive(cfg, ("tau",))
    if not cfg["theta"] < cfg["tau"]:
        raise ConfigError("resonance assumes a subthreshold signal: need theta < tau")
    law = _resolve_law(cfg)
    grid = _parse_grid(cfg["grid"])
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


def _priors(cfg: dict[str, Any]) -> tuple[float, float]:
    """(p0, 1 - p0); ConfigError unless both lie strictly inside (0, 1) (a
    p0 of 2^-54 or less rounds 1 - p0 to 1)."""
    p0 = cfg["p0"]
    if not (0.0 < p0 < 1.0 and 1.0 - p0 < 1.0):
        raise ConfigError("--p0 and 1 - p0 must lie strictly inside (0, 1)")
    return p0, 1.0 - p0


def cmd_test(cfg: dict[str, Any]) -> None:
    _check_positive(cfg, ("tau", "T"))
    p0, p1 = _priors(cfg)
    law = _resolve_law(cfg)
    eps_grid = _parse_grid(cfg["grid"])
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
    at the low end, the message names it and the smallest usable start;
    otherwise it gives the failure ``p_err`` raises at the failed end (a
    degenerate variance, or cuts that underflow)."""
    message = f"p_err failed at a bracket end of --grid (theta1={theta1})"
    lo, hi = law.tables.support
    distance = cfg["tau"] - cfg["theta0"]
    if found.endpoints[0] is None and distance / bracket.lo >= hi:
        return message + (f": at eps={bracket.lo:g} the null gap (tau - theta0)/eps = "
                          f"{distance / bracket.lo:.6g} lies beyond the law's tabulated support "
                          f"({lo:.6g}, {hi:.6g}); start --grid above (tau - theta0)/{hi:.6g} = "
                          f"{distance / hi:.6g}")
    eps = bracket.lo if found.endpoints[0] is None else bracket.hi
    try:
        p_err(TestProblem(theta0=cfg["theta0"], theta1=theta1, p0=cfg["p0"], p1=1.0 - cfg["p0"],
                          tau=cfg["tau"], eps=eps, horizon=cfg["T"], law=law, scheme=cfg["scheme"]))
    except QuadratureFailure as exc:
        return f"{message}: {exc}"
    return message


def cmd_validate(cfg: dict[str, Any]) -> None:
    for key in ("reps", "test_paths"):
        if cfg[key] < 50:
            raise ConfigError(f"{_flag(key)} must be at least 50, got {cfg[key]}")
    _check_positive(cfg, ("eps", "T", "dt", "tau", "test_T", "test_eps"))
    _check_step(cfg, ("T", "test_T"))
    if not cfg["theta"] < cfg["tau"]:
        raise ConfigError("validation assumes a subthreshold signal: need theta < tau")
    if not cfg["theta0"] < cfg["theta1"] < cfg["tau"]:
        raise ConfigError(
            f"need theta0 < theta1 < tau, got {cfg['theta0']}, {cfg['theta1']}, {cfg['tau']}"
        )
    p0, p1 = _priors(cfg)
    law = _resolve_law(cfg)
    problem = TestProblem(theta0=cfg["theta0"], theta1=cfg["theta1"], p0=p0, p1=p1,
                          tau=cfg["tau"], eps=cfg["test_eps"], horizon=cfg["test_T"],
                          law=law, scheme=cfg["scheme"])
    var_study, err_study = validation_studies(
        problem, cfg["theta"], cfg["eps"], cfg["T"], cfg["dt"], cfg["reps"], cfg["test_paths"],
        base_seed=cfg["seed"], workers=min(cfg["workers"], _usable_cpus()),
    )
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
