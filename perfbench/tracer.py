"""Span tracer that wraps stochres' public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, command id)
and per-layer counters.  Wrappers replace every binding of the original
function object in the loaded ``stochres`` modules, because several modules
import functions by name (``integrate_line`` into ``laws`` and
``estimators``, ``simulate_paths`` into ``validate`` ...), and the CLI's
command table.  ``uninstall`` restores every binding.

Single-threaded use only: the span stack is one list.  The benchmark runs
every command in one thread (``--workers`` is only given to ``validate``,
which ignores it).
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module, function) pairs whose calls, self time and typed failures are reported
TRACED = {
    "numerics": ("integrate_line", "maximize_scalar", "find_root"),
    "laws": ("build_invariant_law", "check_ergodicity"),
    "estimators": (
        "edf_variance", "energy_statistic_variance", "time_scheme_variance",
        "energy_scheme_variance", "energy_limit", "estimate_theta_energy",
        "estimate_theta_time",
    ),
    "resonance": ("find_resonance", "resonance_curve"),
    "maptest": ("p_err_surface", "find_perr_minimum", "p_err", "moments"),
    "simulate": ("simulate_paths", "simulate_path", "observe", "perturb"),
    "validate": ("variance_validation_study", "error_rate_study"),
}
CLI_COMMANDS = ("law", "estimate", "resonance", "test", "validate")

# callable argument (position 0, or this keyword) whose evaluations are counted
_COUNTED_ARG = {
    "numerics.integrate_line": ("f", "integrand_evals"),
    "numerics.maximize_scalar": ("h", "objective_evals"),
    "numerics.find_root": ("g", "g_evals"),
}

# counters of their own: evaluations of counted arguments, values read from results
EXTRA_COUNTS = (
    "numerics.integrate_line.integrand_evals",
    "numerics.maximize_scalar.objective_evals",
    "numerics.find_root.g_evals",
    "laws.nodes",
    "laws.density_evals",
    "resonance.points",
    "resonance.points_failed",
    "resonance.local_maxima",
    "maptest.p_err_surface.cells",
    "maptest.p_err_surface.cells_failed",
    "maptest.find_perr_minimum.n_failed",
    "simulate.paths",
    "simulate.steps",
    "simulate.bytes_materialized",
    "validate.degenerate",
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, as (name, unit)."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s"),
                      (f"{module}.{fn}.failures", "count")]
    names += [(n, "B-computed" if n == "simulate.bytes_materialized" else "count")
              for n in EXTRA_COUNTS]
    names += [(f"cli.{c}.self_s", "s") for c in CLI_COMMANDS]
    return names


class Tracer:
    """Spans kept in memory; counters and self times per traced section."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.command = ""
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # open spans: [index, start, time covered by children]
        self._patches: list[tuple[Any, str, Any]] = []
        self._error_type: type = Exception

    def reset_section(self) -> None:
        self.counts = Counter()
        self.self_s = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.command))
        frame = [index, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except self._error_type:
            self.counts[name + ".failures"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.spans[index] = (name, frame[1], end, parent, self.command)
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def _counting(self, fn: Callable, counter: str) -> Callable:
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        counted_arg = _COUNTED_ARG.get(name)
        on_result = _RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if counted_arg is not None:
                key, counter = counted_arg
                counter = f"{name}.{counter}"
                if args:
                    args = (tracer._counting(args[0], counter),) + args[1:]
                else:
                    kwargs[key] = tracer._counting(kwargs[key], counter)
            result = tracer._call(name, fn, args, kwargs)
            if on_result is not None:
                result = on_result(tracer, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a stochres module binds it."""
        self._error_type = importlib.import_module("stochres.errors").StochresError
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "stochres" or key.startswith("stochres."))]
        for module, functions in TRACED.items():
            owner = importlib.import_module(f"stochres.{module}")
            for fn_name in functions:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        table = importlib.import_module("stochres.cli")._COMMANDS
        for command in CLI_COMMANDS:
            original = table[command]
            self._patches.append((table, command, original))
            table[command] = self._wrap(f"cli.{command}", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []


# -- result hooks: counters read from return values ----------------------

def _law_built(tracer: Tracer, law):
    tracer.counts["laws.nodes"] += len(law.grid_x)
    counted = {k: tracer._counting(getattr(law, k), "laws.density_evals") for k in ("f", "F", "sf")}
    return dataclasses.replace(law, **counted)


def _curve(tracer: Tracer, points):
    tracer.counts["resonance.points"] += len(points)
    tracer.counts["resonance.points_failed"] += sum(p.failed for p in points)
    return points


def _resonance(tracer: Tracer, result):
    _curve(tracer, result.curve)
    tracer.counts["resonance.local_maxima"] += len(result.local_maxima)
    return result


def _surface(tracer: Tracer, cells):
    tracer.counts["maptest.p_err_surface.cells"] += len(cells)
    tracer.counts["maptest.p_err_surface.cells_failed"] += sum(c.failed for c in cells)
    return cells


def _perr_minimum(tracer: Tracer, result):
    tracer.counts["maptest.find_perr_minimum.n_failed"] += result.n_failed
    return result


def _simulated(tracer: Tracer, n_paths: int, n_steps: int) -> None:
    tracer.counts["simulate.paths"] += n_paths
    tracer.counts["simulate.steps"] += n_paths * n_steps
    # computed, not measured: the normals matrix and the values matrix, float64
    tracer.counts["simulate.bytes_materialized"] += 2 * n_paths * n_steps * 8


def _one_path(tracer: Tracer, traj):
    _simulated(tracer, 1, len(traj.values) - 1)
    return traj


def _many_paths(tracer: Tracer, trajs):
    _simulated(tracer, len(trajs), len(trajs[0].values) - 1)
    return trajs


def _variance_study(tracer: Tracer, study):
    tracer.counts["validate.degenerate"] += study.n_degenerate
    return study


_RESULT_HOOKS: dict[str, Callable] = {
    "laws.build_invariant_law": _law_built,
    "resonance.resonance_curve": _curve,
    "resonance.find_resonance": _resonance,
    "maptest.p_err_surface": _surface,
    "maptest.find_perr_minimum": _perr_minimum,
    "simulate.simulate_path": _one_path,
    "simulate.simulate_paths": _many_paths,
    "validate.variance_validation_study": _variance_study,
}
