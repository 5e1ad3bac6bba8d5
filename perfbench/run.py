"""stochres benchmark: named workloads run through ``stochres.cli.main`` in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload ou_closed_form --seed 0 --seconds 25 --trace 0

Closed loop, one process, one thread: the workload's CLI commands run back to
back and are repeated until ``--seconds`` have passed (and at least the
workload's minimum number of repeats).  The outputs are checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` (CLI
commands run), ``failed`` (commands that exited nonzero) and ``metrics``;
the line before it gives the details (every repeat's command times, command
failures with their stderr line, output-quality metrics, failed checks).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of fresh
interpreters importing stochres and building the workload's laws),
``wall_s`` (summed command times, each command at its median over repeats)
and ``peak_rss_mb``.  ``--trace 1`` first repeats the commands untraced,
then wraps the public functions of each module (see ``tracer.py``) and
repeats them traced.  It reports per-layer counts (from one repeat) and self
times (median over repeats), the untraced per-command times, the output
quality metrics and the tracing overhead.  Its checks fail unless traced and
untraced repeats write identical reports.  Spans are written to
``.perfbench_run/<workload>/spans.json`` at exit.

Host-speed correction: on the shared 2-vCPU virtual machine the benchmark
was built on, the speed of the same code drifts by up to 1.7x, in bursts of
under a second and in phases longer than a run, which no within-run
statistic removes (raw ``wall_s`` spread 15-30 % across runs).  So while the
commands run, a fixed reference computation is timed every 0.1 s (thread CPU
time, so time-slicing with other processes does not count), and each
command's time, and each setup time, is scaled by NOMINAL_REF_S over the
mean reference time sampled during it (at least MIN_SAMPLES samples).  The
mean, not the median, because a command's time integrates the slowdown.
That brings the spread down to a few per cent.  Per-layer self times use the
whole run's factor.  Raw times are printed on the details line.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
COMMAND_KINDS = ("resonance", "test", "estimate", "law", "validate")
SAMPLE_PERIOD_S = 0.1
MIN_SAMPLES = 5
# mean reference time on an uncontended 2-vCPU Xeon virtual machine (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1); fixes the scale of every corrected time
NOMINAL_REF_S = 4.0e-4

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, Checks, Command  # noqa: E402

# per-layer metrics besides the tracer's: untraced command times from the
# traced run, output quality, and the cost of tracing itself
REPORT_METRICS = (
    [(f"{kind}_s", "s") for kind in COMMAND_KINDS]
    + [("cmd_fail_ratio", "ratio"), ("point_fail_ratio", "ratio"), ("extra_peaks", "count"),
       ("eps_star_err", "eps"), ("sigma_scaling_err", "ratio"), ("mc_var_ratio_err", "ratio"),
       ("trace_overhead", "ratio")]
)

_REF_X = np.linspace(-2.0, 2.0, 16)


def _reference_work() -> float:
    """Scalar numpy, special-function and small-array calls, like the integrands."""
    acc = 0.0
    for i in range(60):
        x = np.asarray(i * 0.01, dtype=float)
        acc += float(np.exp(-x * x)) + float(0.5 * special.erfc(-x)) + math.erf(i * 0.01)
        acc += float(np.square(_REF_X * x).sum())
    return acc


class HostSpeed:
    """Times the reference computation every SAMPLE_PERIOD_S while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter at each sample

    def _sample(self, signum, frame) -> None:
        self.times.append(time.perf_counter())
        start = time.thread_time()
        _reference_work()
        self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Multiply a time measured in [start, end] by this to express it at the
        nominal host speed: uses the samples taken in that interval, widened to
        the MIN_SAMPLES nearest ones for short intervals."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return NOMINAL_REF_S / statistics.mean(self.samples[lo:hi])


@dataclass
class Outcome:
    command: Command
    exit_code: int
    start: float
    seconds: float  # raw wall time
    error: str  # first line of stderr when the command failed
    nominal_s: float = math.nan  # at the nominal host speed, set once the run ends


def _run_command(main, command: Command) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.argv)
    seconds = time.perf_counter() - start
    lines = [ln for ln in err.getvalue().splitlines() if ln.strip()]
    first = next((ln for ln in lines if ln.startswith("error:")), lines[0] if lines else "")
    return Outcome(command, code, start, seconds, first if code else "")


def _digest(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _setup_seconds(code: str) -> list[tuple[float, float]]:
    """(start, wall time) of fresh interpreters that import stochres and build the laws."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append((start, time.perf_counter() - start))
    return times


def _repeat(main, commands: list[Command], out: Path, seconds: float, minimum: int,
            before_each=None) -> tuple[list[list[Outcome]], list[dict[str, str]]]:
    """Run the command list until `seconds` have passed and `minimum` repeats are done."""
    repeats, digests = [], []
    start = time.perf_counter()
    while len(repeats) < minimum or time.perf_counter() - start < seconds:
        outcomes = []
        for command in commands:
            if before_each is not None:
                before_each(len(repeats), command)
            outcomes.append(_run_command(main, command))
        repeats.append(outcomes)
        digests.append(_digest(out))
    return repeats, digests


def _wall(repeats: list[list[Outcome]], raw: bool = False) -> float:
    """Summed time of the commands, each command at its median over repeats."""
    return sum(statistics.median(r[i].seconds if raw else r[i].nominal_s for r in repeats)
               for i in range(len(repeats[0])))


def _kind_seconds(repeats: list[list[Outcome]], kind: str) -> float:
    return statistics.median(sum((o.nominal_s for o in r if o.command.kind == kind), 0.0)
                             for r in repeats)


def _failure_summary(repeats: list[list[Outcome]]) -> list[dict]:
    seen: dict[tuple, dict] = {}
    for r in repeats:
        for o in r:
            if o.exit_code:
                key = (o.command.label, o.exit_code, o.error)
                entry = seen.setdefault(key, {"command": " ".join(o.command.argv),
                                              "exit_code": o.exit_code, "stderr": o.error,
                                              "times": 0})
                entry["times"] += 1
    return list(seen.values())


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _traced_repeats(cli_main, commands, out, budget):
    """Repeat the commands with the tracer installed; per-repeat counts and self times."""
    tracer = Tracer()
    sections: list[tuple[dict, dict]] = []

    def begin(index: int, command: Command) -> None:
        if command is commands[0]:
            if index:
                sections.append((tracer.counts, tracer.self_s))
            tracer.reset_section()
        tracer.command = f"{index}:{command.label}"

    tracer.install()
    try:
        repeats, digests = _repeat(cli_main, commands, out, budget, 1, begin)
    finally:
        tracer.uninstall()
    sections.append((tracer.counts, tracer.self_s))
    (out / "spans.json").write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "command"], "spans": tracer.spans}))
    return repeats, digests, sections


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochres" / "__init__.py").is_file():
        print(f"error: no stochres sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stochres
    from stochres.cli import main as cli_main

    if Path(stochres.__file__).resolve().parent != (SRC / "stochres").resolve():
        print(f"error: imported stochres from {stochres.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = RUN_DIR / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = workload.commands(args.seed, out)
    checks = Checks()

    traced: list[list[Outcome]] = []
    sections: list[tuple[dict, dict]] = []
    with HostSpeed() as host:
        setup = [] if args.trace else _setup_seconds(workload.setup_code)
        budget = args.seconds / 2 if args.trace else args.seconds
        repeats, digests = _repeat(cli_main, commands, out, budget, workload.min_iterations)
        if args.trace:
            traced, traced_digests, sections = _traced_repeats(cli_main, commands, out, budget)
            digests += traced_digests
    every = repeats + traced
    for o in (o for r in every for o in r):
        o.nominal_s = o.seconds * host.factor(o.start, o.start + o.seconds)

    checks.expect(all(d == digests[0] for d in digests),
                  "repeats with one seed wrote different reports"
                  + (" (traced vs untraced)" if args.trace else ""))
    ok = {o.command.label for o in repeats[-1] if o.exit_code == 0}
    workload.check(args.seed, out, commands, ok, checks)

    attempted = sum(len(r) for r in every)
    failed = sum(o.exit_code != 0 for r in every for o in r)
    checks.quality["cmd_fail_ratio"] = failed / attempted
    wall_s = _wall(repeats)

    if args.trace:
        metrics = {f"{kind}_s": _metric(_kind_seconds(repeats, kind), "s")
                   for kind in COMMAND_KINDS}
        for name, unit in REPORT_METRICS:
            if name in checks.quality:
                metrics[name] = _metric(checks.quality[name], unit)
            elif name == "trace_overhead":
                metrics[name] = _metric(_wall(traced) / wall_s, unit)
            elif name not in metrics:
                metrics[name] = _metric(0.0, unit)  # does not apply to this workload
        for name, unit in layer_metric_names():
            if name.endswith(".self_s"):
                key = name[:-len(".self_s")]
                value = host.factor() * statistics.median(s.get(key, 0.0) for _, s in sections)
            else:
                value = sections[-1][0].get(name, 0)
            metrics[name] = _metric(value, unit)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(t * host.factor(at, at + t) for at, t in setup),
                               "s"),
            "wall_s": _metric(wall_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
        }

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host_speed_factor": host.factor(),
        "reference_samples": len(host.samples),
        "raw_setup_s": [t for _, t in setup],
        "raw_wall_s": _wall(repeats, raw=True),
        "raw_command_s": {c.label: [r[i].seconds for r in repeats] for i, c in enumerate(commands)},
        "quality": checks.quality,
        "command_failures": _failure_summary(every),
        "check_failures": checks.failures,
    }))
    for message in checks.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not checks.failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
