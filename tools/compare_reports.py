"""Check that the CLI writes the same reports as at another git revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_reports.py REV [--seed N]

``src/`` at REV is extracted with ``git archive`` into a temporary
directory.  The same commands then run against that tree and against the
working tree's ``src/``: the ``stochres`` commands of README.md's CLI
section, each README ``validate`` command again with ``--workers 2`` (its
studies stepped on a process pool), and the seed-0 commands of every
benchmark workload (``perfbench.workloads.WORKLOADS``); ``--seed N`` adds
each workload's seed-N commands, so the reports at a seed not used while
writing a change are compared too.  Each command runs in its own
interpreter with ``PYTHONPATH`` set to one tree, from a working directory
of its own, and writes under a relative ``--out``.  Every file
written, the exit code and the standard output and error (with the working
directory replaced by ``<out>``) must be byte-identical.  One line is printed per
difference; the exit status is 1 if there is any, else 0.  The line of a
JSON or CSV report written on both sides, or of a standard output that
parses as JSON on both sides, says how far it moved: the largest relative
difference over its numeric fields, and whether any non-numeric field (a
string, a flag, a key or the shape) differs.  Any other differing exit code
or stream is quoted from both sides.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

_RUN = "import sys\nfrom stochres.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def readme_commands() -> list[list[str]]:
    """The argv of each ``stochres`` line in the first sh block of README.md's CLI section."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("stochres ")]


def commands(seed: int | None = None) -> list[list[str]]:
    """Every command to compare, with the seed-``seed`` workload commands
    when one is given; each writes under a relative ``--out``."""
    argvs = []
    for argv in readme_commands():
        out = argv.index("--out") + 1
        argvs.append(argv[:out] + [str(Path("readme") / argv[out])] + argv[out + 1:])
        if argv[0] == "validate":
            argvs.append(argv[:out] + [str(Path("readme_workers2") / argv[out])] + argv[out + 1:]
                         + ["--workers", "2"])
    for name, workload in WORKLOADS.items():
        argvs += [command.argv for command in workload.commands(0, Path(name))]
        if seed is not None:
            argvs += [command.argv for command in workload.commands(seed, Path(f"{name}_seed{seed}"))]
    return argvs


def extract_src(rev: str, into: Path) -> Path:
    """``src/`` at ``rev``, extracted under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def run(src: Path, argv: list[str], cwd: Path) -> tuple[tuple[int, str, str], dict[str, bytes]]:
    """Run one command on the tree ``src`` from the new directory ``cwd``:
    its exit code, stdout and stderr, and the bytes of every file it wrote."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    ran = done.returncode, done.stdout.replace(str(cwd), "<out>"), done.stderr.replace(str(cwd), "<out>")
    return ran, {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}


def _leaves(value, key=()):
    """(key path, value) of every scalar of a parsed JSON document."""
    if isinstance(value, (dict, list)):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(v, key + (k,))
    else:
        yield key, value


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _fields(path: str, data: bytes) -> list | None:
    """(key, value) of every field of a JSON or CSV report, numbers as
    numbers; None for any other file."""
    if path.endswith(".json"):
        return list(_leaves(json.loads(data)))
    if path.endswith(".csv"):
        rows = csv.reader(io.StringIO(data.decode()))
        return [((r, c), _cell(text)) for r, row in enumerate(rows) for c, text in enumerate(row)]
    return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def moved(path: str, a: bytes, b: bytes) -> str:
    """How far the report ``path`` moved from ``a`` to ``b``: the largest
    relative difference over its numeric fields and whether a non-numeric
    field differs; empty for a file that is not JSON or CSV, or does not parse."""
    try:
        fields_a, fields_b = _fields(path, a), _fields(path, b)
    except ValueError:  # a malformed report, or one that is not UTF-8
        return ""
    if fields_a is None:
        return ""
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    largest, other = 0.0, len(fields_a) != len(fields_b)
    for (key_a, va), (key_b, vb) in zip(fields_a, fields_b):
        if key_a == key_b and numeric(va) and numeric(vb):
            largest = max(largest, _relative(float(va), float(vb)))
        elif key_a != key_b or va != vb:
            other = True
    return (f" (largest relative difference {largest:.2g} over numeric fields; "
            f"non-numeric fields {'differ' if other else 'equal'})")


def ran_differs(what: str, a, b, rev: str) -> str:
    """The line for an exit code, stdout or stderr ``what`` that is ``a`` at
    ``rev`` and ``b`` in the working tree: a stdout that parses as JSON on
    both sides is summarized as a JSON report is, anything else quoted."""
    summary = moved("stdout.json", a.encode(), b.encode()) if what == "stdout" else ""
    return f"{what} differs{summary}" if summary else f"{what} differs: {a!r} at {rev}, {b!r} in the working tree"


def compare(rev: str, seed: int | None = None) -> list[str]:
    differences = []
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        tmp = Path(tmp)
        rev_src = extract_src(rev, tmp / "rev")
        for k, argv in enumerate(commands(seed)):
            name = "stochres " + shlex.join(argv)
            ran_rev, wrote_rev = run(rev_src, argv, tmp / "out_rev" / str(k))
            ran_work, wrote_work = run(ROOT / "src", argv, tmp / "out_work" / str(k))
            found = [f"{name}: {ran_differs(what, a, b, rev)}"
                     for what, a, b in zip(("exit code", "stdout", "stderr"), ran_rev, ran_work) if a != b]
            for path in sorted(wrote_rev.keys() | wrote_work.keys()):
                if wrote_rev.get(path) != wrote_work.get(path):
                    if path in wrote_rev and path in wrote_work:
                        found.append(f"{name}: {path} differs{moved(path, wrote_rev[path], wrote_work[path])}")
                    else:
                        found.append(f"{name}: {path} is written on one side only")
            print(f"{'differs' if found else 'same'}: {name}", flush=True)
            differences += found
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--seed", type=int, help="also compare each workload's commands at this seed")
    args = parser.parse_args(argv)
    differences = compare(args.rev, args.seed)
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
