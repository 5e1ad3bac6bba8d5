"""Check that the CLI writes the same reports as at another git revision.

Usage (from anywhere inside the repository):

    python3 tools/compare_reports.py REV

``src/`` at REV is extracted with ``git archive`` into a temporary
directory.  The same commands then run against that tree and against the
working tree's ``src/``: the ``stochres`` commands of README.md's CLI
section and the seed-0 commands of every benchmark workload
(``perfbench.workloads.WORKLOADS``).  Each command runs in its own
interpreter with ``PYTHONPATH`` set to one tree, from a working directory
of its own, and writes under a relative ``--out``.  Every file written, the
exit code and the standard output and error (with the working directory
replaced by ``<out>``) must be byte-identical.  One line is printed per
difference; the exit status is 1 if there is any, else 0.
"""
from __future__ import annotations

import argparse
import io
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


def commands() -> list[list[str]]:
    """Every command to compare; each writes under a relative ``--out``."""
    argvs = []
    for argv in readme_commands():
        out = argv.index("--out") + 1
        argvs.append(argv[:out] + [str(Path("readme") / argv[out])] + argv[out + 1:])
    for name, workload in WORKLOADS.items():
        argvs += [command.argv for command in workload.commands(0, Path(name))]
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


def compare(rev: str) -> list[str]:
    differences = []
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as tmp:
        tmp = Path(tmp)
        rev_src = extract_src(rev, tmp / "rev")
        for k, argv in enumerate(commands()):
            name = "stochres " + shlex.join(argv)
            ran_rev, wrote_rev = run(rev_src, argv, tmp / "out_rev" / str(k))
            ran_work, wrote_work = run(ROOT / "src", argv, tmp / "out_work" / str(k))
            found = [f"{name}: {what} differs: {a!r} at {rev}, {b!r} in the working tree"
                     for what, a, b in zip(("exit code", "stdout", "stderr"), ran_rev, ran_work) if a != b]
            for path in sorted(wrote_rev.keys() | wrote_work.keys()):
                if wrote_rev.get(path) != wrote_work.get(path):
                    both = path in wrote_rev and path in wrote_work
                    found.append(f"{name}: {path} {'differs' if both else 'is written on one side only'}")
            print(f"{'differs' if found else 'same'}: {name}", flush=True)
            differences += found
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    differences = compare(parser.parse_args(argv).rev)
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
