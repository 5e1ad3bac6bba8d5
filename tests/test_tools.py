import importlib.util
import sys
from pathlib import Path

import pytest

from stochres import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from code_lines import code_lines  # noqa: E402
from compare_reports import commands as compared_commands, moved, ran_differs  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("path, a, b, largest, other", [
    ("r.json", b'{"x": 1.0, "s": "a", "ok": true}', b'{"x": 1.0000000001, "s": "a", "ok": true}', "1e-10", "equal"),
    ("r.json", b'{"x": 1.0, "ok": true}', b'{"x": 1.0, "ok": false}', "0", "differ"),
    ("r.json", b'{"x": [1.0, 2.0]}', b'{"x": [1.0]}', "0", "differ"),
    ("r.csv", b"x,F,flag\n0.0,0.5,False\n", b"x,F,flag\n0.0,0.5000000000000001,False\n", "2.2e-16", "equal"),
    ("r.csv", b"x,F\n0.0,nan\n", b"x,F\n0.0,0.5\n", "inf", "equal"),
    ("r.csv", b"x,F\n0.0,nan\n", b"x,G\n0.0,nan\n", "0", "differ"),
])
def test_moved_reports_numeric_and_other_differences(path, a, b, largest, other):
    assert moved(path, a, b) == (f" (largest relative difference {largest} over numeric fields; "
                                 f"non-numeric fields {other})")


def test_moved_says_nothing_for_other_or_malformed_files():
    assert moved("r.txt", b"1", b"2") == ""
    assert moved("r.json", b'{"x": 1.0}', b'{"x": 1.') == ""


def test_differing_stdout_is_summarized_when_it_parses_as_json():
    a, b = '{\n  "x": 1.0,\n  "ok": true\n}\n', '{\n  "x": 1.0000000001,\n  "ok": true\n}\n'
    assert ran_differs("stdout", a, b, "HEAD") == (
        "stdout differs (largest relative difference 1e-10 over numeric fields; non-numeric fields equal)")
    # text that is not JSON on both sides, stderr and the exit code are quoted
    assert ran_differs("stdout", a, "done\n", "HEAD") == f"stdout differs: {a!r} at HEAD, 'done\\n' in the working tree"
    assert ran_differs("stderr", a, b, "HEAD") == f"stderr differs: {a!r} at HEAD, {b!r} in the working tree"
    assert ran_differs("exit code", 0, 1, "HEAD") == "exit code differs: 0 at HEAD, 1 in the working tree"


def test_seed_option_adds_each_workloads_seed_n_commands():
    base, seeded = compared_commands(), compared_commands(3)
    extra = [argv for argv in seeded if argv not in base]
    assert [argv for argv in seeded if argv in base] == base
    assert len(extra) == sum(len(w.commands(3, Path(name))) for name, w in WORKLOADS.items())
    for argv in extra:
        out = argv[argv.index("--out") + 1]
        assert out.split("/")[0] in {f"{name}_seed3" for name in WORKLOADS}, argv


def test_code_lines_count_lines_with_a_token_other_than_a_comment_or_docstring():
    source = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "import math  # a comment after code\n"
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """A docstring."""\n'
        "    return math.hypot(x,\n"
        "                      1.0)\n"
    )
    # the import, the def and both lines of the split call
    assert code_lines(source) == 4


def _reports(root, commands):
    """Run each argv with ``--out`` under root: the bytes of every file written."""
    for name, argv in commands:
        assert cli.main(argv + ["--out", str(root / name)]) == 0
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_benchmark_tracer_counts_law_builds_and_changes_no_report(tmp_path):
    # the benchmark's tracer wraps the functions it names in TRACED wherever
    # a stochres module binds them, and rebuilds each law with counted f, F
    # and sf (dataclasses.replace); a rename of those functions or fields
    # breaks the traced benchmark run, so it is checked here on two commands
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cubic = ["--drift=-x^3", "--sigma", "1"]
    commands = [("law", ["law", *cubic]), ("resonance", ["resonance", *cubic])]
    plain = _reports(tmp_path / "plain", commands)
    bindings = {name: dict(vars(module)) for name, module in sys.modules.items()
                if name == "stochres" or name.startswith("stochres.")}
    table = dict(cli._COMMANDS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _reports(tmp_path / "traced", commands)
    finally:
        tracer.uninstall()
    assert tracer.counts["laws.build_invariant_law.calls"] == 2
    assert tracer.counts["laws.nodes"] > 0
    assert traced == plain and len(plain) == 4
    # uninstall puts back every binding the install replaced
    assert cli._COMMANDS == table
    for name, before in bindings.items():
        after = vars(sys.modules[name])
        assert [key for key, value in before.items() if after.get(key) is not value] == [], name
