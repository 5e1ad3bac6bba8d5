import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from compare_reports import moved  # noqa: E402


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
