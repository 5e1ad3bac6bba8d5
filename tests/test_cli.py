import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import stochres
from stochres import cli
from stochres.cli import main
from stochres.expressions import compile_expression


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# ---------------------------------------------------------------------------
# law
# ---------------------------------------------------------------------------


def test_law_default_grid(tmp_path):
    out = tmp_path / "law"
    assert run(["law", "--noise", "ou", "--grid=-4:4:0.01", "--out", out]) == 0
    header, rows = read_csv(out / "law.csv")
    assert header == ["x", "f", "F"]
    assert len(rows) == 801
    by_x = {r[0]: r for r in rows}
    assert float(by_x["0.0"][2]) == pytest.approx(0.5, rel=0.0, abs=1e-15)
    report = json.loads((out / "ergodicity.json").read_text())
    assert report["c2_holds"] and report["c3_holds"]
    # the closed-form law's own report: int_0^{+-50} -x dx and sqrt(pi), exactly
    assert report["c2_left_limit"] == report["c2_right_limit"] == -1250.0
    assert report["G"].hex() == math.sqrt(math.pi).hex()
    # the size and ends of the node grid the tables are built on
    law = stochres.ou_law()
    assert report["nodes"] == len(law.grid_x) == 1957
    assert report["support"] == [law.grid_x[0], law.grid_x[-1]]


def test_law_custom_cubic_drift(tmp_path):
    out = tmp_path / "law"
    code = run(["law", "--drift=-x^3", "--sigma", "1", "--grid=-2:2:0.5", "--out", out])
    assert code == 0
    report = json.loads((out / "ergodicity.json").read_text())
    assert report["c2_holds"] and report["c3_holds"]
    # the report's G is the law's normalizer, to the bit
    law = stochres.build_invariant_law(stochres.DiffusionSpec(compile_expression("-x^3"), compile_expression("1")))
    assert report["G"].hex() == law.ergodicity.G.hex()
    header, rows = read_csv(out / "law.csv")
    assert len(rows) == 9


def test_law_heavy_tail_is_a_numerical_error(tmp_path, capsys):
    # stationary mass (1 + x^2)^-1/2: infinite, so the build must refuse it
    code = run(["law", "--drift=-x/(2*(1+x^2))", "--sigma", "1", "--out", tmp_path / "law"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ergodicity checks failed")
    assert "tail ratio" in lines[0]


def test_law_rejects_a_sigma_that_is_not_positive(tmp_path, capsys):
    code = run(["law", "--drift=-x", "--sigma=x", "--out", tmp_path / "law"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: coefficients must be finite and sigma positive")


def test_law_builds_no_variance_table_for_a_steep_tail(tmp_path, monkeypatch):
    # law reads F and f only: it builds no variance table of -x^7 and writes
    # its reports with no warning
    from stochres import laws

    second_order = []
    monkeypatch.setattr(laws, "_second_order_panels", lambda *args: second_order.append(1))
    out = tmp_path / "law"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["law", "--drift=-x^7", "--sigma", "1", "--out", out]) == 0
    assert json.loads((out / "ergodicity.json").read_text())["c3_holds"]
    header, rows = read_csv(out / "law.csv")
    assert header == ["x", "f", "F"] and len(rows) > 0
    assert second_order == []


# laws whose variance tables were NaN on nodes 0.005 apart, where one panel
# spans a fall of the log-mass of 10 or more; the narrow laws scan noise
# levels on their own scale, 1/sigma times the default bracket (0.02, 3),
# and find the resonance of -x at sigma 1 (eps* = 0.366) at eps*/sigma, with
# its Fisher information
STEEP_AND_NARROW = {
    "-x^7": (["--drift=-x^7", "--sigma", "1"], None),
    "-x^9": (["--drift=-x^9", "--sigma", "1"], None),
    "-x^3, sigma 0.05": (["--drift=-x^3", "--sigma", "0.05"], None),
    "-x, sigma 0.01": (["--drift=-x", "--sigma", "0.01", "--grid", "2:300:4.6"], 0.01),
    "-x, sigma 0.001": (["--drift=-x", "--sigma", "0.001", "--grid", "20:3000:46"], 0.001),
}


@pytest.mark.parametrize("case", sorted(STEEP_AND_NARROW))
def test_resonance_on_steep_and_narrow_laws(tmp_path, case):
    flags, sigma = STEEP_AND_NARROW[case]
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["resonance", *flags, "--scheme", "time", "--theta", "0.5", "--out", out]) == 0
    report = json.loads((out / "resonance.json").read_text())
    assert len(report["local_maxima"]) == 1 and report["fisher_star"] > 0.0
    if sigma is not None:
        _, eps_star, fisher_star = GOLDEN_RESONANCE["ou_time"]
        assert report["eps_star"] * sigma == pytest.approx(eps_star, rel=1e-5)
        assert report["fisher_star"] == pytest.approx(fisher_star, rel=1e-9)


def test_law_reports_the_build_check(tmp_path, monkeypatch):
    # every law carries its ergodicity report: a grid-built law the one its
    # build computed, the closed-form law its exact one, so the command
    # probes no law again
    from stochres import laws

    probed = []
    original = laws._probe
    monkeypatch.setattr(laws, "_probe", lambda spec: probed.append(spec) or original(spec))
    assert run(["law", "--drift=-x", "--sigma", "1", "--grid=-1:1:0.5", "--out", tmp_path / "x"]) == 0
    assert len(probed) == 1
    report = json.loads((tmp_path / "x" / "ergodicity.json").read_text())
    assert report["G"] == pytest.approx(math.sqrt(math.pi), rel=1e-9) and report["c3_holds"]
    probed.clear()
    assert run(["law", "--noise", "ou", "--grid=-1:1:0.5", "--out", tmp_path / "ou"]) == 0
    assert probed == []


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    def no_parser():
        raise AssertionError("main must not build a parser per call")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    assert run(["law", "--grid=-1:1:0.5", "--out", tmp_path / "a"]) == 0
    assert run(["law", "--grid=-1:1:0.5", "--out", tmp_path / "b"]) == 0


def test_law_json_format(tmp_path):
    out = tmp_path / "law"
    assert run(["law", "--grid=-1:1:0.5", "--format", "json", "--out", out]) == 0
    table = json.loads((out / "law.json").read_text())
    assert len(table) == 5
    assert {"x", "f", "F"} <= set(table[0])


def test_csv_roundtrips_losslessly(tmp_path):
    out = tmp_path / "law"
    run(["law", "--grid=-2:2:0.25", "--out", out])
    from stochres import ou_law

    law = ou_law()
    _, rows = read_csv(out / "law.csv")
    for x_txt, f_txt, F_txt in rows:
        x = float(x_txt)
        assert float(f_txt) == float(law.f(x))
        assert float(F_txt) == float(law.F(x))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_report(tmp_path):
    out = tmp_path / "est"
    code = run([
        "estimate", "--theta", "0.5", "--eps", "0.7244", "--tau", "1", "--T", "2000",
        "--seed", "11", "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "estimate.json").read_text())
    for key in ("gamma_T", "nu_T", "theta_hat_time", "theta_hat_energy", "Sigma", "Sigma_tilde"):
        assert key in report
    # asymptotic-normality bound: the estimate sits within 3 sigma of truth
    bound = 3.0 * math.sqrt(report["Sigma"] / 2000.0)
    assert abs(report["theta_hat_time"] - 0.5) < bound


def test_estimate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["estimate", "--theta", "0.3", "--eps", "0.8", "--T", "200", "--seed", "7"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert (a / "estimate.json").read_bytes() == (b / "estimate.json").read_bytes()


def test_estimate_degenerate_exit_code(tmp_path):
    # eps far too small: the perturbed signal never crosses the threshold
    code = run([
        "estimate", "--theta", "0", "--eps", "0.01", "--T", "50", "--seed", "1",
        "--out", tmp_path / "est",
    ])
    assert code == 3


def test_estimate_trajectory_export(tmp_path):
    out = tmp_path / "est"
    traj = tmp_path / "traj.csv"
    assert run([
        "estimate", "--theta", "0.5", "--eps", "0.7", "--T", "5", "--dt", "0.1",
        "--seed", "3", "--out", out, "--trajectory-out", traj,
    ]) == 0
    header, rows = read_csv(traj)
    assert header == ["t", "value"]
    assert len(rows) == 51
    assert float(rows[0][0]) == 0.0


def test_estimate_requires_subthreshold(tmp_path):
    assert run(["estimate", "--theta", "2", "--tau", "1", "--out", tmp_path / "x"]) == 2
    # a step longer than the horizon is a configuration error, not a traceback
    assert run(["estimate", "--T", "0.001", "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x" / "estimate.json").exists()


def test_estimate_cubic_law(tmp_path):
    # a law built from coefficients: the energy inverse and both variances
    # come from the law's tables, with no quadrature left to fail
    out = tmp_path / "est"
    code = run([
        "estimate", "--drift=-x^3", "--sigma", "1", "--theta", "0.5", "--eps", "0.7244",
        "--T", "2000", "--seed", "124", "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "estimate.json").read_text())
    assert math.isfinite(report["theta_hat_time"]) and math.isfinite(report["theta_hat_energy"])
    assert report["Sigma"] > 0 and report["Sigma_tilde"] > 0


# ---------------------------------------------------------------------------
# resonance
# ---------------------------------------------------------------------------


def test_resonance_energy_paper_value(tmp_path):
    out = tmp_path / "res"
    code = run([
        "resonance", "--scheme", "energy", "--theta", "0.5", "--tau", "1",
        "--grid", "0.05:1.5:0.05", "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "resonance.json").read_text())
    assert report["eps_star"] == pytest.approx(0.3636, abs=0.005)
    header, rows = read_csv(out / "curve.csv")
    assert header == ["eps", "fisher", "scheme", "theta", "tau", "failed"]
    assert len(rows) == 30


def test_resonance_fails_when_every_level_fails(tmp_path, capsys):
    # every gap 0.5/eps of the grid 0.001..0.01 lies beyond the Gaussian
    # law's tabulated support: the command fails and names it, no fake peak
    out = tmp_path / "r"
    assert run(["resonance", "--theta", "0.5", "--grid", "0.001:0.01:0.001", "--out", out]) == 1
    assert "all 65 noise levels of the scan failed" in capsys.readouterr().err
    assert not out.exists()


def test_resonance_rejects_bad_grid(tmp_path):
    assert run(["resonance", "--grid", "0:1", "--out", tmp_path / "r"]) == 2
    assert run(["resonance", "--grid", "1:0:0.1", "--out", tmp_path / "r"]) == 2


@pytest.mark.parametrize("grid", ["-1e308:1e308:1e307", "-4:4:1e-300", "nan:1:0.1", "-inf:1:0.1"])
def test_law_rejects_a_grid_it_cannot_build(tmp_path, capsys, grid):
    # a span that overflows to inf, or one so fine that its cell count is
    # 8e300, ended in an OverflowError or numpy's ValueError: it is a config
    # error that names the flag
    assert run(["law", f"--grid={grid}", "--out", tmp_path / "law"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --grid needs a finite span and at most")
    assert not (tmp_path / "law" / "law.csv").exists()


def test_grid_cell_count_is_capped(tmp_path, capsys):
    # read first, so that a tree without the cap never runs the command below,
    # which would ask numpy for 3e9 points (22 GiB)
    cap = cli._MAX_GRID_CELLS
    assert len(cli._parse_grid(f"0:1:{1.0 / cap!r}")) == cap + 1
    with pytest.raises(cli.ConfigError, match="--theta-grid needs"):
        cli._parse_grid(f"0:1:{1.0 / (cap + 1)!r}", "theta-grid")
    assert run(["resonance", "--grid", "0.05:3:1e-9", "--out", tmp_path / "r"]) == 2
    assert "error: --grid needs a finite span and at most 100000 cells" in capsys.readouterr().err


def test_resonance_workers_agree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["resonance", "--theta", "0.5", "--grid", "0.2:1.2:0.1"]
    assert run(args + ["--workers", "1", "--out", a]) == 0
    assert run(args + ["--workers", "3", "--out", b]) == 0
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()


# ---------------------------------------------------------------------------
# test (error-probability surface)
# ---------------------------------------------------------------------------


def test_surface_and_minima(tmp_path):
    out = tmp_path / "test"
    code = run([
        "test", "--theta0", "0", "--tau", "1", "--T", "100",
        "--grid", "0.1:3.0:0.1", "--theta-grid", "0.3:0.7:0.2", "--out", out,
    ])
    assert code == 0
    header, rows = read_csv(out / "surface.csv")
    assert header[:7] == ["theta1", "eps", "case_id", "delta", "gamma_lo", "gamma_hi", "p_err"]
    assert len(rows) == 30 * 3
    minima = json.loads((out / "minima.json").read_text())
    by_theta = {m["theta1"]: m for m in minima["minima"]}
    assert by_theta[0.5]["interior_minimum"] is True
    assert any(0.1 < m["eps"] < 3.0 for m in by_theta[0.5]["interior_minima"])


def test_surface_and_minima_flag_degenerate_levels(tmp_path):
    out = tmp_path / "test"
    assert run([
        "test", "--theta0", "0", "--tau", "1", "--T", "100",
        "--grid", "0.1:3.0:0.1", "--theta-grid", "0.3:0.5:0.2", "--out", out,
    ]) == 0
    header, rows = read_csv(out / "surface.csv")
    cells = [dict(zip(header, r)) for r in rows]
    low = next(c for c in cells if float(c["eps"]) == 0.1 and float(c["theta1"]) == 0.5)
    assert low["degenerate"] == "True" and low["failed"] == "False"
    assert float(low["p_err"]) == 0.5
    minima = json.loads((out / "minima.json").read_text())["minima"]
    entry = next(m for m in minima if m["theta1"] == 0.5)
    assert entry["degenerate_at_bracket"] == [True, False]
    assert entry["p_err_at_bracket"][0] == 0.5
    assert entry["n_degenerate"] > 0 and entry["n_failed"] == 0
    assert 0.55 <= entry["eps_star"] <= 0.62 and entry["p_err_min"] > 0.0


def test_test_rejects_degenerate_prior(tmp_path):
    assert run(["test", "--p0", "1", "--out", tmp_path / "t"]) == 2
    assert run(["test", "--p0", "0", "--out", tmp_path / "t"]) == 2


@pytest.mark.parametrize("command", ["test", "validate"])
def test_a_prior_whose_complement_rounds_to_1_is_rejected(tmp_path, capsys, command):
    # 1 - 1e-17 is 1.0: validate ended in a ValueError traceback and test
    # ran with p1 = 1
    assert run([command, "--p0", "1e-17", "--out", tmp_path / "t"]) == 2
    assert capsys.readouterr().err == "error: --p0 and 1 - p0 must lie strictly inside (0, 1)\n"


def test_test_fails_when_a_bracket_end_fails(tmp_path, capsys):
    # minima.json reports p_err at both bracket ends, so a failed end fails the
    # command: at eps = 0.03 the null gap 1/0.03 lies beyond the Gaussian
    # law's tabulated support (+-26.3)
    out = tmp_path / "t"
    args = ["test", "--T", "100", "--grid", "0.03:1.0:0.485", "--theta-grid", "0.4:0.6:0.2"]
    assert run(args + ["--out", out]) == 1
    assert "bracket end" in capsys.readouterr().err
    assert not (out / "minima.json").exists()


def test_test_at_an_extreme_horizon_is_an_error_not_a_traceback(tmp_path, capsys):
    # at T = 1e300 the variances underflow: some scan levels fail outright
    # and at others the MAP cuts underflow (a ZeroDivisionError traceback
    # once); each fails its level, and the failed bracket end fails the command
    assert run(["test", "--T", "1e300", "--out", tmp_path / "t"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: p_err failed at a bracket end")
    assert lines[0].endswith(": statistic variance degenerates at eps=0.1 (variances 0.0, 0.0)")


def test_test_names_the_gap_beyond_the_support(tmp_path, capsys):
    # the default grid starts at eps = 0.1, where the null gap 1/0.1 = 10 lies
    # beyond the cubic law's tabulated support (+-6.09565): the error says so
    # and names the smallest usable grid start, 1/6.09565
    out = tmp_path / "t"
    assert run(["test", "--drift=-x^3", "--sigma", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "bracket end" in err and "at eps=0.1 the null gap (tau - theta0)/eps = 10 " in err
    assert "support (-6.09565, 6.09565)" in err and "start --grid above (tau - theta0)/6.09565 = 0.164051" in err
    assert run(["test", "--drift=-x^3", "--sigma", "1", "--grid", "0.2:3:0.1", "--out", out]) == 0


def test_test_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["test", "--T", "100", "--grid", "0.3:1.0:0.35", "--theta-grid", "0.4:0.6:0.2"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert (a / "surface.csv").read_bytes() == (b / "surface.csv").read_bytes()
    assert (a / "minima.json").read_bytes() == (b / "minima.json").read_bytes()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_minimum_replications(tmp_path, monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("a rejected configuration must simulate no path")

    monkeypatch.setattr("stochres.validate.observe_paths", no_paths)
    assert run(["validate", "--reps", "10", "--out", tmp_path / "v"]) == 2
    assert run(["validate", "--test-paths", "10", "--out", tmp_path / "v"]) == 2
    # the hypotheses and the step are checked before either study runs
    for bad in (["--theta1", "2"], ["--theta0", "0.5", "--theta1", "0.5"],
                ["--theta1", "0.9", "--tau", "0.8"], ["--dt", "300"],
                ["--test-T", "0.001"]):
        assert run(["validate", *bad, "--out", tmp_path / "v"]) == 2
    assert not (tmp_path / "v" / "validate.json").exists()


@pytest.mark.parametrize("bad, message", [
    (["--test-T", "0"], "error: --test-T must be positive"),
    (["--test-eps", "-1"], "error: --test-eps must be positive"),
    (["--test-T", "0.001"], "error: --dt must not exceed --test-T"),
    (["--workers", "0"], "error: --workers must be an integer of at least 1"),
    (["--workers", "-2"], "error: --workers must be an integer of at least 1"),
])
def test_validate_errors_name_the_flag(tmp_path, capsys, bad, message):
    assert run(["validate", *bad, "--out", tmp_path / "v"]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_validate_smoke(tmp_path):
    out = tmp_path / "v"
    code = run([
        "validate", "--reps", "50", "--test-paths", "100", "--T", "200",
        "--test-T", "50", "--seed", "5", "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "validate.json").read_text())
    for key in (
        "empirical_var_ratio_time", "empirical_var_ratio_energy",
        "empirical_error_rate", "predicted_p_err", "degenerate", "n_reps", "seeds",
    ):
        assert key in report
    assert report["n_reps"] == 50
    assert 0.0 <= report["empirical_error_rate"] <= 1.0
    assert math.isfinite(report["empirical_var_ratio_time"])


def test_resonance_json_table(tmp_path):
    out = tmp_path / "res"
    assert run([
        "resonance", "--theta", "0.5", "--grid", "0.3:0.9:0.2", "--format", "json", "--out", out,
    ]) == 0
    table = json.loads((out / "curve.json").read_text())
    assert len(table) == 4
    assert {"eps", "fisher", "scheme", "theta", "tau", "failed"} <= set(table[0])


def test_surface_energy_scheme(tmp_path):
    out = tmp_path / "test"
    assert run([
        "test", "--scheme", "energy", "--T", "100",
        "--grid", "0.3:0.9:0.3", "--theta-grid", "0.4:0.6:0.2", "--out", out,
    ]) == 0
    _, rows = read_csv(out / "surface.csv")
    assert len(rows) == 3 * 2
    assert all(0.0 <= float(r[6]) <= 0.5 + 1e-12 for r in rows if r[7] == "False")


@pytest.mark.parametrize("law", [[], ["--drift=-4*x", "--sigma=2"]], ids=["ou", "grid_law"])
def test_validate_workers_agree(tmp_path, law):
    # 3 exceeds the CPUs of a small host and is capped there; the report
    # must not depend on the worker count either way.  --test-eps 1.2 keeps
    # the error study off its degenerate level, so it steps its paths.
    args = ["validate", "--reps", "50", "--test-paths", "50", "--T", "20", "--test-T", "20",
            "--test-eps", "1.2", "--seed", "4"] + law
    reports = []
    for workers in ("1", "2", "3"):
        out = tmp_path / workers
        assert run(args + ["--workers", workers, "--out", out]) == 0
        reports.append((out / "validate.json").read_bytes())
    assert not json.loads(reports[0])["degenerate"]
    assert reports[0] == reports[1] == reports[2]



def test_validate_starts_one_pool(tmp_path, monkeypatch):
    # both studies share the workers: one pool, not one per study
    import concurrent.futures

    pools = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    monkeypatch.setattr("stochres.cli._usable_cpus", lambda: 2)
    assert run(["validate", "--workers", "2", "--reps", "50", "--test-paths", "50", "--T", "20",
                "--test-T", "20", "--test-eps", "1.2", "--out", tmp_path / "v"]) == 0
    assert len(pools) == 1

# the exact resonance.json at theta = 0.5 on the default grid, and the exact
# estimate.json of one short OU run: a change to how a noise level is
# evaluated must not move the resonance or an estimate
GOLDEN_RESONANCE = {
    "ou_time": (["--noise", "ou", "--scheme", "time"], 0.36599426269531254, 2.897579824507363),
    "ou_energy": (["--noise", "ou", "--scheme", "energy"], 0.3635635375976563, 2.710131665916647),
    "cubic_time": (["--drift=-x^3", "--sigma", "1", "--scheme", "time"],
                   0.3371856689453125, 18.126951893949915),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RESONANCE))
def test_resonance_golden_report(tmp_path, case):
    flags, eps_star, fisher_star = GOLDEN_RESONANCE[case]
    out = tmp_path / case
    assert run(["resonance", *flags, "--theta", "0.5", "--out", out]) == 0
    assert json.loads((out / "resonance.json").read_text()) == {
        "eps_star": eps_star,
        "fisher_star": fisher_star,
        "local_maxima": [{"eps": eps_star, "fisher": fisher_star}],
        "scheme": flags[-1],
        "tau": 1.0,
        "theta": 0.5,
    }


def test_estimate_golden_report(tmp_path):
    out = tmp_path / "est"
    assert run(["estimate", "--noise", "ou", "--T", "200", "--seed", "11", "--out", out]) == 0
    assert json.loads((out / "estimate.json").read_text()) == {
        "Sigma": 0.6504843956511015,
        "Sigma_tilde": 0.7040560206880768,
        "T": 200.0,
        "gamma_T": 0.2104,
        "nu_T": 0.37383806972639466,
        "seed": 11,
        "theta_hat_energy": 0.5977788920575705,
        "theta_hat_time": 0.5876388684641902,
    }


# the exact reports of the README test command in both schemes and of two
# estimates on custom laws, byte for byte (tests/goldens), and the sha256 of
# the tables beside them: a change to how a MAP cell is evaluated or a single
# path is stepped must not move a report
GOLDENS = Path(__file__).resolve().parent / "goldens"
GOLDEN_SURFACE_SHA256 = {
    "time": "bf386b877d551d661e97bd05b54814bf314cdc10c12c7e02bd0dfb46521c380c",
    "energy": "05130cf16014b225d0c830a04e72b31d322bc4b767ea75b8175838c954ae4f8f",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scheme", ["time", "energy"])
def test_map_test_golden_reports(tmp_path, scheme):
    out = tmp_path / scheme
    assert run(["test", "--scheme", scheme, "--theta0", "0", "--theta-grid", "0.3:0.7:0.2",
                "--grid", "0.1:3:0.1", "--T", "100", "--out", out]) == 0
    assert (out / "minima.json").read_bytes() == (GOLDENS / f"test_{scheme}_minima.json").read_bytes()
    assert _sha256(out / "surface.csv") == GOLDEN_SURFACE_SHA256[scheme]


def test_estimate_golden_reports_on_custom_laws(tmp_path):
    out = tmp_path / "cubic"
    assert run(["estimate", "--drift=-x^3", "--sigma", "1", "--T", "200", "--seed", "11",
                "--out", out]) == 0
    assert (out / "estimate.json").read_bytes() == (GOLDENS / "estimate_cubic.json").read_bytes()
    out = tmp_path / "tanh"
    assert run(["estimate", "--drift=-tanh(x)", "--sigma", "1+0.5*exp(-x^2)", "--theta", "0.5",
                "--eps", "0.7", "--T", "200", "--seed", "11", "--out", out,
                "--trajectory-out", out / "path.csv"]) == 0
    assert (out / "estimate.json").read_bytes() == (GOLDENS / "estimate_tanh.json").read_bytes()
    assert _sha256(out / "path.csv") == "9dd1ed125c33edce7d6ba397c2583350f426419d03960229dcddbb591a2ae37c"


# the exact validate.json of two small runs, OU and -4*x with sigma 2: a
# change to the Euler-Maruyama kernel must not move a Monte Carlo result
GOLDEN_VALIDATE = {
    "ou": (["--noise", "ou"], {
        "degenerate": False,
        "empirical_error_rate": 0.2,
        "empirical_var_ratio_energy": 1.5071348116778385,
        "empirical_var_ratio_time": 1.5429872419240127,
        "predicted_p_err": 0.19588682036735416,
    }),
    "sigma2": (["--drift=-4*x", "--sigma=2"], {
        "degenerate": False,
        "empirical_error_rate": 0.05,
        "empirical_var_ratio_energy": 1.1628465251195967,
        "empirical_var_ratio_time": 1.2560492925196212,
        "predicted_p_err": 0.046728187809445564,
    }),
}


@pytest.mark.parametrize("law", sorted(GOLDEN_VALIDATE))
def test_validate_golden_report(tmp_path, law):
    flags, values = GOLDEN_VALIDATE[law]
    out = tmp_path / law
    assert run(["validate", *flags, "--reps", "50", "--test-paths", "60", "--T", "20",
                "--test-T", "20", "--test-eps", "1.2", "--seed", "3", "--out", out]) == 0
    assert json.loads((out / "validate.json").read_text()) == {
        **values,
        "n_degenerate": 0,
        "n_reps": 50,
        "n_test_paths": 60,
        "seeds": {"error_study": [53, 112], "variance_study": [3, 52]},
    }


def test_config_workers_must_be_a_positive_integer(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for bad in (0, 1.5, "2"):
        cfg.write_text(json.dumps({"workers": bad}))
        assert run(["validate", "--config", cfg, "--out", tmp_path / "v"]) == 2
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command, value, flag", [
    ("estimate", {"T": "100"}, "--T"),
    ("estimate", {"seed": 1.5}, "--seed"),
    ("estimate", {"reps": True}, "--reps"),
    ("resonance", {"grid": 5}, "--grid"),
    ("resonance", {"scheme": "Time"}, "--scheme"),
    ("resonance", {"theta": math.nan}, "--theta"),
    ("law", {"format": "xml"}, "--format"),
])
def test_config_values_pass_the_flag_checks(tmp_path, capsys, command, value, flag):
    # a config value takes its flag's type and choices: no traceback, and no
    # silent fallback (an unknown format wrote CSV)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(value))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_config_numbers_write_what_their_flags_write(tmp_path):
    # an integer for a float option becomes a float, as its flag's text does:
    # {"theta": 0} wrote "theta": 0 to resonance.json where --theta 0 wrote 0.0
    cfg = tmp_path / "run.json"
    for command, value, flag, report in (
        ("estimate", {"T": 100}, ["--T", "100"], "estimate.json"),
        ("resonance", {"theta": 0}, ["--theta", "0"], "resonance.json"),
    ):
        cfg.write_text(json.dumps(value))
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        assert run([command, "--config", cfg, "--out", a]) == 0
        assert run([command, *flag, "--out", b]) == 0
        assert (a / report).read_bytes() == (b / report).read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (["resonance", "--theta", "nan"], "--theta"),
    (["test", "--theta0", "nan"], "--theta0"),
    (["estimate", "--tau=inf"], "--tau"),
    (["validate", "--theta", "nan"], "--theta"),
])
def test_non_finite_flags_are_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 2
    assert f"argument {flag}: must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["resonance", "validate"])
def test_resonance_requires_subthreshold(tmp_path, capsys, command):
    # a signal at the threshold fails every level: eps* was the grid's lower
    # end, and validate wrote variance ratios for a superthreshold signal
    out = tmp_path / "r"
    assert run([command, "--theta", "1", "--tau", "1", "--out", out]) == 2
    assert "need theta < tau" in capsys.readouterr().err
    assert not out.exists()


def test_help_shows_each_default_and_the_parser_keeps_none(capsys):
    assert run(["resonance", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: 0.05:3.0:0.05)" in text and "(default: 0.7244)" in text
    assert run(["test", "--help"]) == 0
    assert "(default: 0.1:3.0:0.1)" in " ".join(capsys.readouterr().out.split())
    # a flag left unset parses to None, so it does not override a config value
    args = cli._PARSER.parse_args(["resonance"])
    assert args.grid is None and args.theta is None


def test_validate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["validate", "--reps", "50", "--test-paths", "60", "--T", "100",
            "--test-T", "50", "--seed", "21"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert (a / "validate.json").read_bytes() == (b / "validate.json").read_bytes()


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": 0.3, "eps": 0.8, "T": 100.0, "seed": 9}))
    out = tmp_path / "est"
    assert run(["estimate", "--config", cfg, "--T", "200", "--out", out]) == 0
    report = json.loads((out / "estimate.json").read_text())
    assert report["seed"] == 9
    assert report["T"] == pytest.approx(200.0)  # flag overrides file


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"thetaa": 0.3}))
    assert run(["estimate", "--config", cfg, "--out", tmp_path / "e"]) == 2


def test_config_missing_file(tmp_path):
    assert run(["estimate", "--config", tmp_path / "none.json", "--out", tmp_path / "e"]) == 2


def test_commands_load_no_scipy(tmp_path):
    # estimate (closed-form and grid-built law), a serial validate and a
    # grid-built law's quantile compute nothing with scipy, so none loads it
    out = str(tmp_path)
    code = (
        "import sys\n"
        "import stochres\n"
        "from stochres.cli import main\n"
        "from stochres.expressions import compile_expression as c\n"
        f"out = {out!r}\n"
        "assert main(['estimate', '--noise', 'ou', '--T', '200', '--out', out + '/ou']) == 0\n"
        "assert main(['estimate', '--drift=-x^3', '--sigma', '1', '--T', '200',\n"
        "             '--out', out + '/cubic']) == 0\n"
        "assert main(['validate', '--reps', '50', '--test-paths', '50', '--T', '100',\n"
        "             '--test-T', '20', '--out', out + '/val']) == 0\n"
        "cubic = stochres.build_invariant_law(stochres.DiffusionSpec(c('-x^3'), c('1')))\n"
        "cubic.quantile(0.9)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(stochres.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True, timeout=120)
    assert result.stdout.strip().splitlines()[-1] == "[]"
