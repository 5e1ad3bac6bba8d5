import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stochres
from stochres import cli
from stochres.cli import main


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
    assert by_x["0.0"][2] == "0.5"
    report = json.loads((out / "ergodicity.json").read_text())
    assert report["c2_holds"] and report["c3_holds"]
    assert report["G"] == pytest.approx(math.sqrt(math.pi), abs=1e-6)


def test_law_custom_cubic_drift(tmp_path):
    out = tmp_path / "law"
    code = run(["law", "--drift=-x^3", "--sigma", "1", "--grid=-2:2:0.5", "--out", out])
    assert code == 0
    report = json.loads((out / "ergodicity.json").read_text())
    assert report["c2_holds"] and report["c3_holds"]
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


def test_law_reports_the_build_check(tmp_path, monkeypatch):
    # a grid-built law carries the ergodicity report its build computed;
    # only the closed-form law is checked by the command itself
    from stochres import ou_law

    checked = []
    original = cli.check_ergodicity
    monkeypatch.setattr(cli, "check_ergodicity", lambda spec: checked.append(spec) or original(spec))
    assert run(["law", "--drift=-x", "--sigma", "1", "--grid=-1:1:0.5", "--out", tmp_path / "x"]) == 0
    assert checked == []
    report = json.loads((tmp_path / "x" / "ergodicity.json").read_text())
    assert report["G"] == pytest.approx(math.sqrt(math.pi), rel=1e-9) and report["c3_holds"]
    assert run(["law", "--noise", "ou", "--grid=-1:1:0.5", "--out", tmp_path / "ou"]) == 0
    assert len(checked) == 1 and checked[0].label == ou_law().spec.label


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


def test_resonance_rejects_bad_grid(tmp_path):
    assert run(["resonance", "--grid", "0:1", "--out", tmp_path / "r"]) == 2
    assert run(["resonance", "--grid", "1:0:0.1", "--out", tmp_path / "r"]) == 2


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


def test_test_fails_when_a_bracket_end_fails(tmp_path, capsys):
    # minima.json reports p_err at both bracket ends, so a failed end fails the
    # command: at eps = 0.03 the null gap 1/0.03 lies beyond the Gaussian
    # law's tabulated support (+-26.3)
    out = tmp_path / "t"
    args = ["test", "--T", "100", "--grid", "0.03:1.0:0.485", "--theta-grid", "0.4:0.6:0.2"]
    assert run(args + ["--out", out]) == 1
    assert "bracket end" in capsys.readouterr().err
    assert not (out / "minima.json").exists()


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


def test_validate_workers_agree(tmp_path):
    # 3 exceeds the CPUs of a small host and is capped there; the report
    # must not depend on the worker count either way.  --test-eps 1.2 keeps
    # the error study off its degenerate level, so it steps its paths.
    args = ["validate", "--reps", "50", "--test-paths", "50", "--T", "20", "--test-T", "20",
            "--test-eps", "1.2", "--seed", "4"]
    reports = []
    for workers in ("1", "2", "3"):
        out = tmp_path / workers
        assert run(args + ["--workers", workers, "--out", out]) == 0
        reports.append((out / "validate.json").read_bytes())
    assert not json.loads(reports[0])["degenerate"]
    assert reports[0] == reports[1] == reports[2]


# the exact validate.json of two small runs, OU and -4*x with sigma 2: a
# change to the Euler-Maruyama kernel must not move a Monte Carlo result
GOLDEN_VALIDATE = {
    "ou": (["--noise", "ou"], {
        "degenerate": False,
        "empirical_error_rate": 0.2,
        "empirical_var_ratio_energy": 1.5071348116837953,
        "empirical_var_ratio_time": 1.5429872419239594,
        "predicted_p_err": 0.1958868203673544,
    }),
    "sigma2": (["--drift=-4*x", "--sigma=2"], {
        "degenerate": False,
        "empirical_error_rate": 0.05,
        "empirical_var_ratio_energy": 1.1628465251064142,
        "empirical_var_ratio_time": 1.2560492925194349,
        "predicted_p_err": 0.04672818780944572,
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
