import json
import os

import numpy as np
import pytest

from contrack import cli, dkf
from contrack.cli import main
from conftest import SCENARIOS_DIR

CV_CFG = os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")
M1_CFG = os.path.join(SCENARIOS_DIR, "m1_static.cfg")


def short_cfg(tmp_path, name="short.cfg", duration=0.05, extra=None,
              base=CV_CFG) -> str:
    text = open(base).read().replace("duration = 30.0", f"duration = {duration}")
    if extra:
        for old, new in extra:
            assert old in text
            text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = open(path).read().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in row.split(",")] for row in lines[1:]])
    return header, rows


def test_certify_passes_on_cv_scenario(capsys):
    assert main(["certify", "--config", CV_CFG]) == 0
    out = capsys.readouterr().out
    assert "overall: true" in out
    machine = out.split("--- machine ---")[1].strip()
    data = json.loads(machine)
    assert data["overall"] is True
    assert data["mu"] == pytest.approx(0.3)
    assert data["spatial_margin"] == pytest.approx(0.0641213692, abs=1e-9)


def test_certify_fails_on_degenerate_geometry(tmp_path, capsys):
    # All agents at the same position measure identical bearings.
    cfg = short_cfg(
        tmp_path,
        extra=[
            ("position1 = 10 10 2", "position1 = -10 10 2"),
            ("position2 = 10 -10 2", "position2 = -10 10 2"),
            ("position3 = -10 -10 2", "position3 = -10 10 2"),
        ],
    )
    assert main(["certify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    data = json.loads(out.split("--- machine ---")[1].strip())
    assert data["spatial_margin"] < 0.0
    assert data["overall"] is False


def test_certify_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[target]\norder = 2\n")
    assert main(["certify", "--config", str(bad)]) == 2
    assert main(["certify", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_run_writes_csv_and_summary(tmp_path, capsys):
    cfg = short_cfg(tmp_path)
    out_csv = tmp_path / "out.csv"
    assert main(["run", "--config", cfg, "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert header[0] == "t"
    assert header[-1] == "comm_floats"
    assert rows.shape[0] == 51
    text = capsys.readouterr().out
    assert "final position errors" in text
    assert "lyapunov envelope held" in text


def test_run_two_row_contract(tmp_path):
    cfg = short_cfg(tmp_path, duration=0.001)
    out_csv = tmp_path / "tiny.csv"
    assert main(["run", "--config", cfg, "--out", str(out_csv), "--quiet"]) == 0
    _header, rows = read_csv(out_csv)
    assert rows.shape[0] == 2
    assert rows[0, 0] == 0.0 and rows[1, 0] == pytest.approx(0.001)


def test_run_missing_output_directory(tmp_path):
    cfg = short_cfg(tmp_path)
    missing = tmp_path / "nope" / "out.csv"
    assert main(["run", "--config", cfg, "--out", str(missing)]) == 2


def test_run_requires_some_output_path(tmp_path):
    cfg = short_cfg(tmp_path)
    assert main(["run", "--config", cfg]) == 2


def test_run_output_from_config_section(tmp_path):
    target = tmp_path / "from_config.csv"
    cfg = short_cfg(
        tmp_path,
        extra=[("[sim]", "[output]\ncsv = " + str(target) + "\n\n[sim]")],
    )
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    assert target.exists()


def test_run_divergence_exit_code(tmp_path, capsys):
    cfg = short_cfg(
        tmp_path,
        duration=1.0,
        extra=[
            ("k = 5.0 3.5", "k = 1000000.0"),
            ("alpha = 15.9", "alpha = 100000.0"),
            ("step = 0.001", "step = 0.1"),
            ("order = 2", "order = 1"),
            ("velocity = 0 0.5 0\n", ""),
        ],
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 3
    assert "diverged at t=" in capsys.readouterr().err


def test_compare_rejects_non_second_order(tmp_path, capsys):
    assert main(["compare", "--config", M1_CFG,
                 "--out", str(tmp_path / "c.csv")]) == 2
    assert "second-order" in capsys.readouterr().err


def test_compare_writes_side_by_side(tmp_path, capsys):
    cfg = short_cfg(tmp_path, duration=0.2,
                    extra=[("bearing_std_deg = 0.01", "bearing_std_deg = 0.0")])
    out_csv = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg, "--out", str(out_csv)]) == 0
    header, rows = read_csv(out_csv)
    assert header[1] == "obs_err_pos_agent1"
    assert header[-2:] == ["obs_comm_floats", "dkf_comm_floats"]
    obs_comm = rows[:, header.index("obs_comm_floats")]
    dkf_comm = rows[:, header.index("dkf_comm_floats")]
    assert np.all(np.diff(obs_comm) == 3.0)
    assert np.all(np.diff(dkf_comm) == 84.0)
    text = capsys.readouterr().out
    assert "observer 3, baseline 84" in text
    assert "measurement streams: identical" in text
    # noiseless short run: both estimators reduce the position error
    obs_final = rows[-1, header.index("obs_err_pos_agent1")]
    dkf_final = rows[-1, header.index("dkf_err_pos_agent1")]
    assert obs_final < rows[0, header.index("obs_err_pos_agent1")]
    assert dkf_final < 1.0


def test_compare_noiseless_error_gate(tmp_path):
    # Empirical gate: over a 20 s noiseless horizon both estimators settle
    # below a millimetre.
    cfg = short_cfg(tmp_path, duration=20.0,
                    extra=[("bearing_std_deg = 0.01", "bearing_std_deg = 0.0")])
    out_csv = tmp_path / "cmp_long.csv"
    assert main(["compare", "--config", cfg, "--out", str(out_csv),
                 "--quiet"]) == 0
    header, rows = read_csv(out_csv)
    obs_cols = [header.index(f"obs_err_pos_agent{i}") for i in range(1, 5)]
    dkf_cols = [header.index(f"dkf_err_pos_agent{i}") for i in range(1, 5)]
    assert rows[-1, obs_cols].max() < 1e-3
    assert rows[-1, dkf_cols].max() < 1e-3


def test_sweep_runs_each_seed(tmp_path, capsys):
    cfg = short_cfg(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out_csv),
                 "--seeds", "1,2"]) == 0
    assert (tmp_path / "sweep_seed1.csv").exists()
    assert (tmp_path / "sweep_seed2.csv").exists()
    assert "seed 2" in capsys.readouterr().out


def test_sweep_rejects_bad_seed_list(tmp_path):
    cfg = short_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--seeds", "one,two"]) == 2


def test_quiet_suppresses_output(tmp_path, capsys):
    cfg = short_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "q.csv"),
                 "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def _error_lines(err):
    lines = err.strip().splitlines()
    assert "Traceback" not in err
    return lines


@pytest.mark.parametrize("verb", ["certify", "run", "compare", "sweep"])
def test_agent_on_target_is_a_scenario_error(tmp_path, capsys, verb):
    # Agent 0 sits where the target starts: its bearing is undefined.
    cfg = short_cfg(tmp_path, extra=[("position0 = -10 10 2", "position0 = 0 -15 0")])
    argv = [verb, "--config", cfg]
    if verb != "certify":
        argv += ["--out", str(tmp_path / "c.csv")]
    if verb == "sweep":
        argv += ["--seeds", "1,2"]
    assert main(argv) == 2
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1
    assert lines[0].startswith("error: bearing undefined at t=0.000000")
    assert not list(tmp_path.glob("c*.csv"))


@pytest.mark.parametrize("verb", ["run", "compare", "sweep"])
def test_internal_value_error_is_not_a_scenario_error(tmp_path, monkeypatch, verb):
    # Only an undefined bearing means a bad scenario; a solver failure inside
    # the run surfaces as itself.
    def fail(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run", fail)
    argv = [verb, "--config", short_cfg(tmp_path), "--out", str(tmp_path / "c.csv")]
    if verb == "sweep":
        argv += ["--seeds", "1,2"]
    with pytest.raises(np.linalg.LinAlgError):
        main(argv)


def test_baseline_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    # No prior information and every agent without a measurement at t = 0:
    # the baseline's first information matrix is singular.
    monkeypatch.setattr(dkf, "INITIAL_INFORMATION", np.zeros((6, 6)))
    lost = "".join(f"\nloss{i} = 0 0.01" for i in range(4))
    cfg = short_cfg(tmp_path, extra=[("position3 = -10 -10 2",
                                      "position3 = -10 -10 2" + lost)])
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 3
    lines = _error_lines(capsys.readouterr().err)
    assert lines == ["error: baseline aborted: insufficient information: singular "
                     "information matrix at t=0.000000 s"]
    assert not list(tmp_path.glob("c*.csv"))


def test_non_finite_derivative_is_a_divergence(tmp_path, capsys):
    # alpha * L overflows to inf, so the very first derivative is not finite.
    cfg = short_cfg(tmp_path, extra=[("alpha = 15.9", "alpha = 1e308")])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 3
    lines = _error_lines(capsys.readouterr().err)
    assert lines == ["error: run aborted: simulation diverged at t=0.000000 s"]

    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                 "--seeds", "1,2"]) == 3
    lines = _error_lines(capsys.readouterr().err)
    assert [line.split(":")[1] for line in lines] == [" seed 1", " seed 2"]
    assert all(line.endswith("diverged at t=0.000000 s") for line in lines)
    assert not list(tmp_path.glob("s_seed*.csv"))


NON_FINITE = [
    ("run", "position = 0 -15 0", "position = nan -15 0", "[target] position"),
    ("run", "position0 = -10 10 2", "position0 = -10 nan 2", "[agents] position0"),
    ("run", "alpha = 15.9", "alpha = nan", "[gains] alpha"),
    ("run", "position0 = -10 10 2", "position0 = -10 10 2\nloss0 = nan 1.0",
     "[agents] loss0"),
    ("run", "position0 = -10 10 2", "waypoints0 = 0 -10 10 2; 1 -10 inf 2",
     "[agents] waypoints0"),
    ("run", "edges = 0 1 1.0", "edges = 0 1 nan", "[graph] edges"),
    ("run", "duration = 0.01", "duration = inf", "[sim] duration"),
    ("certify", "bearing_std_deg = 0.01", "bearing_std_deg = nan",
     "[noise] bearing_std_deg"),
    ("certify", "velocity = 0 0.5 0", "velocity = 0 inf 0", "[target] velocity"),
]


@pytest.mark.parametrize("verb, old, new, key", NON_FINITE,
                         ids=[case[3] for case in NON_FINITE])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, verb, old, new, key):
    cfg = short_cfg(tmp_path, duration=0.01, extra=[(old, new)])
    argv = [verb, "--config", cfg]
    if verb == "run":
        argv += ["--out", str(tmp_path / "n.csv")]
    assert main(argv) == 2
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {key}: ") and "finite" in lines[0]
    assert not list(tmp_path.glob("n*.csv"))


@pytest.mark.parametrize("verb", ["certify", "run"])
def test_duration_not_a_whole_number_of_steps(tmp_path, capsys, verb):
    cfg = short_cfg(tmp_path, duration=0.0025)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "w.csv")]
                if verb == "run" else [verb, "--config", cfg]) == 2
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "not a whole number" in lines[0]


def test_certify_reports_step_check(capsys):
    assert main(["certify", "--config", CV_CFG]) == 0
    out = capsys.readouterr().out
    assert "step_ok: true" in out
    assert json.loads(out.split("--- machine ---")[1].strip())["step_ok"] is True
