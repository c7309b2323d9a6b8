"""The study scripts run end to end on a short horizon."""

import importlib.util
import os
import sys

import numpy as np

from conftest import SCENARIOS_DIR

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_constant_velocity_study_writes_its_csvs(tmp_path, monkeypatch, capsys):
    base = open(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")).read()
    assert "duration = 30.0" in base
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(base.replace("duration = 30.0", "duration = 0.05"))
    study = load_script("constant_velocity_study")
    monkeypatch.setattr(sys, "argv", ["constant_velocity_study.py", "--config",
                                      str(cfg), "--outdir", str(tmp_path)])
    assert study.main() == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == ["constant_velocity.csv", "constant_velocity_compare.csv"]
    for name in written:
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        assert table.shape[0] == 51
        assert np.isfinite(table).all()
    out = capsys.readouterr().out
    assert "overall: true" in out
    assert "measurement streams: identical" in out
