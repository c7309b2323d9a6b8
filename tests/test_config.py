import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from contrack.config import ConfigError, emit_config, parse_config
from conftest import SCENARIOS_DIR


def scenarios_equal(a, b):
    assert a.gains == b.gains
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.target_blocks, b.target_blocks)
    assert len(a.agent_paths) == len(b.agent_paths)
    for pa, pb in zip(a.agent_paths, b.agent_paths):
        assert np.array_equal(pa.times, pb.times)
        assert np.array_equal(pa.points, pb.points)
    if a.target_input is None:
        assert b.target_input is None
    else:
        assert np.array_equal(a.target_input, b.target_input)
    assert a.loss_schedule == b.loss_schedule
    assert a.step == b.step
    assert a.duration == b.duration
    assert a.seed == b.seed
    assert a.noise_std_deg == b.noise_std_deg
    assert a.init_range == b.init_range
    assert a.init_average == b.init_average


def test_parse_constant_velocity_scenario():
    loaded = parse_config(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg"))
    s = loaded.scenario
    assert s.gains.k == (5.0, 3.5)
    assert s.gains.alpha == 15.9
    assert s.gains.delta == 0.8
    assert s.gains.gamma == 0.1
    assert_allclose(s.target_blocks, [[0.0, -15.0, 0.0], [0.0, 0.5, 0.0]])
    assert s.n_agents == 4
    assert_allclose(s.agent_paths[0].points[0], [-10.0, 10.0, 2.0])
    assert s.adjacency[0, 1] == 1.0 and s.adjacency[0, 2] == 0.0
    assert s.noise_std_deg == 0.01
    assert s.step == 1e-3 and s.duration == 30.0 and s.seed == 1
    assert s.init_range == (5.0, 30.0)
    assert loaded.out_csv is None


def test_all_bundled_scenarios_parse():
    names = [
        "m1_static.cfg",
        "m2_constant_velocity.cfg",
        "m3_constant_acceleration.cfg",
        "m2_mismatched_iss.cfg",
        "m2_measurement_loss.cfg",
    ]
    for name in names:
        loaded = parse_config(os.path.join(SCENARIOS_DIR, name))
        assert loaded.scenario.duration > 0.0


def test_loss_schedule_with_inf():
    loaded = parse_config(os.path.join(SCENARIOS_DIR, "m2_measurement_loss.cfg"))
    s = loaded.scenario
    assert s.loss_schedule[0] == ((0.0, float("inf")),)
    assert not s.available(0, 12345.0)
    assert s.available(1, 0.0)


def test_roundtrip_identity(tmp_path):
    for name in ["m2_constant_velocity.cfg", "m2_measurement_loss.cfg",
                 "m3_constant_acceleration.cfg"]:
        first = parse_config(os.path.join(SCENARIOS_DIR, name)).scenario
        emitted = tmp_path / f"rt_{name}"
        emitted.write_text(emit_config(first, out_csv="out.csv"))
        second = parse_config(str(emitted))
        scenarios_equal(first, second.scenario)
        assert second.out_csv == "out.csv"


def test_roundtrip_covers_waypoints_and_input(tmp_path):
    text = """
[target]
order = 1
position = 1 2 3
input = 0 0.25 0

[agents]
count = 2
position0 = 0 0 0
waypoints1 = 0 5 5 0; 2.5 6 6 1
loss1 = 0.5 1.25; 3 inf

[graph]
edges = 0 1 2.5

[gains]
k = 4.0
alpha = 9.0
delta = 0.2
gamma = 0.1

[noise]
bearing_std_deg = 0.05

[sim]
step = 0.01
duration = 1.0
seed = 3
init_range = 2 4
init_average = true
"""
    path = tmp_path / "full.cfg"
    path.write_text(text)
    first = parse_config(str(path)).scenario
    assert first.init_average
    assert callable(first.target_input) is False
    assert_allclose(first.target_input, [0.0, 0.25, 0.0])
    assert first.loss_schedule[1] == ((0.5, 1.25), (3.0, float("inf")))
    assert not first.agent_paths[1].is_static

    emitted = tmp_path / "full_rt.cfg"
    emitted.write_text(emit_config(first))
    second = parse_config(str(emitted)).scenario
    scenarios_equal(first, second)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("[gains]", "[gainz]"), "missing required section"),
        (("k = 5.0 3.5", "k ="), "gain vector"),
        (("alpha = 15.9", ""), "alpha"),
        (("position = 0 -15 0", "position = 0 -15"), "expected 3 values"),
        (("order = 2", "order = 0"), "order"),
        (("count = 4", "count = 1"), "count"),
        (("edges = 0 1 1.0; 1 2 1.0; 2 3 1.0; 3 0 1.0",
          "edges = 0 9 1.0"), "out of range"),
        (("edges = 0 1 1.0; 1 2 1.0; 2 3 1.0; 3 0 1.0",
          "edges = 1 1 1.0"), "self-edge"),
        (("step = 0.001", "step = zero"), "number"),
        (("position0 = -10 10 2", "waypoints0 = ;"), "no waypoints"),
        (("edges = 0 1 1.0; 1 2 1.0; 2 3 1.0; 3 0 1.0",
          "edges = 0 1 1.0; 1 2 1.0; 2 3 1.0; 3 0 1.0; 1 0 7.5"),
         "vertex pair 1 0 named twice"),
    ],
)
def test_parse_diagnostics(tmp_path, mutation, message):
    base = open(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")).read()
    old, new = mutation
    assert old in base
    path = tmp_path / "broken.cfg"
    path.write_text(base.replace(old, new))
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/path.cfg")


def test_loss_interval_order_checked(tmp_path):
    base = open(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")).read()
    path = tmp_path / "loss.cfg"
    path.write_text(base.replace("position0 = -10 10 2",
                                 "position0 = -10 10 2\nloss0 = 5 2"))
    with pytest.raises(ConfigError, match="end must exceed start"):
        parse_config(str(path))


def test_inline_comments_ignored(tmp_path):
    base = open(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")).read()
    path = tmp_path / "comments.cfg"
    path.write_text(base.replace("alpha = 15.9", "alpha = 15.9  # consensus gain"))
    assert parse_config(str(path)).scenario.gains.alpha == 15.9


@pytest.mark.parametrize("duration", ["0.05", "0.4", "1.0", "30.0", "35.0", "60.0"])
def test_duration_whole_number_of_steps_loads(tmp_path, duration):
    base = open(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")).read()
    path = tmp_path / "ok.cfg"
    path.write_text(base.replace("duration = 30.0", f"duration = {duration}"))
    scenario = parse_config(str(path)).scenario
    assert scenario.n_steps == round(float(duration) / 0.001)


@pytest.mark.parametrize("duration", ["0.0025", "1.0005", "0.0011"])
def test_duration_off_the_step_grid_rejected(tmp_path, duration):
    base = open(os.path.join(SCENARIOS_DIR, "m2_constant_velocity.cfg")).read()
    path = tmp_path / "off.cfg"
    path.write_text(base.replace("duration = 30.0", f"duration = {duration}"))
    with pytest.raises(ConfigError, match="not a whole number of 0.001 s steps"):
        parse_config(str(path))
