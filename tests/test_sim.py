from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from contrack.gains import ObserverGains, build_transformation, convergence_rate
from contrack.graph import GraphError
from contrack.linalg import rk4_step, sym_eigen
from contrack.observer import (
    AgentState,
    Measurement,
    NeighborEstimate,
    correction_term,
    observer_derivative,
)
from contrack.sim import (
    AgentPath,
    BearingUndefined,
    DivergenceError,
    Scenario,
    _apply_rotations,
    _init_draws,
    _lyapunov_value,
    _noise_axes,
    _true_bearings,
    csv_header,
    dkf_floats_per_step,
    observer_floats_per_step,
    propagate_truth,
    run,
    runlog_to_csv,
)
from conftest import SQUARE_AGENTS, scenario_cv


def test_propagate_truth_linear_flow():
    blocks = np.array([[0.0, -15.0, 0.0], [0.0, 0.5, 0.0]])
    out = propagate_truth(blocks, 10.0)
    assert_allclose(out[0], [0.0, -10.0, 0.0], atol=1e-12)
    assert_allclose(out[1], [0.0, 0.5, 0.0], atol=1e-15)
    times = np.array([[0.0, 2.5], [10.0, 7.0]])
    table = propagate_truth(blocks, times)
    assert table.shape == (2, 2, 2, 3)
    for idx in np.ndindex(times.shape):
        assert np.array_equal(table[idx], propagate_truth(blocks, times[idx]))


def test_propagate_truth_quadratic_flow():
    blocks = np.array([[0.0, 10.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.15, 0.01]])
    out = propagate_truth(blocks, 10.0)
    assert_allclose(out[0], [0.0, -2.5, 0.5], atol=1e-12)
    assert_allclose(out[1], [0.0, -0.5, 0.1], atol=1e-12)
    assert_allclose(out[2], blocks[2], atol=1e-15)


def test_propagate_truth_zero_input_reduces_to_autonomous():
    blocks = np.array([[1.0, 2.0, 3.0], [0.5, -0.5, 0.0]])
    exact = propagate_truth(blocks, 2.0)
    via_input = propagate_truth(blocks, 2.0, u=np.zeros(3))
    assert_allclose(via_input, exact, atol=1e-12)


def test_propagate_truth_constant_input_exact():
    blocks = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    u = np.array([0.0, 2.0, 0.0])
    out = propagate_truth(blocks, 3.0, u=u)
    # velocity integrates u, position integrates the velocity
    assert_allclose(out[1], [1.0, 6.0, 0.0], atol=1e-12)
    assert_allclose(out[0], [3.0, 9.0, 0.0], atol=1e-12)


def rotated_bearings(p_target, p_agents, angle_std_deg, rng):
    # One sample of the stream's noise: N rotation angles, then N axis phases.
    b = _true_bearings(p_target, p_agents, 0.0)
    theta = rng.normal(0.0, np.deg2rad(angle_std_deg), size=b.shape[0])
    phase = rng.uniform(0.0, 2.0 * np.pi, size=b.shape[0])
    axes = _noise_axes(b, np.cos(phase), np.sin(phase))
    return _apply_rotations(b, np.cos(theta), np.sin(theta), axes)


def test_noisy_bearing_zero_std_is_exact():
    rng = np.random.default_rng(0)
    b = rotated_bearings(np.array([1.0, 2.0, 2.0]), np.zeros((1, 3)), 0.0, rng)
    assert_allclose(b[0], np.array([1.0, 2.0, 2.0]) / 3.0, atol=1e-15)


def test_noisy_bearing_unit_norm_bulk():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        d = rng.normal(size=(100_000, 3))
        b = d / np.linalg.norm(d, axis=1)[:, None]
        theta = rng.normal(0.0, np.deg2rad(3.0), size=b.shape[0])
        phase = rng.uniform(0.0, 2.0 * np.pi, size=b.shape[0])
        axes = _noise_axes(b, np.cos(phase), np.sin(phase))
        noisy = _apply_rotations(b, np.cos(theta), np.sin(theta), axes)
        worst = max(worst, np.max(np.abs(np.linalg.norm(noisy, axis=1) - 1.0)))
    assert worst <= 1e-12

    for _ in range(1000):
        out = rotated_bearings(rng.normal(size=3) * 10.0, np.zeros((1, 3)), 1.0, rng)
        assert abs(np.linalg.norm(out[0]) - 1.0) <= 1e-12


def test_noisy_bearing_angle_statistics():
    rng = np.random.default_rng(2)
    std_deg = 0.5
    truth = np.array([10.0, -3.0, 4.0])
    b_true = truth / np.linalg.norm(truth)
    draws = 100_000
    b = np.tile(b_true, (draws, 1))
    theta = rng.normal(0.0, np.deg2rad(std_deg), size=draws)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=draws)
    axes = _noise_axes(b, np.cos(phase), np.sin(phase))
    noisy = _apply_rotations(b, np.cos(theta), np.sin(theta), axes)
    angles = np.arccos(np.clip(noisy @ b_true, -1.0, 1.0))
    rms_deg = np.rad2deg(np.sqrt(np.mean(angles**2)))
    assert abs(rms_deg - std_deg) <= 0.05 * std_deg


def test_noisy_bearing_coincident_positions():
    rng = np.random.default_rng(3)
    with pytest.raises(BearingUndefined, match="coincide"):
        rotated_bearings(np.ones(3), np.ones((1, 3)), 0.1, rng)


def test_run_equilibrium_static_target():
    # Agents equidistant from the target and init range pinned at that
    # distance: the initial estimate is the target itself.
    dist = float(np.linalg.norm(SQUARE_AGENTS[0]))
    s = scenario_cv(
        gains=ObserverGains(k=(5.0,), alpha=15.9, delta=0.3, gamma=0.1),
        target_blocks=np.zeros((1, 3)),
        noise_std_deg=0.0,
        duration=2.0,
        init_range=(dist, dist),
    )
    log = run(s)
    assert np.max(log.block_errors) <= 1e-9
    assert np.max(log.v) <= 1e-9


def test_run_rejects_single_agent():
    with pytest.raises(GraphError):
        run(
            Scenario(
                gains=ObserverGains(k=(1.0,), alpha=1.0, delta=0.1, gamma=0.1),
                adjacency=np.zeros((1, 1)),
                agent_paths=(np.zeros(3),),
                target_blocks=np.array([[1.0, 1.0, 1.0]]),
                step=1e-3,
                duration=0.01,
                seed=0,
            )
        )


def test_run_error_decay_short():
    s = scenario_cv(duration=2.0)
    log = run(s)
    assert log.block_errors[-1, 0].max() < 0.05 * log.block_errors[0, 0].max()
    assert log.disagreement[-1] < log.disagreement[0]


def test_run_determinism_bit_identical():
    s = scenario_cv(duration=0.5)
    a, b = run(s), run(s)
    assert a.bearing_checksum == b.bearing_checksum
    for field in ("t", "block_errors", "v", "v_bound", "lambda_min_spatial",
                  "disagreement", "comm_floats", "bearings"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    other = run(replace(s, seed=99))
    assert other.bearing_checksum != a.bearing_checksum


def test_run_lambda_series_recomputable_from_log():
    s = scenario_cv(duration=0.5)
    log = run(s)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, log.t.size, size=10):
        mean = np.zeros((3, 3))
        for i in range(log.n_agents):
            if log.available[idx, i]:
                b = log.bearings[idx, i]
                mean += np.eye(3) - np.outer(b, b)
        mean /= log.n_agents
        oracle = sym_eigen(mean).values[0]
        assert abs(log.lambda_min_spatial[idx] - oracle) <= 1e-10


def test_run_matches_per_agent_operations():
    # White-box cross-check: on a static target the coupled integrator must
    # reproduce a manual RK4 over the per-agent observer operations.
    s = scenario_cv(
        target_blocks=np.array([[0.0, -15.0, 0.0]]),
        gains=ObserverGains(k=(5.0, 3.5), alpha=15.9, delta=0.8, gamma=0.1),
        noise_std_deg=0.0,
        duration=0.05,
    )
    log = run(s)

    n = s.n_agents
    adjacency = s.adjacency
    rng = np.random.default_rng(s.seed)
    radii, _fallback = _init_draws(rng, n, s.init_range)
    positions = SQUARE_AGENTS
    target = np.array([0.0, -15.0, 0.0])
    bearings = _true_bearings(target, positions, 0.0)
    est = np.zeros((n, 2, 3))
    est[:, 0] = positions + radii[:, None] * bearings

    meas = [
        Measurement(agent_id=i, available=True,
                    psi=np.eye(3) - np.outer(bearings[i], bearings[i]),
                    y=(np.eye(3) - np.outer(bearings[i], bearings[i])) @ positions[i])
        for i in range(n)
    ]

    def f(t, flat):
        states = flat.reshape(n, 2, 3)
        out = np.empty_like(states)
        for i in range(n):
            state = AgentState(agent_id=i, blocks=states[i])
            neighbors = [
                NeighborEstimate(neighbor_id=j, weight=adjacency[i, j],
                                 first_block=states[j, 0])
                for j in range(n) if adjacency[i, j] > 0.0
            ]
            delta = correction_term(state, meas[i], neighbors, s.gains.alpha)
            out[i] = observer_derivative(state, delta, s.gains).blocks
        return out.ravel()

    flat = est.ravel()
    for step_idx in range(int(round(s.duration / s.step))):
        flat = rk4_step(f, step_idx * s.step, flat, s.step)
        states = flat.reshape(n, 2, 3)
        errs = np.stack([
            np.linalg.norm(target[None, :] - states[:, 0], axis=1),
            np.linalg.norm(states[:, 1], axis=1),
        ])
        assert_allclose(log.block_errors[step_idx + 1], errs, atol=1e-9)


def test_run_loss_schedule_timing():
    s = scenario_cv(
        duration=0.006,
        loss_schedule=(((0.002, 0.004),), (), (), ()),
        noise_std_deg=0.0,
    )
    log = run(s)
    expected = np.array([True, True, False, False, True, True, True])
    assert np.array_equal(log.available[:, 0], expected)
    assert np.all(log.available[:, 1:])
    # lost samples log a zero observation block, which lowers the mean
    assert log.lambda_min_spatial[2] < log.lambda_min_spatial[0]


def test_run_degenerate_loss_consensus_without_observability():
    # Three of four agents measurement-less: a single bearing cannot pin the
    # target position, but the consensus term still aligns the estimates.
    s = scenario_cv(
        duration=6.0,
        noise_std_deg=0.0,
        loss_schedule=(
            ((0.0, float("inf")),),
            ((0.0, float("inf")),),
            ((0.0, float("inf")),),
            (),
        ),
    )
    log = run(s)
    assert log.disagreement[-1] < 5e-4 * log.disagreement[0]
    assert log.block_errors[-1, 0].max() > 0.5  # position lags far behind


def test_run_divergence_aborts_with_time():
    s = scenario_cv(
        gains=ObserverGains(k=(1e6,), alpha=1e5, delta=0.1, gamma=0.1),
        target_blocks=np.array([[0.0, -15.0, 0.0]]),
        step=0.1,
        duration=1.0,
        noise_std_deg=0.0,
    )
    with pytest.raises(DivergenceError) as err:
        run(s)
    assert err.value.time > 0.0


def test_lyapunov_monitor_basics():
    gains = ObserverGains(k=(5.0, 3.5), alpha=15.9, delta=0.8, gamma=0.1)
    kernel = build_transformation(gains, 1).matrix
    assert _lyapunov_value(kernel, np.zeros((2, 12, 1))) == 0.0

    rng = np.random.default_rng(8)
    x = rng.normal(size=24)
    eta = build_transformation(gains, 12).matrix @ x
    v = _lyapunov_value(kernel, x.reshape(2, 12, 1))
    assert v == pytest.approx(0.5 * float(eta @ eta), rel=1e-12)

    # The envelope starts at V(0) and decays at twice the certified rate.
    assert convergence_rate(gains) == pytest.approx(0.7, rel=1e-12)
    log = run(scenario_cv(gains=gains, duration=0.05))
    assert log.v_bound[0] == log.v[0]
    assert_allclose(log.v_bound, log.v[0] * np.exp(-1.4 * log.t), rtol=1e-12)


def test_comm_accounting():
    log = run(scenario_cv(duration=0.01))
    assert_allclose(log.comm_floats, 3.0 * np.arange(11))
    assert observer_floats_per_step(3) == 3
    assert dkf_floats_per_step(6, 2) == 84
    assert dkf_floats_per_step(6, 1) == 42


def test_csv_schema_and_row_count():
    golden = (
        "t,err_pos_agent1,err_pos_agent2,err_pos_agent3,err_pos_agent4,"
        "err_vel_agent1,err_vel_agent2,err_vel_agent3,err_vel_agent4,"
        "V,V_bound,lambda_min_spatial,disagreement,comm_floats"
    )
    assert csv_header(2, 4) == golden

    s = scenario_cv(duration=0.001)
    log = run(s)
    text = runlog_to_csv(log)
    lines = text.strip().split("\n")
    assert lines[0] == golden
    assert len(lines) == 1 + 2  # header, t0 row, one step
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[-1] == 0.0  # no broadcast before the first step
    second = [float(tok) for tok in lines[2].split(",")]
    assert second[-1] == 3.0


def test_csv_columns_hold_the_named_log_fields():
    log = run(scenario_cv(duration=0.01))
    lines = runlog_to_csv(log).strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    want = {"t": log.t, "V": log.v, "V_bound": log.v_bound,
            "lambda_min_spatial": log.lambda_min_spatial,
            "disagreement": log.disagreement, "comm_floats": log.comm_floats}
    for m, block in enumerate(("pos", "vel")):
        for i in range(log.n_agents):
            want[f"err_{block}_agent{i + 1}"] = log.block_errors[:, m, i]
    assert sorted(want) == sorted(header)
    for name, values in want.items():
        assert_allclose(rows[:, header.index(name)], values, rtol=1e-11, atol=0.0,
                        err_msg=name)


def test_agent_path_interpolation():
    path = AgentPath(times=np.array([0.0, 1.0, 3.0]),
                     points=np.array([[0.0, 0.0, 0.0],
                                      [1.0, 0.0, 0.0],
                                      [1.0, 4.0, 0.0]]))
    assert_allclose(path.position(0.5), [0.5, 0.0, 0.0])
    assert_allclose(path.position(2.0), [1.0, 2.0, 0.0])
    assert_allclose(path.position(99.0), [1.0, 4.0, 0.0])  # clamped
    with pytest.raises(ValueError):
        AgentPath(times=np.array([0.0, 0.0]), points=np.zeros((2, 3)))


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario_cv(step=0.0)
    with pytest.raises(ValueError):
        scenario_cv(duration=1e-6)
    with pytest.raises(ValueError):
        scenario_cv(noise_std_deg=-1.0)
    with pytest.raises(ValueError):
        scenario_cv(init_range=(0.0, 5.0))
    with pytest.raises(ValueError):
        scenario_cv(agent_paths=tuple(SQUARE_AGENTS[:3]))
    with pytest.raises(ValueError):
        scenario_cv(loss_schedule=(((0.0, 1.0),),))


@pytest.mark.parametrize(
    "target_input",
    [lambda _t: np.zeros(3), np.zeros(2), np.zeros((1, 3)), "abc",
     [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0]],
    ids=["callable", "2-vector", "row", "text", "nan", "inf"],
)
def test_scenario_rejects_a_target_input_that_is_not_a_finite_3_vector(target_input):
    with pytest.raises(ValueError, match="target input must be a finite 3-vector"):
        scenario_cv(target_input=target_input)


def test_scenario_holds_the_constant_input_as_a_float_array():
    s = scenario_cv(target_input=[0, 1, 2])
    assert s.target_input.dtype == float
    assert np.array_equal(s.target_input, [0.0, 1.0, 2.0])
    assert scenario_cv().target_input is None


def test_moving_agents_supported():
    paths = tuple(AgentPath.static(p) for p in SQUARE_AGENTS[:3]) + (
        AgentPath(times=np.array([0.0, 1.0]),
                  points=np.array([[-10.0, -10.0, 2.0], [-10.0, -5.0, 2.0]])),
    )
    s = scenario_cv(agent_paths=paths, duration=0.1, noise_std_deg=0.0)
    log = run(s)
    assert np.all(np.isfinite(log.block_errors))
