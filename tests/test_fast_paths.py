"""Vectorised fast paths against slow references that share no code with them.

Each reference is written out here from its definition: a double loop for the
Metropolis weights, a per-agent solve/inv filter cycle (one step, and a whole
baseline run replayed from the observer run's bearings), the dense (m w)^2
transformation matrix for the Lyapunov value, per-sample AgentPath.position
calls and loss intervals for the sampled stream, a dense block-diagonal stack
for the consensus-gain bound, the Sturm-bisection oracle for the excitation
series, the per-agent observer operations for the network derivative, and
separate single-seed runs for a seed-batched run.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from contrack import constants, sim
from contrack.cli import main
from contrack.config import emit_config
from contrack.dkf import (
    MEASUREMENT_NOISE,
    PROCESS_NOISE,
    dkf_step,
    local_information,
    metropolis_weights,
    mixing_matrix,
    prediction_terms,
    run_dkf,
    state_estimates,
)
from contrack.gains import ObserverGains, build_transformation, consensus_alpha_bound
from contrack.graph import build_graph
from contrack.linalg import ConvergenceError, rk4_step, sym_eigen
from contrack.observer import (
    AgentState,
    Measurement,
    NeighborEstimate,
    correction_term,
    observer_derivative,
    unavailable_measurement,
)
from contrack.sim import AgentPath, Scenario, _init_draws, _true_bearings, run
from conftest import SQUARE_AGENTS, ring_adjacency, scenario_cv
from oracles import sturm_eigenvalues


def random_weighted_adjacency(rng, n, density):
    # A ring keeps the graph connected; chords are added at random with
    # random positive weights.
    a = ring_adjacency(n) * rng.uniform(0.1, 2.0, size=(n, n))
    chords = np.triu(rng.random((n, n)) < density, k=2)
    a = np.where(chords, rng.uniform(0.1, 2.0, size=(n, n)), a)
    upper = np.triu(a, k=1)
    return upper + upper.T


def naive_metropolis(a):
    n = a.shape[0]
    degree = [sum(1 for j in range(n) if a[i, j] > 0.0) for i in range(n)]
    w = np.zeros((n, n))
    for i in range(n):
        total = 0.0
        for j in range(n):
            if i != j and a[i, j] > 0.0:
                w[i, j] = 1.0 / (1.0 + max(degree[i], degree[j]))
                total += w[i, j]
        w[i, i] = 1.0 - total
    return w


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 14), st.floats(0.0, 1.0))
def test_metropolis_weights_match_double_loop(seed, n, density):
    rng = np.random.default_rng(seed)
    a = random_weighted_adjacency(rng, n, density)
    assert_allclose(metropolis_weights(a), naive_metropolis(a), rtol=0.0, atol=1e-14)


def reference_dkf_step(pairs, measurements, iters, adjacency, h):
    """Per-agent filter cycle: (omega, q) tuples in, (omega, q) tuples out."""
    n = len(pairs)
    w = naive_metropolis(adjacency)
    r_inv = np.linalg.inv(MEASUREMENT_NOISE)
    omegas, qs = [], []
    for (omega, q), (psi, y) in zip(pairs, measurements):
        hmat = np.hstack([psi, np.zeros((3, 3))])
        omegas.append(omega + hmat.T @ r_inv @ hmat)
        qs.append(q + hmat.T @ r_inv @ y)
    for _ in range(iters):
        omegas = [sum(w[i, j] * omegas[j] for j in range(n)) for i in range(n)]
        qs = [sum(w[i, j] * qs[j] for j in range(n)) for i in range(n)]
    f = np.block([[np.eye(3), h * np.eye(3)], [np.zeros((3, 3)), np.eye(3)]])
    out, estimates = [], []
    for omega, q in zip(omegas, qs):
        omega = 0.5 * (omega + omega.T)
        x = np.linalg.solve(omega, q)
        cov = f @ np.linalg.inv(omega) @ f.T + PROCESS_NOISE
        omega_next = np.linalg.inv(0.5 * (cov + cov.T))
        omega_next = 0.5 * (omega_next + omega_next.T)
        out.append((omega_next, omega_next @ (f @ x)))
        estimates.append(x)
    return out, np.array(estimates)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 3))
def test_batched_dkf_step_matches_per_agent_reference(seed, n, iters):
    rng = np.random.default_rng(seed)
    adjacency = random_weighted_adjacency(rng, n, 0.4)
    h = rng.uniform(1e-3, 0.1)
    ref = []
    for _ in range(n):
        a = rng.normal(size=(6, 6))
        ref.append((a @ a.T + np.eye(6), rng.normal(size=6)))
    omegas = np.array([o for o, _ in ref])
    qs = np.array([q for _, q in ref])
    mixing = mixing_matrix(adjacency, iters)
    prediction = prediction_terms(h)
    target = rng.normal(scale=5.0, size=3)
    for _ in range(3):
        meas = []
        for _ in range(n):
            if rng.random() < 0.25:
                meas.append((np.zeros((3, 3)), np.zeros(3)))
                continue
            p = target + rng.normal(scale=10.0, size=3)
            b = (target - p) / np.linalg.norm(target - p)
            psi = np.eye(3) - np.outer(b, b)
            meas.append((psi, psi @ p))
        local = local_information(np.array([psi for psi, _ in meas]),
                                  np.array([y for _, y in meas]))
        omegas, qs, post_omegas, post_qs = dkf_step(omegas, qs, *local, mixing,
                                                    prediction)
        estimates = state_estimates(post_omegas, post_qs)
        ref, ref_estimates = reference_dkf_step(ref, meas, iters, adjacency, h)
        assert_allclose(estimates, ref_estimates, rtol=1e-9, atol=1e-9)
        for omega, q, (ref_omega, ref_q) in zip(omegas, qs, ref):
            assert_allclose(omega, ref_omega, rtol=1e-9, atol=1e-9)
            assert_allclose(q, ref_q, rtol=1e-9, atol=1e-9)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 14), st.integers(1, 4))
def test_mixing_matrix_matches_repeated_metropolis_rounds(seed, n, iters):
    rng = np.random.default_rng(seed)
    a = random_weighted_adjacency(rng, n, 0.4)
    stack = rng.normal(size=(n, 6, 6))
    want = stack
    for _ in range(iters):
        want = np.einsum("ij,jkl->ikl", naive_metropolis(a), want)
    got = np.einsum("ij,jkl->ikl", mixing_matrix(a, iters), stack)
    assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(stack).max())


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([0.0, 0.5]),
       st.booleans(), st.booleans(), st.booleans(), st.integers(5, 300))
def test_run_dkf_matches_per_agent_reference_run(seed, iters, noise, lossy, moving,
                                                 average, chunk):
    # The reference replays the observer run's bearings and loss mask with
    # AgentPath.position, its own initial draws and reference_dkf_step, and
    # evaluates the truth from the chain's polynomial flow.
    rng = np.random.default_rng(seed)
    s = replace(batch_scenario(rng, 2, noise, lossy, moving), init_average=average)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "STREAM_CHUNK", chunk)
        obs = run(s)
        log = run_dkf(s, consensus_iters=iters)
    assert log.bearing_checksum == obs.bearing_checksum

    n = len(s.agent_paths)
    draws = np.random.default_rng(s.seed)
    radii = draws.uniform(*s.init_range, size=n)
    fallback = draws.normal(size=(n, 3))
    fallback /= np.linalg.norm(fallback, axis=1)[:, None]
    blocks = s.target_blocks
    ref = None
    for row, t in enumerate(log.t):
        positions = np.array([path.position(t) for path in s.agent_paths])
        meas = []
        for i in range(n):
            if not obs.available[row, i]:
                meas.append((np.zeros((3, 3)), np.zeros(3)))
                continue
            b = obs.bearings[row, i]
            psi = np.eye(3) - np.outer(b, b)
            meas.append((psi, psi @ positions[i]))
        if ref is None:
            starts = [positions[i] + radii[i] * (obs.bearings[0, i]
                                                 if obs.available[0, i]
                                                 else fallback[i])
                      for i in range(n)]
            if average:
                starts = [np.mean(starts, axis=0)] * n
            ref = [(np.eye(6), np.concatenate([p, np.zeros(3)])) for p in starts]
        ref, estimates = reference_dkf_step(ref, meas, iters, s.adjacency, s.step)
        truth_pos = sum(blocks[r] * t ** r / math.factorial(r)
                        for r in range(len(blocks)))
        truth_vel = sum(blocks[r] * t ** (r - 1) / math.factorial(r - 1)
                        for r in range(1, len(blocks))) + np.zeros(3)
        assert_allclose(log.pos_errors[row],
                        np.linalg.norm(estimates[:, :3] - truth_pos, axis=1),
                        rtol=1e-9, atol=1e-12)
        assert_allclose(log.vel_errors[row],
                        np.linalg.norm(estimates[:, 3:] - truth_vel, axis=1),
                        rtol=1e-9, atol=1e-12)


@settings(deadline=None, max_examples=12)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_run_lyapunov_value_matches_dense_transformation(seed, order):
    # A per-agent RK4 over the observer operations gives the error history;
    # V is then 0.5 |P x_tilde|^2 with the dense (m w)^2 matrix P.
    rng = np.random.default_rng(seed)
    gains = ObserverGains(k=tuple(rng.uniform(0.5, 5.0, size=order)),
                          alpha=15.9, delta=0.8, gamma=0.1)
    target = np.array([0.0, -15.0, 0.0])
    s = scenario_cv(gains=gains, target_blocks=target[None, :], noise_std_deg=0.0,
                    duration=0.01, seed=seed)
    log = run(s)

    n, m = s.n_agents, order
    radii, _ = _init_draws(np.random.default_rng(s.seed), n, s.init_range)
    bearings = _true_bearings(target, SQUARE_AGENTS, 0.0)
    meas = []
    for i in range(n):
        psi = np.eye(3) - np.outer(bearings[i], bearings[i])
        meas.append(Measurement(agent_id=i, available=True, psi=psi,
                                y=psi @ SQUARE_AGENTS[i]))

    def f(t, flat):
        states = flat.reshape(n, m, 3)
        out = np.empty_like(states)
        for i in range(n):
            state = AgentState(agent_id=i, blocks=states[i])
            neighbors = [
                NeighborEstimate(neighbor_id=j, weight=s.adjacency[i, j],
                                 first_block=states[j, 0])
                for j in range(n) if s.adjacency[i, j] > 0.0
            ]
            delta = correction_term(state, meas[i], neighbors, gains.alpha)
            out[i] = observer_derivative(state, delta, gains).blocks
        return out.ravel()

    p_dense = build_transformation(gains, 3 * n).matrix
    states = np.zeros((n, m, 3))
    states[:, 0] = SQUARE_AGENTS + radii[:, None] * bearings
    truth = np.zeros((m, 3))
    truth[0] = target
    for step in range(log.t.size):
        if step:
            flat = rk4_step(f, (step - 1) * s.step, states.ravel(), s.step)
            states = flat.reshape(n, m, 3)
        x_tilde = (truth[None] - states).transpose(1, 0, 2).ravel()
        eta = p_dense @ x_tilde
        assert log.v[step] == pytest.approx(0.5 * float(eta @ eta), rel=1e-8, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 5))
def test_lyapunov_monitor_matches_dense_transformation(seed, order, width):
    rng = np.random.default_rng(seed)
    gains = ObserverGains(k=tuple(rng.uniform(0.2, 10.0, size=order)),
                          alpha=1.0, delta=0.5, gamma=0.1)
    x = rng.normal(size=order * width)
    eta = build_transformation(gains, width).matrix @ x
    v, _ = sim.lyapunov_monitor(x, gains, t=0.0, t0=0.0, v0=1.0)
    assert v == pytest.approx(0.5 * float(eta @ eta), rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 24))
def test_chunked_stream_matches_per_sample_reference(seed, chunk, n_samples):
    rng = np.random.default_rng(seed)
    n = 4
    h = float(rng.uniform(0.01, 0.2))
    paths = []
    for i in range(n):
        if i == 0:
            paths.append(AgentPath.static(rng.uniform(-10.0, 10.0, size=3)))
            continue
        knots = int(rng.integers(2, 5))
        times = np.cumsum(rng.uniform(0.05, 1.0, size=knots)) - 0.3
        paths.append(AgentPath(times=times,
                               points=rng.uniform(-10.0, 10.0, size=(knots, 3))))
    # Interval ends fall on sample times, where start <= t < end is decided.
    loss = tuple(
        tuple(tuple(sorted(rng.integers(0, n_samples + 1, size=2) * h))
              for _ in range(i))
        for i in range(n)
    )
    s = Scenario(
        gains=ObserverGains(k=(1.0,), alpha=1.0, delta=0.1, gamma=0.1),
        adjacency=ring_adjacency(n),
        agent_paths=tuple(paths),
        target_blocks=np.array([[0.0, 0.0, 100.0], [1.0, 0.5, 0.0]]),
        step=h,
        duration=max(h, (n_samples - 1) * h),
        seed=seed,
        noise_std_deg=0.5,
        loss_schedule=loss,
    )
    draws = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "STREAM_CHUNK", chunk)
        chunks = list(sim._stream_chunks(s, [np.random.default_rng(seed)], n_samples))
    samples = [(float(c.times[row]), c.positions[row], c.avail[row], c.theta[0, row],
                c.phase[0, row]) for c in chunks for row in range(c.size)]
    starts = np.cumsum([0] + [c.size for c in chunks])[:-1]
    assert [c.first for c in chunks] == starts.tolist()
    assert len(samples) == n_samples
    for k, (t, positions, avail, theta, phase) in enumerate(samples):
        assert t == k * h
        for i, path in enumerate(paths):
            assert_allclose(positions[i], path.position(t), rtol=0.0, atol=1e-12)
            assert avail[i] == (not any(a <= t < b for a, b in loss[i]))
        assert np.array_equal(theta, draws.normal(0.0, np.deg2rad(0.5), size=n))
        assert np.array_equal(phase, draws.uniform(0.0, 2.0 * np.pi, size=n))


def test_sym_eigen_maps_lapack_failure_to_convergence_error(monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge") as err:
        sym_eigen(np.eye(3))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 10), st.floats(0.05, 1.0),
       st.floats(1e-3, 5.0))
def test_alpha_bound_matches_dense_block_diagonal(seed, n, gamma, scale):
    # Small blocks make the negative part of Psi^2/gamma - Psi the largest in
    # magnitude, large ones the positive part.
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n):
        a = rng.normal(scale=scale, size=(3, 3))
        blocks.append(0.5 * (a + a.T))
    stack = np.zeros((3 * n, 3 * n))
    for i, b in enumerate(blocks):
        stack[3 * i:3 * i + 3, 3 * i:3 * i + 3] = b
    values = np.linalg.eigvalsh(stack @ stack / gamma - stack)
    want = (0.3 + np.abs(values).max()) / 2.0
    got = consensus_alpha_bound(0.3, gamma, 2.0, blocks)
    assert got == pytest.approx(want, rel=1e-12)


def test_lambda_min_spatial_matches_sturm_oracle():
    paths = tuple(AgentPath.static(p) for p in SQUARE_AGENTS[:3]) + (
        AgentPath(times=np.array([0.0, 0.05]),
                  points=np.array([[-10.0, -10.0, 2.0], [-4.0, -12.0, 5.0]])),
    )
    s = scenario_cv(agent_paths=paths, duration=0.05, noise_std_deg=0.5,
                    loss_schedule=(((0.01, 0.02),), (), ((0.03, 0.04),), ()))
    log = run(s)
    for idx in range(log.t.size):
        mean = np.zeros((3, 3))
        for i in range(log.n_agents):
            if log.available[idx, i]:
                b = log.bearings[idx, i]
                mean += np.eye(3) - np.outer(b, b)
        mean /= log.n_agents
        assert abs(log.lambda_min_spatial[idx] - sturm_eigenvalues(mean)[0]) <= 1e-12


def random_connected_adjacency(rng, n):
    # A random spanning tree keeps the graph connected; extra edges are added
    # at random, all with random positive weights.
    a = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        j = order[rng.integers(0, i)]
        a[order[i], j] = a[j, order[i]] = rng.uniform(0.1, 3.0)
    extra = np.triu(rng.random((n, n)) < 0.3, k=1) & (a == 0.0)
    w = np.triu(rng.uniform(0.1, 3.0, size=(n, n)), k=1) * extra
    return a + w + w.T


def rodrigues(axis, theta):
    """Rotation by theta about a unit axis."""
    cross = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(theta) * cross + (1.0 - np.cos(theta)) * cross @ cross


def random_rotation(rng, angle_std):
    axis = rng.normal(size=3)
    return rodrigues(axis / np.linalg.norm(axis), rng.normal(0.0, angle_std))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 7), st.integers(1, 4),
       st.floats(0.0, 0.2))
def test_network_derivative_matches_per_agent_operations(seed, n, order, angle_std):
    rng = np.random.default_rng(seed)
    adjacency = random_connected_adjacency(rng, n)
    gains = ObserverGains(k=tuple(rng.uniform(0.2, 10.0, size=order)),
                          alpha=float(rng.uniform(0.1, 20.0)), delta=0.5, gamma=0.1)
    target = rng.normal(scale=5.0, size=3)
    positions = target + rng.normal(scale=20.0, size=(n, 3))
    available = rng.random(n) < 0.7
    bearings = []
    for p in positions:
        b = random_rotation(rng, angle_std) @ ((target - p) / np.linalg.norm(target - p))
        bearings.append(b / np.linalg.norm(b))
    bearings = np.array(bearings)
    est = rng.normal(scale=10.0, size=(n, order, 3))

    want = np.empty_like(est)
    for i in range(n):
        if available[i]:
            psi = np.eye(3) - np.outer(bearings[i], bearings[i])
            meas = Measurement(agent_id=i, available=True, psi=psi, y=psi @ positions[i])
        else:
            meas = unavailable_measurement(i)
        state = AgentState(agent_id=i, blocks=est[i])
        neighbors = [NeighborEstimate(neighbor_id=j, weight=adjacency[i, j],
                                      first_block=est[j, 0])
                     for j in range(n) if adjacency[i, j] > 0.0]
        delta = correction_term(state, meas, neighbors, gains.alpha)
        want[i] = observer_derivative(state, delta, gains).blocks

    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    psi, y = sim._measurement_arrays(positions, bearings, available)
    # The level-major block of one seed: (m, n, 1, 3).
    got = sim._network_derivative(
        np.ascontiguousarray(est.transpose(1, 0, 2)[:, :, None]), psi[:, None],
        y[:, None], gains.alpha * laplacian, np.asarray(gains.k)[:, None, None, None],
    )[:, :, 0].transpose(1, 0, 2)
    assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def batch_scenario(rng, order, noise, lossy, moving):
    gains = ObserverGains(k=(5.0, 3.5, 0.5)[:order], alpha=15.9, delta=0.3, gamma=0.1)
    target = np.array([[0.0, -15.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.1, 0.02]])
    paths = tuple(SQUARE_AGENTS)
    if moving:
        paths = paths[:3] + (AgentPath(times=np.array([0.0, 0.1]),
                                       points=np.array([[-10.0, -10.0, 2.0],
                                                        [-8.0, -12.0, 4.0]])),)
    loss = ()
    if lossy:
        start = float(rng.integers(0, 20)) * 1e-3
        loss = (((start, start + 0.015),), (), ((0.0, 0.01),), ())
    return scenario_cv(gains=gains, target_blocks=target[:int(rng.integers(1, 4))],
                       agent_paths=paths, loss_schedule=loss, noise_std_deg=noise,
                       duration=0.04, seed=int(rng.integers(0, 1000)))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
       st.integers(1, 3), st.sampled_from([0.0, 0.5]), st.booleans(), st.booleans(),
       st.integers(5, 300))
def test_batched_run_matches_single_seed_runs(seed, seeds, order, noise, lossy,
                                              moving, chunk):
    s = batch_scenario(np.random.default_rng(seed), order, noise, lossy, moving)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "STREAM_CHUNK", chunk)
        batch = run(s, seeds)
        singles = [run(s.with_seed(x)) for x in seeds]
    assert len(batch) == len(seeds)
    for got, want in zip(batch, singles):
        assert got.bearing_checksum == want.bearing_checksum
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.available, want.available)
        assert np.array_equal(got.bearings, want.bearings)
        for field in ("block_errors", "v", "v_bound", "lambda_min_spatial",
                      "disagreement", "comm_floats"):
            a, b = getattr(got, field), getattr(want, field)
            assert_allclose(a, b, rtol=1e-9, atol=1e-12 * np.abs(b).max(), err_msg=field)


@pytest.mark.parametrize("seeds", [None, [3, 4]])
@pytest.mark.parametrize("chunk", [8, 5])
def test_callable_input_matches_the_constant_input(seeds, chunk):
    # 16 steps in chunks of 8 samples: the last sample opens a chunk with no
    # step left to take. A callable returning the constant input drives the
    # same target (RK4 is exact on its quadratic path).
    u = np.array([0.0, 0.25, 0.0])
    s = scenario_cv(target_input=u, duration=0.016, noise_std_deg=0.5, seed=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "STREAM_CHUNK", chunk)
        got = run(replace(s, target_input=lambda _t: u), seeds)
        want = run(s, seeds)
    for a_log, b_log in zip(np.atleast_1d(got), np.atleast_1d(want)):
        assert a_log.t.size == 17
        for field in ("bearings", "block_errors", "v", "lambda_min_spatial",
                      "disagreement"):
            a, b = getattr(a_log, field), getattr(b_log, field)
            assert_allclose(a, b, rtol=1e-9, atol=1e-12 * np.abs(b).max(), err_msg=field)


def test_sweep_with_one_diverging_seed_writes_the_other(tmp_path, monkeypatch, capsys):
    # Each seed's peak estimate magnitude, from separate runs; a divergence
    # limit between the two takes exactly one seed out of the sweep.
    s = scenario_cv(duration=0.05, init_range=(5.0, 300.0))
    seeds = (3, 4)
    peaks = {}
    for seed in seeds:
        seen = []

        def spy(*args):
            out = rk4_step(*args)
            seen.append(np.abs(out).max())
            return out

        monkeypatch.setattr(sim, "rk4_step", spy)
        run(s.with_seed(seed))
        peaks[seed] = max(seen)
    monkeypatch.undo()
    low, high = sorted(seeds, key=peaks.get)
    assert peaks[high] > 1.01 * peaks[low]
    monkeypatch.setattr(constants, "DIVERGENCE_LIMIT", 0.5 * (peaks[low] + peaks[high]))

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(emit_config(s))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--seeds", ",".join(map(str, seeds))]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"error: seed {high}: run aborted: simulation diverged at t=")
    assert not os.path.exists(tmp_path / f"s_seed{high}.csv")

    single = tmp_path / "single.csv"
    cfg.write_text(emit_config(s.with_seed(low)))
    assert main(["run", "--config", str(cfg), "--out", str(single), "--quiet"]) == 0
    swept = np.loadtxt(tmp_path / f"s_seed{low}.csv", delimiter=",", skiprows=1)
    assert_allclose(swept, np.loadtxt(single, delimiter=",", skiprows=1), rtol=1e-9)


def test_non_finite_seed_leaves_the_batch_alone():
    # Seed 1's consensus term overflows at the first stage; seeds 0 and 2
    # advance exactly as they do on their own.
    rng = np.random.default_rng(5)
    n = 4
    laplacian = 2.0 * np.eye(n) - ring_adjacency(n)
    k_col = np.array([5.0, 3.5])[:, None, None, None]
    est = rng.normal(scale=10.0, size=(2, n, 2, 3))
    est[1, 0, 0] = 1e308
    bearings = rng.normal(size=(4, 2, n, 3))
    bearings /= np.linalg.norm(bearings, axis=-1, keepdims=True)
    # Seed 2: seed 0's estimates shifted, with seed 1's bearings.
    est = np.concatenate([est, est[:1] + 1.0])
    bearings = np.concatenate([bearings, bearings[:, 1:2]], axis=1)
    # Level-major blocks: est (m, n, S, 3), stage bearings (4, n, S, 3).
    est = np.ascontiguousarray(est.transpose(2, 1, 0, 3))
    bearings = np.ascontiguousarray(bearings.transpose(0, 2, 1, 3))
    psi, y = sim._measurement_arrays(SQUARE_AGENTS[:, None], bearings,
                                     np.ones((n, 1), dtype=bool))
    args = (0.25, 1e-3)
    rest = (15.9 * laplacian, k_col)
    with np.errstate(over="ignore", invalid="ignore"):
        out, failed = sim._advance(est, *args, psi, y, *rest)
        alone, none = sim._advance(est[:, :, :1], *args, psi[:, :, :1], y[:, :, :1],
                                   *rest)
        last, also_none = sim._advance(est[:, :, 2:], *args, psi[:, :, 2:], y[:, :, 2:],
                                       *rest)
    assert none is None and also_none is None
    assert failed[0] == np.inf and failed[1] == 0.25 and failed[2] == np.inf
    assert np.array_equal(out[:, :, 0], alone[:, :, 0])
    assert np.array_equal(out[:, :, 2], last[:, :, 0])


@settings(deadline=None, max_examples=8)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.5]))
def test_run_matches_per_agent_reference_with_stage_truth_and_noise(seed, noise_deg):
    # An accelerating target, noisy bearings and a lost measurement: the
    # reference replays the seed's draws, builds each noise rotation from its
    # angle and axis phase, and evaluates the per-agent observer operations
    # at the RK4 stage positions of the target chain restarted from the
    # sampled truth. The coarse step makes the two midpoint stages differ
    # by far more than the tolerance.
    target = np.array([[0.0, 10.0, 0.0], [0.0, -2.0, 0.5], [3.0, 1.5, 0.5]])
    gains = ObserverGains(k=(1.0, 0.5), alpha=1.0, delta=0.8, gamma=0.1)
    loss = (((0.2, 0.45),), (), (), ())
    s = scenario_cv(gains=gains, target_blocks=target, noise_std_deg=noise_deg,
                    step=0.05, duration=1.0, seed=seed, loss_schedule=loss)
    log = run(s)

    n, h = 4, s.step
    rng = np.random.default_rng(seed)
    radii = rng.uniform(*s.init_range, size=n)
    rng.normal(size=(n, 3))  # fallback directions, unused: agent 0 sees at t = 0

    def shift(x):
        return np.vstack([x[1:], np.zeros((1, 3))])

    def bearing(p_target, i):
        d = p_target - SQUARE_AGENTS[i]
        return d / np.linalg.norm(d)

    states = None
    for step in range(log.t.size):
        t = step * h
        truth = np.array([target[0] + target[1] * t + 0.5 * target[2] * t * t,
                          target[1] + target[2] * t, target[2]])
        theta = rng.normal(0.0, np.deg2rad(noise_deg), size=n)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        rotations = []
        for i in range(n):
            b = bearing(truth[0], i)
            ref = np.zeros(3)
            ref[np.argmin(np.abs(b))] = 1.0
            e1 = np.cross(ref, b) / np.linalg.norm(np.cross(ref, b))
            axis = np.cos(phase[i]) * e1 + np.sin(phase[i]) * np.cross(b, e1)
            rotations.append(rodrigues(axis, theta[i]))
        if states is None:
            states = np.zeros((n, 2, 3))
            for i in range(n):
                measured = rotations[i] @ bearing(truth[0], i)
                states[i, 0] = SQUARE_AGENTS[i] + radii[i] * measured
        errs = np.stack([np.linalg.norm(truth[0] - states[:, 0], axis=1),
                         np.linalg.norm(truth[1] - states[:, 1], axis=1)])
        assert_allclose(log.block_errors[step], errs, rtol=1e-9, atol=1e-12)
        spread = max(np.linalg.norm(a - b) for a in states[:, 0] for b in states[:, 0])
        assert log.disagreement[step] == pytest.approx(spread, rel=1e-9)
        if step == log.t.size - 1:
            break

        x2 = truth + 0.5 * h * shift(truth)
        x3 = truth + 0.5 * h * shift(x2)
        x4 = truth + h * shift(x3)
        seen = [not any(a <= t < b for a, b in loss[i]) for i in range(n)]

        def f(stage_target, flat):
            out = np.empty_like(flat)
            for i in range(n):
                state = AgentState(agent_id=i, blocks=flat[i])
                if seen[i]:
                    b = rotations[i] @ bearing(stage_target, i)
                    psi = np.eye(3) - np.outer(b, b)
                    meas = Measurement(agent_id=i, available=True, psi=psi,
                                       y=psi @ SQUARE_AGENTS[i])
                else:
                    meas = unavailable_measurement(i)
                neighbors = [NeighborEstimate(neighbor_id=j, weight=s.adjacency[i, j],
                                              first_block=flat[j, 0])
                             for j in range(n) if s.adjacency[i, j] > 0.0]
                delta = correction_term(state, meas, neighbors, gains.alpha)
                out[i] = observer_derivative(state, delta, gains).blocks
            return out

        k1 = f(truth[0], states)
        k2 = f(x2[0], states + 0.5 * h * k1)
        k3 = f(x3[0], states + 0.5 * h * k2)
        k4 = f(x4[0], states + h * k3)
        states = states + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 40), st.sampled_from([0.0, 1e6]))
def test_max_pairwise_distance_matches_double_loop(seed, n, offset):
    # A far offset (map coordinates) tests that the Gram form is centred.
    points = np.random.default_rng(seed).normal(scale=10.0, size=(2, 3, n, 3))
    points += offset
    want = np.zeros((2, 3))
    for s in range(2):
        for c in range(3):
            want[s, c] = max(np.linalg.norm(points[s, c, i] - points[s, c, j])
                             for i in range(n) for j in range(n))
    assert_allclose(sim._max_pairwise_distance(points), want, rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                         min_size=3, max_size=3), min_size=1, max_size=20))
def test_csv_table_matches_per_cell_formatting(rows):
    table = np.array(rows)
    want = "h\n" + "".join(",".join(f"{x:.12g}" for x in row) + "\n" for row in rows)
    assert sim.table_to_csv("h", table) == want
