"""Vectorised fast paths against slow references that share no code with them.

Each reference is written out here from its definition: a double loop for the
Metropolis weights, a per-agent solve/inv filter cycle, the dense (m w)^2
transformation matrix for the Lyapunov value, per-sample AgentPath.position
calls and loss intervals for the sampled stream, a dense block-diagonal stack
for the consensus-gain bound, and the Sturm-bisection oracle for the
excitation series.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from contrack import sim
from contrack.dkf import (
    MEASUREMENT_NOISE,
    PROCESS_NOISE,
    InformationPair,
    dkf_step,
    metropolis_weights,
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
    graph = build_graph(adjacency)
    h = rng.uniform(1e-3, 0.1)
    ref = []
    for _ in range(n):
        a = rng.normal(size=(6, 6))
        ref.append((a @ a.T + np.eye(6), rng.normal(size=6)))
    pairs = [InformationPair(omega=o, q=q) for o, q in ref]
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
        pairs, estimates = dkf_step(pairs, meas, iters, graph, h)
        ref, ref_estimates = reference_dkf_step(ref, meas, iters, adjacency, h)
        assert_allclose(estimates, ref_estimates, rtol=1e-9, atol=1e-9)
        for pair, (omega, q) in zip(pairs, ref):
            assert_allclose(pair.omega, omega, rtol=1e-9, atol=1e-9)
            assert_allclose(pair.q, q, rtol=1e-9, atol=1e-9)


def test_dkf_step_weights_argument_matches_rebuilt_weights():
    graph = build_graph(ring_adjacency(5))
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(5):
        a = rng.normal(size=(6, 6))
        pairs.append(InformationPair(omega=a @ a.T + np.eye(6), q=rng.normal(size=6)))
    meas = [(np.zeros((3, 3)), np.zeros(3))] * 5
    _, rebuilt = dkf_step(pairs, meas, 2, graph, 1e-3)
    _, passed = dkf_step(pairs, meas, 2, graph, 1e-3,
                         metropolis_weights(graph.adjacency))
    assert np.array_equal(rebuilt, passed)


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
        stream = sim.measurement_stream(s, np.random.default_rng(seed), n_samples)
        samples = list(stream)
    assert len(samples) == n_samples
    for k, (t, positions, _truth, _b, avail, theta, phase) in enumerate(samples):
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
