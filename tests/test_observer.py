import numpy as np
import pytest
from numpy.testing import assert_allclose

from contrack.gains import ObserverGains, build_xi
from contrack.linalg import projection_matrix
from contrack.observer import (
    AgentState,
    Measurement,
    NeighborEstimate,
    bearing_measurement,
    broadcast_payload,
    correction_term,
    observer_derivative,
    unavailable_measurement,
)


def gains_of(k, alpha=2.0):
    return ObserverGains(k=tuple(k), alpha=alpha, delta=0.1, gamma=0.1)


def stack_errors(truth_blocks, states):
    # Block-major network error vector: block 0 of every agent, block 1, ...
    order = truth_blocks.shape[0]
    parts = []
    for m in range(order):
        for st in states:
            parts.append(truth_blocks[m] - st.blocks[m])
    return np.concatenate(parts)


def test_agent_state_validation():
    with pytest.raises(ValueError):
        AgentState(agent_id=0, blocks=np.array([[np.inf, 0.0, 0.0]]))
    st = AgentState(agent_id=1, blocks=np.zeros((2, 3)))
    assert st.order == 2


def test_measurement_zero_pair_invariant():
    with pytest.raises(ValueError):
        Measurement(agent_id=0, available=False, psi=np.eye(3), y=np.zeros(3))
    m = unavailable_measurement(0)
    assert not m.available
    assert np.all(m.psi == 0.0) and np.all(m.y == 0.0)


def test_neighbor_weight_positive():
    with pytest.raises(ValueError):
        NeighborEstimate(neighbor_id=1, weight=0.0, first_block=np.zeros(3))


def test_correction_vanishes_at_consensus_on_truth():
    truth = np.array([1.0, -2.0, 0.5])
    meas = bearing_measurement(np.array([5.0, 0.0, 0.0]),
                               _unit(truth - np.array([5.0, 0.0, 0.0])), agent_id=0)
    state = AgentState(agent_id=0, blocks=truth[None, :])
    neighbors = [
        NeighborEstimate(neighbor_id=j, weight=1.0, first_block=truth.copy())
        for j in (1, 2)
    ]
    delta = correction_term(state, meas, neighbors, alpha=3.0)
    assert np.max(np.abs(delta)) <= 1e-12


def test_correction_no_neighbors_is_projected_offset():
    agent_pos = np.array([2.0, 1.0, 0.0])
    truth = np.array([-1.0, 4.0, 3.0])
    b = _unit(truth - agent_pos)
    meas = bearing_measurement(agent_pos, b, agent_id=0)
    estimate = np.array([0.3, 0.3, 0.3])
    state = AgentState(agent_id=0, blocks=estimate[None, :])
    delta = correction_term(state, meas, [], alpha=5.0)
    expected = projection_matrix(b) @ (agent_pos - estimate)
    assert_allclose(delta, expected, atol=1e-12)


def test_correction_consensus_only_when_unavailable():
    e1 = np.array([1.0, 0.0, 2.0])
    e2 = np.array([0.0, -1.0, 1.0])
    state = AgentState(agent_id=0, blocks=np.zeros((1, 3)))
    neighbors = [
        NeighborEstimate(neighbor_id=1, weight=1.0, first_block=e1),
        NeighborEstimate(neighbor_id=2, weight=1.0, first_block=e2),
    ]
    delta = correction_term(state, unavailable_measurement(0), neighbors, alpha=2.0)
    assert_allclose(delta, 2.0 * (e1 + e2), atol=1e-12)


def test_derivative_is_model_replica_without_correction():
    st = AgentState(agent_id=0, blocks=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    d = observer_derivative(st, np.zeros(3), gains_of([5.0, 3.5]))
    assert_allclose(d.blocks[0], [4.0, 5.0, 6.0])
    assert_allclose(d.blocks[1], [0.0, 0.0, 0.0])


def test_derivative_first_order():
    st = AgentState(agent_id=0, blocks=np.zeros((1, 3)))
    d = observer_derivative(st, np.array([1.0, -1.0, 0.0]), gains_of([2.5]))
    assert_allclose(d.blocks[0], [2.5, -2.5, 0.0])


def test_derivative_third_order_gain_ladder():
    st = AgentState(agent_id=0, blocks=np.zeros((3, 3)))
    delta = np.array([1.0, 0.0, 0.0])
    d = observer_derivative(st, delta, gains_of([10.0, 3.7, 0.5]))
    assert_allclose(d.blocks[0], [10.0, 0.0, 0.0])
    assert_allclose(d.blocks[1], [3.7, 0.0, 0.0])
    assert_allclose(d.blocks[2], [0.5, 0.0, 0.0])


def test_derivative_order_mismatch():
    st = AgentState(agent_id=0, blocks=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        observer_derivative(st, np.zeros(3), gains_of([1.0]))


def test_bearing_measurement_agent_at_origin():
    m = bearing_measurement(np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert_allclose(m.y, np.zeros(3))


def test_bearing_measurement_axis_aligned():
    m = bearing_measurement(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert_allclose(m.psi, np.diag([1.0, 1.0, 0.0]))
    assert_allclose(m.y, [1.0, 0.0, 0.0])


def test_bearing_measurement_truth_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p_t = rng.normal(scale=10.0, size=3)
        p_a = rng.normal(scale=10.0, size=3)
        m = bearing_measurement(p_a, _unit(p_t - p_a))
        assert np.max(np.abs(m.y - m.psi @ p_t)) <= 1e-9


def test_bearing_measurement_rejects_non_unit():
    with pytest.raises(ValueError):
        bearing_measurement(np.zeros(3), np.array([0.0, 0.0, 0.5]))


def test_broadcast_payload_is_first_block_copy():
    st = AgentState(agent_id=0, blocks=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                                                 [7.0, 8.0, 9.0]]))
    payload = broadcast_payload(st)
    assert_allclose(payload, [1.0, 2.0, 3.0])
    assert payload.size == 3
    payload[0] = 99.0
    assert st.blocks[0, 0] == 1.0  # payload must be a copy

    nb = NeighborEstimate(neighbor_id=0, weight=1.0, first_block=broadcast_payload(st))
    assert_allclose(nb.first_block, st.blocks[0])


def test_error_dynamics_match_block_companion_form():
    # Stacked per-agent error derivatives equal the closed-loop matrix
    # Xi(Psi + alpha L (x) I_K) applied to the stacked error.
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        order = int(rng.integers(1, 4))
        k_dim = int(rng.integers(1, 4))
        adjacency = rng.uniform(0.0, 1.0, size=(n, n))
        adjacency = 0.5 * (adjacency + adjacency.T)
        np.fill_diagonal(adjacency, 0.0)
        alpha = rng.uniform(0.1, 3.0)
        gains = ObserverGains(
            k=tuple(rng.uniform(0.2, 5.0, size=order)),
            alpha=alpha, delta=0.1, gamma=0.1,
        )
        psi = rng.normal(size=(n, k_dim, k_dim))
        psi = 0.5 * (psi + psi.transpose(0, 2, 1))
        truth = rng.normal(size=(order, k_dim))
        states = [
            AgentState(agent_id=i, blocks=rng.normal(size=(order, k_dim)))
            for i in range(n)
        ]

        truth_deriv = np.zeros_like(truth)
        truth_deriv[:-1] = truth[1:]

        parts = [[] for _ in range(order)]
        for i, state in enumerate(states):
            meas = Measurement(
                agent_id=i, available=True, psi=psi[i], y=psi[i] @ truth[0]
            )
            neighbors = [
                NeighborEstimate(
                    neighbor_id=j,
                    weight=adjacency[i, j],
                    first_block=broadcast_payload(states[j]),
                )
                for j in range(n)
                if j != i and adjacency[i, j] > 0.0
            ]
            delta = correction_term(state, meas, neighbors, alpha)
            deriv = observer_derivative(state, delta, gains)
            for m in range(order):
                parts[m].append(truth_deriv[m] - deriv.blocks[m])
        error_deriv = np.concatenate([np.concatenate(p) for p in parts])

        laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
        psi_stack = np.zeros((n * k_dim, n * k_dim))
        for i in range(n):
            psi_stack[i * k_dim:(i + 1) * k_dim, i * k_dim:(i + 1) * k_dim] = psi[i]
        phi = psi_stack + alpha * np.kron(laplacian, np.eye(k_dim))
        x_tilde = stack_errors(truth, states)
        predicted = build_xi(gains, phi) @ x_tilde
        assert np.max(np.abs(error_deriv - predicted)) <= 1e-9


def test_consensus_fixed_point():
    shared = np.array([[2.0, -1.0, 0.0]])
    states = [AgentState(agent_id=i, blocks=shared.copy()) for i in range(3)]
    psi = np.diag([1.0, 1.0, 0.0])
    for i, state in enumerate(states):
        meas = Measurement(agent_id=i, available=True, psi=psi,
                           y=psi @ shared[0])  # zero innovation at this state
        neighbors = [
            NeighborEstimate(neighbor_id=j, weight=1.3,
                             first_block=states[j].blocks[0])
            for j in range(3) if j != i
        ]
        delta = correction_term(state, meas, neighbors, alpha=4.0)
        assert np.max(np.abs(delta)) <= 1e-12


def test_weight_alpha_scaling_invariance():
    rng = np.random.default_rng(4)
    state = AgentState(agent_id=0, blocks=rng.normal(size=(1, 3)))
    meas = unavailable_measurement(0)
    first_blocks = [rng.normal(size=3) for _ in range(3)]
    scale = 7.5

    def corr(weights, alpha):
        neighbors = [
            NeighborEstimate(neighbor_id=j + 1, weight=w, first_block=fb)
            for j, (w, fb) in enumerate(zip(weights, first_blocks))
        ]
        return correction_term(state, meas, neighbors, alpha)

    base = corr([1.0, 2.0, 0.5], alpha=3.0)
    scaled = corr([scale * 1.0, scale * 2.0, scale * 0.5], alpha=3.0 / scale)
    assert_allclose(base, scaled, atol=1e-12)


def _unit(v):
    return v / np.linalg.norm(v)
