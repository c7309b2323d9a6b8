import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from contrack.gains import (
    ObserverGains,
    build_qbar,
    build_transformation,
    build_xi,
    certify,
    closed_form_sigma,
    compute_mu,
    consensus_alpha_bound,
    convergence_rate,
    rk4_stable,
    schur_pd_check,
    spatial_excitation_margin,
)
from contrack.graph import build_graph, lambda_min_positive
from contrack.linalg import is_pd, projection_matrix, sym_eigen
from contrack.sim import DivergenceError, Scenario, run
from conftest import (
    TARGET_CV_POSITION,
    gains_ca,
    gains_cv,
    square_projection_blocks,
)
from oracles import sturm_eigenvalues

positive_gain = st.floats(0.1, 20.0, allow_nan=False)


def random_gains(rng, order):
    return ObserverGains(
        k=tuple(rng.uniform(0.2, 10.0, size=order)),
        alpha=rng.uniform(0.5, 20.0),
        delta=rng.uniform(0.05, 2.0),
        gamma=rng.uniform(0.05, 0.9),
    )


def random_spd(rng, w):
    a = rng.normal(size=(w, w))
    return a @ a.T + 0.1 * np.eye(w)


def test_gains_validation():
    with pytest.raises(ValueError):
        ObserverGains(k=(), alpha=1.0, delta=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        ObserverGains(k=(1.0, -2.0), alpha=1.0, delta=0.1, gamma=0.1)
    with pytest.raises(ValueError):
        ObserverGains(k=(1.0,), alpha=0.0, delta=0.1, gamma=0.1)
    g = gains_cv()
    assert g.order == 2


def test_compute_mu_cases():
    g1 = ObserverGains(k=(2.0,), alpha=1.0, delta=0.8, gamma=0.1)
    assert compute_mu(g1) == pytest.approx(0.8, abs=0)
    assert compute_mu(gains_cv()) == pytest.approx(0.30, abs=1e-15)
    assert compute_mu(gains_ca()) == pytest.approx(0.067, abs=1e-15)


@settings(deadline=None, max_examples=50)
@given(positive_gain, positive_gain, positive_gain, st.floats(0.01, 2.0))
def test_compute_mu_matches_formula(k1, k2, alpha, delta):
    g = ObserverGains(k=(k1, k2), alpha=alpha, delta=delta, gamma=0.1)
    assert compute_mu(g) == pytest.approx((delta * k1 + k2) / k1**2, rel=1e-12)


def test_qbar_second_order_closed_form():
    assert_allclose(build_qbar(gains_cv()), 2.0 * np.diag([0.7, 0.8]), atol=1e-15)


def test_qbar_third_order_matrix():
    k1, k2, k3, delta = 10.0, 3.7, 0.5, 0.3
    expected = 2.0 * np.array(
        [
            [k3 / k2, 0.0, k3 / (2 * k2)],
            [0.0, k2 / k1 - k3 / k2, -k3 / (2 * k2)],
            [k3 / (2 * k2), -k3 / (2 * k2), delta],
        ]
    )
    assert_allclose(build_qbar(gains_ca()), expected, atol=1e-15)


def test_qbar_first_order_rejected():
    with pytest.raises(ValueError):
        build_qbar(ObserverGains(k=(1.0,), alpha=1.0, delta=0.1, gamma=0.1))


@settings(deadline=None, max_examples=60)
@given(positive_gain, positive_gain, st.floats(0.01, 3.0))
def test_qbar_second_order_always_pd(k1, k2, delta):
    g = ObserverGains(k=(k1, k2), alpha=1.0, delta=delta, gamma=0.1)
    assert is_pd(build_qbar(g))


def test_transformation_scalar_case():
    g = ObserverGains(k=(2.0,), alpha=1.0, delta=0.1, gamma=0.1)
    p = build_transformation(g, 1)
    assert_allclose(p.matrix, [[0.5]])
    assert_allclose(p.inverse, [[2.0]])


def test_transformation_second_order_closed_form():
    p = build_transformation(gains_cv(), 1)
    assert_allclose(p.matrix, [[-0.2, 1.0 / 3.5], [0.2, 0.0]], atol=1e-15)
    assert_allclose(p.inverse, [[0.0, 5.0], [3.5, 3.5]], atol=1e-15)


def test_transformation_third_order_inverse_identity():
    p = build_transformation(gains_ca(), 1)
    assert np.max(np.abs(p.matrix @ p.inverse - np.eye(3))) <= 1e-12


def test_transformation_block_sparsity_fourth_order():
    k = (4.0, 3.0, 2.0, 1.0)
    g = ObserverGains(k=k, alpha=1.0, delta=0.1, gamma=0.1)
    w = 2
    p = build_transformation(g, w).matrix
    eye = np.eye(w)

    def block(i, j):
        return p[i * w:(i + 1) * w, j * w:(j + 1) * w]

    expected = {
        (0, 2): -eye / k[2],
        (0, 3): eye / k[3],
        (1, 1): -eye / k[1],
        (1, 2): eye / k[2],
        (2, 0): -eye / k[0],
        (2, 1): eye / k[1],
        (3, 0): eye / k[0],
    }
    for i in range(4):
        for j in range(4):
            want = expected.get((i, j), np.zeros((w, w)))
            assert_allclose(block(i, j), want, atol=1e-15, err_msg=f"block {(i, j)}")


def test_xi_structure():
    g1 = ObserverGains(k=(3.0,), alpha=1.0, delta=0.1, gamma=0.1)
    phi = np.array([[2.0]])
    assert_allclose(build_xi(g1, phi), [[-6.0]])

    xi = build_xi(gains_cv(), np.array([[1.0]]))
    assert_allclose(xi, [[-5.0, 1.0], [-3.5, 0.0]])

    g3 = gains_ca()
    w = 2
    phi = random_spd(np.random.default_rng(3), w)
    xi = build_xi(g3, phi)
    for row in range(3):
        assert_allclose(xi[row * w:(row + 1) * w, 0:w], -g3.k[row] * phi)
    assert_allclose(xi[0:w, w:2 * w], np.eye(w))
    assert_allclose(xi[w:2 * w, 2 * w:3 * w], np.eye(w))
    assert_allclose(xi[0:w, 2 * w:3 * w], np.zeros((w, w)))
    assert_allclose(xi[2 * w:3 * w, w:3 * w], np.zeros((w, 2 * w)))


def test_sigma_scalar_and_second_order():
    g1 = ObserverGains(k=(2.0,), alpha=1.0, delta=0.1, gamma=0.1)
    assert_allclose(closed_form_sigma(g1, np.eye(1)), -2.0 * np.eye(1))

    sig = closed_form_sigma(gains_cv(), np.array([[1.0]]))
    assert_allclose(sig, [[-0.7, -0.7], [0.7, 0.7 - 5.0]], atol=1e-15)


def test_sigma_similarity_property():
    rng = np.random.default_rng(11)
    for _ in range(40):
        order = int(rng.integers(1, 5))
        w = int(rng.integers(1, 4))
        g = random_gains(rng, order)
        phi = random_spd(rng, w)
        p = build_transformation(g, w)
        lhs = p.matrix @ build_xi(g, phi) @ p.inverse
        rhs = closed_form_sigma(g, phi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_qbar_sigma_consistency():
    # The constant stability matrix is the symmetrized transformed dynamics
    # with the trailing time-varying entry pinned at delta.
    rng = np.random.default_rng(5)
    for _ in range(30):
        order = int(rng.integers(2, 5))
        g = random_gains(rng, order)
        phi = np.array([[rng.uniform(0.5, 3.0)]])
        sig = closed_form_sigma(g, phi)
        q = -(sig + sig.T)
        q[order - 1, order - 1] = 2.0 * g.delta
        assert np.max(np.abs(q - build_qbar(g))) <= 1e-12


def test_spatial_margin_two_axes():
    blocks = [projection_matrix([1.0, 0.0, 0.0]), projection_matrix([0.0, 1.0, 0.0])]
    margin = spatial_excitation_margin(blocks, mu=0.3, gamma=0.1)
    assert margin == pytest.approx(0.1, abs=1e-12)


def test_spatial_margin_shared_nullspace():
    b = np.array([0.3, -0.5, 0.81])
    b /= np.linalg.norm(b)
    blocks = [projection_matrix(b)] * 4
    assert spatial_excitation_margin(blocks, mu=0.05, gamma=0.05) < 0.0


def test_spatial_margin_square_formation():
    blocks = square_projection_blocks(TARGET_CV_POSITION)
    margin = spatial_excitation_margin(blocks, mu=0.3, gamma=0.1)
    oracle = np.linalg.eigvalsh(np.mean(blocks, axis=0))[0] - 0.4
    assert margin > 0.0
    assert margin == pytest.approx(oracle, abs=1e-10)


def test_alpha_bound_bearing_values():
    assert consensus_alpha_bound(0.3, 0.1, 2.0) == pytest.approx(4.65, abs=1e-12)
    assert consensus_alpha_bound(0.8, 0.1, 2.0) == pytest.approx(4.90, abs=1e-12)


def test_alpha_bound_general_equals_bearing_for_projectors():
    rng = np.random.default_rng(2)
    blocks = []
    for _ in range(3):
        b = rng.normal(size=3)
        blocks.append(projection_matrix(b / np.linalg.norm(b)))
    blocks.append(np.zeros((3, 3)))  # agent without measurement
    general = consensus_alpha_bound(0.3, 0.1, 2.0, blocks)
    assert general == pytest.approx(consensus_alpha_bound(0.3, 0.1, 2.0), rel=1e-9)


def test_alpha_bound_monotonicity():
    base = consensus_alpha_bound(0.3, 0.1, 2.0)
    assert consensus_alpha_bound(0.3, 0.1, 4.0) < base
    assert consensus_alpha_bound(0.5, 0.1, 2.0) > base
    assert consensus_alpha_bound(0.3, 0.2, 2.0) < base  # larger gamma, smaller 1/gamma


def test_alpha_bound_validation():
    with pytest.raises(ValueError):
        consensus_alpha_bound(0.3, 0.0, 2.0)
    with pytest.raises(ValueError):
        consensus_alpha_bound(0.3, 0.1, 0.0)


def test_certify_constant_velocity_design(square_graph):
    report = certify(gains_cv(), square_graph, square_projection_blocks(TARGET_CV_POSITION),
                     step=1e-3)
    assert report.connected
    assert report.mu == pytest.approx(0.3, abs=1e-15)
    assert report.spatial_margin > 0.0
    assert report.alpha_bound == pytest.approx(4.65, abs=1e-9)
    assert report.alpha_ok
    assert report.qbar_lambda_min == pytest.approx(1.4, abs=1e-12)
    assert report.lmi_ok
    assert report.rate_bound == pytest.approx(0.7, abs=1e-12)
    assert report.overall


def test_certify_third_order_lmi(square_graph):
    report = certify(gains_ca(), square_graph, square_projection_blocks(TARGET_CV_POSITION),
                     step=1e-3)
    assert report.lmi_ok
    oracle = sturm_eigenvalues(build_qbar(gains_ca()))[0]
    assert report.qbar_lambda_min == pytest.approx(oracle, abs=1e-8)


def test_certify_identical_bearings_fails(square_graph):
    b = np.array([0.0, 1.0, 0.0])
    blocks = [projection_matrix(b)] * 4
    report = certify(gains_cv(), square_graph, blocks, step=1e-3)
    assert report.spatial_margin < 0.0
    assert not report.overall


def test_certify_first_order_report(square_graph):
    g = ObserverGains(k=(5.0,), alpha=15.9, delta=0.3, gamma=0.1)
    report = certify(g, square_graph, square_projection_blocks(TARGET_CV_POSITION),
                     step=1e-3)
    assert report.qbar_lambda_min is None
    assert report.lmi_ok
    assert report.rate_bound == pytest.approx(1.5, abs=1e-12)
    assert report.overall


def test_certify_dimension_mismatch(square_graph):
    with pytest.raises(ValueError):
        certify(gains_cv(), square_graph, square_projection_blocks(TARGET_CV_POSITION)[:3],
                step=1e-3)


def test_certify_report_serialization(square_graph):
    report = certify(gains_cv(), square_graph, square_projection_blocks(TARGET_CV_POSITION),
                     step=1e-3)
    text = report.to_text()
    assert "overall: true" in text
    assert "spatial_margin:" in text
    data = report.to_dict()
    assert set(data) == {
        "connected", "mu", "spatial_margin", "alpha_bound", "alpha_ok",
        "qbar_lambda_min", "lmi_ok", "rate_bound", "step_ok", "overall",
    }
    assert '"overall": true' in report.to_json()


def test_convergence_rate():
    assert convergence_rate(
        ObserverGains(k=(5.0,), alpha=1.0, delta=0.3, gamma=0.1)
    ) == pytest.approx(1.5)
    assert convergence_rate(gains_cv()) == pytest.approx(0.7, abs=1e-12)


def test_schur_check_decoupled_blocks():
    assert schur_pd_check(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2), 1.0)


def test_schur_check_conservative_agreement():
    a = np.diag([0.5, 0.5])
    b = np.eye(2)
    c = 2.0 * np.eye(2)
    assert not schur_pd_check(a, b, c, 1.0)
    exact = a - b @ np.linalg.inv(c) @ b.T
    assert np.linalg.eigvalsh(exact)[0] <= 0.0  # exact complement agrees here


def test_schur_check_hypothesis_violation():
    with pytest.raises(ValueError):
        schur_pd_check(np.eye(2), np.zeros((2, 2)), 0.5 * np.eye(2), 1.0)


def test_transformed_blocks_and_certification_chain():
    # The certification conditions are conservative sufficient tests for the
    # matrix inequality Psi + alpha L (x) I > mu I. Verify the block
    # decomposition of the graph-aligned transform and, whenever a random
    # configuration certifies, the inequality itself.
    from contrack.graph import build_graph, lambda_min_positive
    from test_graph import random_connected_adjacency

    rng = np.random.default_rng(31)
    certified = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        graph = build_graph(random_connected_adjacency(rng, n))
        blocks = []
        for _ in range(n):
            if rng.uniform() < 0.15:
                blocks.append(np.zeros((3, 3)))
            else:
                b = rng.normal(size=3)
                blocks.append(projection_matrix(b / np.linalg.norm(b)))
        k = (rng.uniform(3.0, 8.0), rng.uniform(0.5, 2.5))
        delta = rng.uniform(0.02, 0.12)
        gamma = rng.uniform(0.05, 0.15)
        mu = (delta * k[0] + k[1]) / k[0] ** 2
        # alpha drawn above its bound so the certified branch is exercised
        # whenever the sampled geometry provides spatial excitation
        lam2 = lambda_min_positive(graph)
        bound_guess = (mu + 1.0 / gamma - 1.0) / lam2
        gains = ObserverGains(
            k=k, alpha=bound_guess * rng.uniform(1.1, 3.0),
            delta=delta, gamma=gamma,
        )
        psi = np.zeros((3 * n, 3 * n))
        for i, blk in enumerate(blocks):
            psi[3 * i:3 * i + 3, 3 * i:3 * i + 3] = blk
        phi = psi + gains.alpha * np.kron(graph.laplacian, np.eye(3))

        # Block structure of (V^T (x) I)(Phi - mu I)(V (x) I).
        v_kron = np.kron(graph.spectrum.vectors, np.eye(3))
        transformed = v_kron.T @ (phi - mu * np.eye(3 * n)) @ v_kron
        ones_kron = np.kron(np.ones((n, 1)), np.eye(3))
        u_kron = np.kron(graph.u_matrix, np.eye(3))
        top_left = np.mean(blocks, axis=0) - mu * np.eye(3)
        top_right = ones_kron.T @ psi @ u_kron / np.sqrt(n)
        bottom = (
            gains.alpha * np.kron(np.diag(graph.positive_eigenvalues), np.eye(3))
            - mu * np.eye(3 * (n - 1))
            + u_kron.T @ psi @ u_kron
        )
        assert np.max(np.abs(transformed[:3, :3] - top_left)) <= 1e-9
        assert np.max(np.abs(transformed[:3, 3:] - top_right)) <= 1e-9
        assert np.max(np.abs(transformed[3:, 3:] - bottom)) <= 1e-9

        report = certify(gains, graph, blocks, step=1e-3)
        if report.overall:
            certified += 1
            lam = lambda_min_positive(graph)
            assert lam > 0.0
            assert sym_eigen(phi).values[0] > mu - 1e-12
    assert certified > 5  # the sample must exercise the certified branch


def test_schur_check_soundness_sampled():
    # One-way implication: whenever the conservative test passes, the exact
    # Schur complement is positive definite.
    rng = np.random.default_rng(123)
    fired = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gamma = rng.uniform(0.2, 2.0)
        c = random_spd(rng, m) + gamma * np.eye(m)
        b = rng.normal(scale=rng.uniform(0.05, 1.0), size=(n, m))
        a = random_spd(rng, n) * rng.uniform(0.1, 2.0)
        if schur_pd_check(a, b, c, gamma):
            fired += 1
            exact = a - b @ np.linalg.inv(c) @ b.T
            assert np.linalg.eigvalsh(exact)[0] > 0.0
    assert fired > 20  # the sample must actually exercise the implication


def circle_swarm(n, neighbours):
    """n static agents on a circle above the constant-velocity target, every
    bearing at the elevation where the mean projector is (2/3) I, on a
    circulant graph; alpha is 1.2 times the projector-form bound."""
    a = np.zeros((n, n))
    idx = np.arange(n)
    for k in range(1, neighbours + 1):
        a[idx, (idx + k) % n] = a[(idx + k) % n, idx] = 1.0
    graph = build_graph(a)
    mu = compute_mu(gains_cv())
    bound = consensus_alpha_bound(mu, 0.1, lambda_min_positive(graph))
    gains = ObserverGains(k=(5.0, 3.5), alpha=1.2 * bound, delta=0.8, gamma=0.1)
    phases = 2.0 * np.pi * idx / n
    agents = np.stack([20.0 * np.cos(phases), 20.0 * np.sin(phases),
                       np.full(n, 20.0 * np.sqrt(0.5))], axis=1) + TARGET_CV_POSITION
    blocks = []
    for p in agents:
        d = TARGET_CV_POSITION - p
        blocks.append(projection_matrix(d / np.linalg.norm(d)))
    return gains, graph, agents, blocks, bound


def test_certify_rejects_a_step_rk4_cannot_integrate():
    # k1 alpha lambda_max(L) h = 6.17, past RK4's real-axis limit of 2.785:
    # every other condition holds, and the run diverges within a few steps.
    gains, graph, agents, blocks, bound = circle_swarm(256, 10)
    assert bound == pytest.approx(40.2, abs=0.05)
    report = certify(gains, graph, blocks, step=1e-3)
    assert report.step_ok is False
    assert not report.overall
    assert '"step_ok": false' in report.to_json()
    assert certify(gains, graph, blocks, step=4e-4).overall

    scenario = Scenario(gains=gains, adjacency=graph.adjacency,
                        agent_paths=tuple(agents),
                        target_blocks=np.array([TARGET_CV_POSITION, [0.0, 0.5, 0.0]]),
                        step=1e-3, duration=0.02, seed=1, noise_std_deg=0.0)
    with pytest.raises(DivergenceError) as err:
        run(scenario)
    assert err.value.time == pytest.approx(0.006)


def test_certify_step_check_passes_the_128_agent_swarm():
    gains, graph, _agents, blocks, _bound = circle_swarm(128, 8)
    lambda_max = graph.spectrum.values[-1]
    assert gains.k[0] * gains.alpha * lambda_max * 1e-3 == pytest.approx(2.37, abs=0.01)
    assert certify(gains, graph, blocks, step=1e-3).overall


@pytest.mark.parametrize("order", [1, 2, 3])
def test_rk4_stable_at_the_real_axis_limit(order):
    # A first-order chain has the single mode s = -k1 (alpha lambda_max + 1);
    # RK4's real stability interval ends at about -2.7853.
    gains = ObserverGains(k=(1.0,) + (1e-6,) * (order - 1), alpha=1.0,
                          delta=0.5, gamma=0.1)
    assert rk4_stable(gains, 1.0, 2.78 / 2.0)
    assert not rk4_stable(gains, 1.0, 2.79 / 2.0)
