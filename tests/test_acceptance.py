"""Acceptance gate: one test per release criterion, each printing a pass/fail
line with its runtime. Tolerances and runtime budgets are fixed here, not
tuned elsewhere."""

import os
import time
from dataclasses import replace

import numpy as np

from contrack.config import parse_config
from contrack.dkf import run_dkf
from contrack.gains import (
    ObserverGains,
    build_qbar,
    build_transformation,
    build_xi,
    certify,
    closed_form_sigma,
    compute_mu,
    schur_pd_check,
)
from contrack.graph import build_graph, is_connected, lambda_min_positive
from contrack.linalg import is_pd, kron, sym_eigen
from contrack.observer import (
    AgentState,
    Measurement,
    NeighborEstimate,
    broadcast_payload,
    correction_term,
    observer_derivative,
)
from contrack.sim import RunLog, run
from conftest import SCENARIOS_DIR, square_projection_blocks
from oracles import sturm_eigenvalues

V_SLACK = 1e-9


def _cfg(name):
    return parse_config(os.path.join(SCENARIOS_DIR, name)).scenario


def _finish(num, label, elapsed, limit, ok, detail=""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} ({elapsed:5.1f}s < {limit:.0f}s) "
          f"{label}{': ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {label} {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_constant_velocity_certification():
    start = time.perf_counter()
    scenario = _cfg("m2_constant_velocity.cfg")
    graph = build_graph(scenario.adjacency)
    blocks = square_projection_blocks(scenario.target_blocks[0])
    report = certify(scenario.gains, graph, blocks, step=scenario.step)
    mu_gamma = compute_mu(scenario.gains) + scenario.gains.gamma
    ok = (
        report.overall
        and report.connected
        and report.alpha_ok
        and report.lmi_ok
        and report.spatial_margin > 0.0
        and mu_gamma == 0.4
    )
    _finish(1, "second-order design certifies", time.perf_counter() - start, 1.0,
            ok, f"margin={report.spatial_margin:.4f} mu+gamma={mu_gamma}")


def test_criterion_02_third_order_gain_matrix_pd():
    start = time.perf_counter()
    gains = _cfg("m3_constant_acceleration.cfg").gains
    qbar = build_qbar(gains)
    lam_impl = sym_eigen(qbar).values[0]
    lam_oracle = sturm_eigenvalues(qbar)[0]
    ok = is_pd(qbar) and abs(lam_impl - lam_oracle) <= 1e-8 and lam_impl > 0.0
    _finish(2, "third-order gain matrix is positive definite",
            time.perf_counter() - start, 1.0, ok,
            f"lambda_min={lam_impl:.6f} |impl-oracle|={abs(lam_impl - lam_oracle):.2e}")


def test_criterion_03_similarity_transform_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(500):
        order = int(rng.integers(1, 5))
        w = int(rng.integers(1, 4))
        gains = ObserverGains(
            k=tuple(rng.uniform(0.2, 10.0, size=order)),
            alpha=1.0,
            delta=rng.uniform(0.05, 2.0),
            gamma=0.1,
        )
        a = rng.normal(size=(w, w))
        phi = a @ a.T + 0.1 * np.eye(w)
        p = build_transformation(gains, w)
        residual = np.max(
            np.abs(p.matrix @ build_xi(gains, phi) @ p.inverse
                   - closed_form_sigma(gains, phi))
        )
        worst = max(worst, residual)
        if order >= 2 and w == 1:
            sig = closed_form_sigma(gains, phi)
            q = -(sig + sig.T)
            q[order - 1, order - 1] = 2.0 * gains.delta
            worst = max(worst, np.max(np.abs(q - build_qbar(gains))))
    ok = worst <= 1e-9
    _finish(3, "similarity transform suite (500 instances)",
            time.perf_counter() - start, 30.0, ok, f"worst={worst:.2e}")


def test_criterion_04_lyapunov_envelopes_noiseless():
    start = time.perf_counter()
    cv = replace(_cfg("m2_constant_velocity.cfg"), noise_std_deg=0.0)
    log_cv = run(cv)
    viol_cv = int(np.sum(log_cv.v > log_cv.v_bound + V_SLACK))

    static = replace(_cfg("m1_static.cfg"), noise_std_deg=0.0)
    log_m1 = run(static)
    viol_m1 = int(np.sum(log_m1.v > log_m1.v_bound + V_SLACK))

    ok = viol_cv == 0 and viol_m1 == 0
    _finish(4, "noiseless decay envelopes hold", time.perf_counter() - start,
            60.0, ok, f"violations cv={viol_cv} m1={viol_m1}")


def test_criterion_05_noisy_convergence_ten_seeds():
    start = time.perf_counter()
    base = _cfg("m2_constant_velocity.cfg")
    logs = run(base, range(1, 11))  # one batched call over the ten seeds
    finished = [log for log in logs if isinstance(log, RunLog)]
    worst_err = max((float(log.block_errors[-1, 0].max()) for log in finished),
                    default=np.inf)
    worst_dis = max((float(log.disagreement[-1]) for log in finished), default=np.inf)
    ok = len(finished) == 10 and worst_err < 0.05 and worst_dis < 0.01
    _finish(5, "noisy convergence over 10 seeds", time.perf_counter() - start,
            120.0, ok, f"worst_err={worst_err:.2e}m worst_disagreement={worst_dis:.2e}m")


def test_criterion_06_iss_model_mismatch():
    start = time.perf_counter()
    scenario = _cfg("m2_mismatched_iss.cfg")
    accel_norm = float(np.linalg.norm(scenario.target_blocks[2]))
    diverged = False
    try:
        log = run(scenario)
    except Exception:
        diverged = True
    if diverged:
        _finish(6, "bounded errors under model mismatch",
                time.perf_counter() - start, 60.0, False, "divergence abort")
        return
    sup_err = float(log.block_errors[:, 0, :].max())
    tail = log.block_errors[log.t >= 55.0, 0, :]
    # regression constant frozen from the first validated run (sup = 123.5*|a|)
    ok = (
        np.all(np.isfinite(log.block_errors))
        and sup_err <= 150.0 * accel_norm
        and tail.min() > 1e-3
    )
    _finish(6, "bounded errors under model mismatch",
            time.perf_counter() - start, 60.0, ok,
            f"sup={sup_err:.2f}m bound={150.0 * accel_norm:.2f}m "
            f"steady_state={tail.max():.2f}m")


def test_criterion_07_measurement_loss():
    start = time.perf_counter()
    scenario = _cfg("m2_measurement_loss.cfg")
    graph = build_graph(scenario.adjacency)

    lossy_at_start = tuple(
        i for i in range(scenario.n_agents) if not scenario.available(i, 0.0)
    )
    blocks = square_projection_blocks(scenario.target_blocks[0],
                                      lossy=lossy_at_start)
    report = certify(scenario.gains, graph, blocks, step=scenario.step)

    log = run(scenario)  # scenario is noiseless by construction
    violations = int(np.sum(log.v > log.v_bound + V_SLACK))

    three_lost = square_projection_blocks(scenario.target_blocks[0],
                                          lossy=(0, 1, 2))
    report_three = certify(scenario.gains, graph, three_lost, step=scenario.step)

    ok = (
        len(lossy_at_start) == 1
        and report.overall
        and report.spatial_margin > 0.0
        and violations == 0
        and not report_three.overall
        and report_three.spatial_margin < 0.0
        and "overall: false" in report_three.to_text()
    )
    _finish(7, "measurement-loss certification and envelope",
            time.perf_counter() - start, 60.0, ok,
            f"margin_1of4={report.spatial_margin:.4f} "
            f"margin_3of4={report_three.spatial_margin:.4f} violations={violations}")


def test_criterion_08_communication_accounting():
    start = time.perf_counter()
    scenario = replace(_cfg("m2_constant_velocity.cfg"), duration=0.05)
    obs_log = run(scenario)
    dkf_log = run_dkf(scenario, consensus_iters=2)
    obs_deltas = np.diff(obs_log.comm_floats)
    dkf_deltas = np.diff(dkf_log.comm_floats)
    ok = (
        obs_deltas.size > 0
        and np.all(obs_deltas == 3.0)
        and np.all(dkf_deltas == 84.0)
    )
    _finish(8, "communication accounting (3 vs 84 floats/step)",
            time.perf_counter() - start, 30.0, ok)


def test_criterion_09_error_dynamics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        order = int(rng.integers(1, 4))
        adjacency = rng.uniform(0.0, 1.0, size=(n, n))
        adjacency = 0.5 * (adjacency + adjacency.T)
        np.fill_diagonal(adjacency, 0.0)
        gains = ObserverGains(
            k=tuple(rng.uniform(0.2, 5.0, size=order)),
            alpha=rng.uniform(0.1, 3.0),
            delta=0.1,
            gamma=0.1,
        )
        psi = rng.normal(size=(n, 3, 3))
        psi = 0.5 * (psi + psi.transpose(0, 2, 1))
        truth = rng.normal(size=(order, 3))
        states = [AgentState(agent_id=i, blocks=rng.normal(size=(order, 3)))
                  for i in range(n)]
        truth_deriv = np.zeros_like(truth)
        truth_deriv[:-1] = truth[1:]

        parts = [[] for _ in range(order)]
        for i, state in enumerate(states):
            meas = Measurement(agent_id=i, available=True, psi=psi[i],
                               y=psi[i] @ truth[0])
            neighbors = [
                NeighborEstimate(neighbor_id=j, weight=adjacency[i, j],
                                 first_block=broadcast_payload(states[j]))
                for j in range(n) if j != i and adjacency[i, j] > 0.0
            ]
            delta = correction_term(state, meas, neighbors, gains.alpha)
            deriv = observer_derivative(state, delta, gains)
            for m in range(order):
                parts[m].append(truth_deriv[m] - deriv.blocks[m])
        error_deriv = np.concatenate([np.concatenate(p) for p in parts])

        laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
        psi_stack = np.zeros((3 * n, 3 * n))
        for i in range(n):
            psi_stack[3 * i:3 * i + 3, 3 * i:3 * i + 3] = psi[i]
        phi = psi_stack + gains.alpha * kron(laplacian, np.eye(3))
        x_tilde = np.concatenate(
            [np.concatenate([truth[m] - st.blocks[m] for st in states])
             for m in range(order)]
        )
        residual = np.max(np.abs(error_deriv - build_xi(gains, phi) @ x_tilde))
        worst = max(worst, residual)
    ok = worst <= 1e-9
    _finish(9, "error dynamics match the closed-loop form (100 instances)",
            time.perf_counter() - start, 10.0, ok, f"worst={worst:.2e}")


def test_criterion_10_graph_and_schur_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    counterexamples = 0
    fired = 0
    for _ in range(1000):
        # Laplacian properties on a random connected weighted graph.
        n = int(rng.integers(2, 11))
        adjacency = np.zeros((n, n))
        nodes = rng.permutation(n)
        for i in range(1, n):
            j = nodes[rng.integers(0, i)]
            w = rng.uniform(0.1, 3.0)
            adjacency[nodes[i], j] = adjacency[j, nodes[i]] = w
        extra = rng.uniform(size=(n, n)) < 0.2
        for i in range(n):
            for j in range(i + 1, n):
                if extra[i, j] and adjacency[i, j] == 0.0:
                    w = rng.uniform(0.1, 3.0)
                    adjacency[i, j] = adjacency[j, i] = w
        g = build_graph(adjacency)
        ones = np.ones(n)
        scale = max(1.0, np.max(np.abs(g.laplacian)))
        if np.max(np.abs(g.laplacian @ ones)) > 1e-12 * scale:
            counterexamples += 1
        if g.spectrum.values[0] < -1e-9 or abs(g.spectrum.values[0]) > 1e-9:
            counterexamples += 1
        if not is_connected(g) or lambda_min_positive(g) <= 0.0:
            counterexamples += 1
        u = g.u_matrix
        identity_gap = np.max(
            np.abs(np.outer(ones, ones) / n + u @ u.T - np.eye(n))
        )
        if identity_gap > 1e-9:
            counterexamples += 1

        # Conservative block positivity implies the exact complement.
        nb, mb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gamma = rng.uniform(0.2, 2.0)
        c_raw = rng.normal(size=(mb, mb))
        c = c_raw @ c_raw.T + (gamma + 0.05) * np.eye(mb)
        b = rng.normal(scale=rng.uniform(0.05, 1.0), size=(nb, mb))
        a_raw = rng.normal(size=(nb, nb))
        a = (a_raw @ a_raw.T) * rng.uniform(0.1, 2.0)
        if schur_pd_check(a, b, c, gamma):
            fired += 1
            exact = a - b @ np.linalg.inv(c) @ b.T
            if np.linalg.eigvalsh(exact)[0] <= 0.0:
                counterexamples += 1
    ok = counterexamples == 0 and fired > 50
    _finish(10, "graph spectral suite + conservative Schur soundness "
                "(1000 instances)", time.perf_counter() - start, 30.0, ok,
            f"counterexamples={counterexamples} conservative_hits={fired}")
