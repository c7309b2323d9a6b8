"""Consensus-on-information distributed Kalman filter baseline.

A standard information-form filter for a constant-velocity target: each agent
adds its local measurement information, the network averages information
pairs with Metropolis weights for a fixed number of consensus rounds, and the
pair is propagated through the exactly discretized double integrator. Used as
the communication-cost and convergence comparison point for the proposed
observer; it is deliberately a textbook baseline, not a contribution.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import CommGraph, build_graph
from .linalg import symmetrize
from .sim import (
    K_DIM,
    Scenario,
    _init_draws,
    _initial_positions,
    _measurement_arrays,
    dkf_floats_per_step,
    measurement_stream,
)

STATE_DIM = 6

# Baseline tuning: per-step process noise, bearing pseudo-measurement noise,
# and initial information weight.
PROCESS_NOISE = np.eye(STATE_DIM)
MEASUREMENT_NOISE = 0.01 * np.eye(K_DIM)
INITIAL_INFORMATION = np.eye(STATE_DIM)


@dataclass(frozen=True)
class InformationPair:
    """Information matrix / vector pair describing one agent's posterior."""

    omega: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        omega = symmetrize(self.omega)
        q = np.asarray(self.q, dtype=float)
        if omega.shape != (STATE_DIM, STATE_DIM) or q.shape != (STATE_DIM,):
            raise ValueError("information pair must be 6x6 and 6")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "q", q)


def metropolis_weights(adjacency) -> np.ndarray:
    """Doubly stochastic averaging weights from vertex degrees."""
    a = np.asarray(adjacency, dtype=float)
    linked = a > 0.0
    degrees = linked.sum(axis=1)
    np.fill_diagonal(linked, False)
    w = np.where(
        linked, 1.0 / (1.0 + np.maximum(degrees[:, None], degrees[None, :])), 0.0
    )
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def transition_matrix(h: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[:K_DIM, K_DIM:] = h * np.eye(K_DIM)
    return f


def _solve_information(omegas, qs) -> np.ndarray:
    # Batched over the leading axis; fails loudly when information is singular.
    try:
        return np.linalg.solve(omegas, qs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "insufficient information: singular information matrix"
        ) from exc


def extract_estimate(pair: InformationPair) -> np.ndarray:
    """Posterior state estimate; fails loudly when information is singular."""
    return _solve_information(pair.omega[None], pair.q[None])[0]


def _symmetrize_stack(mats):
    return 0.5 * (mats + mats.transpose(0, 2, 1))


def dkf_step(pairs, measurements, consensus_iters: int, graph: CommGraph, h: float,
             weights=None):
    """One filter cycle: local information update, consensus rounds, prediction.

    measurements is a sequence of (psi, y) per agent, with zero pairs for
    agents lacking a measurement. weights are the graph's Metropolis weights;
    a run passes them so they are built once, not on every step. Returns the
    propagated pairs and the post-consensus state estimates.
    """
    if consensus_iters < 1:
        raise ValueError("need at least one consensus iteration")
    n = graph.n_agents
    if len(pairs) != n or len(measurements) != n:
        raise ValueError("pairs and measurements must cover every agent")
    if weights is None:
        weights = metropolis_weights(graph.adjacency)

    r_inv = np.linalg.inv(MEASUREMENT_NOISE)
    hmat = np.zeros((n, K_DIM, STATE_DIM))
    hmat[:, :, :K_DIM] = [psi for psi, _ in measurements]
    y = np.array([y for _, y in measurements], dtype=float)
    ht_rinv = hmat.transpose(0, 2, 1) @ r_inv
    omegas = np.array([p.omega for p in pairs]) + ht_rinv @ hmat
    qs = np.array([p.q for p in pairs]) + (ht_rinv @ y[:, :, None])[:, :, 0]

    for _ in range(consensus_iters):
        omegas = (weights @ omegas.reshape(n, -1)).reshape(omegas.shape)
        qs = weights @ qs

    omegas = _symmetrize_stack(omegas)
    estimates = _solve_information(omegas, qs)
    f = transition_matrix(h)
    cov = f @ np.linalg.inv(omegas) @ f.T + PROCESS_NOISE
    omega_next = _symmetrize_stack(np.linalg.inv(_symmetrize_stack(cov)))
    q_next = (omega_next @ (f @ estimates[:, :, None]))[:, :, 0]
    out = [InformationPair(omega=o, q=q) for o, q in zip(omega_next, q_next)]
    return out, estimates


@dataclass(frozen=True)
class DkfLog:
    """Time series from a baseline run, schema-compatible with the observer log."""

    t: np.ndarray
    pos_errors: np.ndarray
    vel_errors: np.ndarray
    comm_floats: np.ndarray
    bearings: np.ndarray
    available: np.ndarray
    bearing_checksum: str

    @property
    def n_agents(self) -> int:
        return self.pos_errors.shape[1]


def run_dkf(scenario: Scenario, consensus_iters: int = 2) -> DkfLog:
    """Run the baseline on a scenario, consuming the scenario's measurement
    stream exactly as the observer run does (shared seed, shared stream)."""
    g = build_graph(scenario.adjacency)
    n = g.n_agents
    h = scenario.step
    n_rows = scenario.n_steps + 1

    rng = np.random.default_rng(scenario.seed)
    radii, fallback = _init_draws(rng, n, scenario.init_range)

    t_arr = np.empty(n_rows)
    pos_err = np.empty((n_rows, n))
    vel_err = np.empty((n_rows, n))
    comm = np.empty(n_rows)
    bearings_log = np.empty((n_rows, n, K_DIM))
    avail_log = np.empty((n_rows, n), dtype=bool)

    per_step = dkf_floats_per_step(STATE_DIM, consensus_iters)
    weights = metropolis_weights(g.adjacency)
    pairs = None
    stream = measurement_stream(scenario, rng, n_rows)
    for s, (t, positions, truth_now, bearings, avail, _theta, _phase) in enumerate(
        stream
    ):
        if s == 0:
            p_init = _initial_positions(positions, bearings, avail, radii, fallback,
                                        scenario.init_average)
            pairs = []
            for i in range(n):
                x0 = np.concatenate([p_init[i], np.zeros(K_DIM)])
                pairs.append(
                    InformationPair(
                        omega=INITIAL_INFORMATION.copy(),
                        q=INITIAL_INFORMATION @ x0,
                    )
                )

        psi, y = _measurement_arrays(positions, bearings, avail)
        pairs, estimates = dkf_step(
            pairs, list(zip(psi, y)), consensus_iters, g, h, weights
        )

        truth_pos = truth_now[0]
        truth_vel = truth_now[1] if truth_now.shape[0] > 1 else np.zeros(K_DIM)
        t_arr[s] = t
        pos_err[s] = np.linalg.norm(estimates[:, :K_DIM] - truth_pos[None, :], axis=1)
        vel_err[s] = np.linalg.norm(estimates[:, K_DIM:] - truth_vel[None, :], axis=1)
        comm[s] = s * per_step
        bearings_log[s] = bearings
        avail_log[s] = avail

    checksum = hashlib.sha256(
        bearings_log.tobytes() + avail_log.tobytes()
    ).hexdigest()
    return DkfLog(
        t=t_arr,
        pos_errors=pos_err,
        vel_errors=vel_err,
        comm_floats=comm,
        bearings=bearings_log,
        available=avail_log,
        bearing_checksum=checksum,
    )


def dkf_log_to_csv(log: DkfLog) -> str:
    """CSV with the observer schema's shared columns (errors and comm cost)."""
    n = log.n_agents
    cols = ["t"]
    cols += [f"err_pos_agent{i + 1}" for i in range(n)]
    cols += [f"err_vel_agent{i + 1}" for i in range(n)]
    cols += ["comm_floats"]
    lines = [",".join(cols)]
    for s in range(log.t.size):
        row = [f"{log.t[s]:.12g}"]
        row += [f"{log.pos_errors[s, i]:.12g}" for i in range(n)]
        row += [f"{log.vel_errors[s, i]:.12g}" for i in range(n)]
        row.append(f"{log.comm_floats[s]:.12g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
