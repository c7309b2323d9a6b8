"""Consensus-on-information distributed Kalman filter baseline.

A standard information-form filter for a constant-velocity target: each agent
adds its local measurement information, the network averages the information
stacks with Metropolis weights for a fixed number of consensus rounds, and the
result is propagated through the exactly discretized double integrator. Used
as the communication-cost and convergence comparison point for the proposed
observer; it is deliberately a textbook baseline, not a contribution.

The filter works on (n, 6, 6) information matrices and (n, 6) information
vectors for all agents at once. The k consensus rounds are one product with
the mixing matrix W^k, built once per run. The prediction uses the Woodbury
form of (F Omega^-1 F^T + Q)^-1,

    Omega' = Q^-1 - Q^-1 F (Omega + F^T Q^-1 F)^-1 F^T Q^-1,

for a general process noise Q, with Q^-1, Q^-1 F and F^T Q^-1 F built once
per run. By the push-through identity q' = Omega' F Omega^-1 q equals
Q^-1 F (Omega + F^T Q^-1 F)^-1 q, so q is a seventh right-hand-side column
of the prediction's one solve. Omega + F^T Q^-1 F is positive definite
whenever Omega is positive semidefinite, so only the estimate solve
x = Omega^-1 q can meet a singular matrix; a run makes it once per chunk of
the measurement stream the observer run() integrates on, over the chunk's
post-consensus stacks, after building the local information of every sample
in the chunk at once.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import build_graph
from .sim import (
    K_DIM,
    Scenario,
    _init_draws,
    _initial_positions,
    _measurement_arrays,
    _stream_chunks,
    dkf_floats_per_step,
)

STATE_DIM = 6

# Baseline tuning: per-step process noise, bearing pseudo-measurement noise,
# and initial information weight.
PROCESS_NOISE = np.eye(STATE_DIM)
MEASUREMENT_NOISE = 0.01 * np.eye(K_DIM)
INITIAL_INFORMATION = np.eye(STATE_DIM)


class BaselineFailure(RuntimeError):
    """The baseline cannot go on: a singular information matrix or a
    non-finite estimate; carries the failing time."""

    def __init__(self, time: float, reason: str):
        super().__init__(f"{reason} at t={time:.6f} s")
        self.time = time


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


def mixing_matrix(adjacency, consensus_iters: int) -> np.ndarray:
    """W^k: the k consensus rounds with Metropolis weights W as one matrix."""
    if consensus_iters < 1:
        raise ValueError("need at least one consensus iteration")
    return np.linalg.matrix_power(metropolis_weights(adjacency), consensus_iters)


def transition_matrix(h: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[:K_DIM, K_DIM:] = h * np.eye(K_DIM)
    return f


def prediction_terms(h: float):
    """(Q^-1, Q^-1 F, F^T Q^-1 F) of the Woodbury prediction at step h."""
    f = transition_matrix(h)
    q_inv = np.linalg.inv(PROCESS_NOISE)
    q_inv_f = q_inv @ f
    return q_inv, q_inv_f, f.T @ q_inv_f


def local_information(psi, y):
    """H^T R^-1 H and H^T R^-1 y of the position measurements H = [psi 0],
    batched over the leading axes of psi (..., K_DIM, K_DIM) and y
    (..., K_DIM); an agent without a measurement has zero psi and y."""
    ht_rinv = psi.swapaxes(-1, -2) @ np.linalg.inv(MEASUREMENT_NOISE)
    omegas = np.zeros(psi.shape[:-2] + (STATE_DIM, STATE_DIM))
    qs = np.zeros(psi.shape[:-2] + (STATE_DIM,))
    omegas[..., :K_DIM, :K_DIM] = ht_rinv @ psi
    qs[..., :K_DIM] = (ht_rinv @ y[..., None])[..., 0]
    return omegas, qs


def dkf_step(omegas, qs, local_omegas, local_qs, mixing, prediction):
    """One filter cycle of every agent: local information update, consensus
    rounds, prediction.

    omegas (n, 6, 6) and qs (n, 6) are the prior information stacks,
    local_omegas and local_qs the agents' measurement information (see
    local_information), mixing the consensus matrix W^k (see mixing_matrix)
    and prediction the terms of prediction_terms. Returns the predicted
    stacks and the post-consensus stacks (see state_estimates).
    """
    n = len(omegas)
    if (local_omegas.shape != omegas.shape or local_qs.shape != qs.shape
            or mixing.shape != (n, n)):
        raise ValueError("information stacks, measurements and mixing matrix "
                         "must cover every agent")
    q_inv, q_inv_f, ft_q_inv_f = prediction
    omegas = (mixing @ (omegas + local_omegas).reshape(n, -1)).reshape(omegas.shape)
    qs = mixing @ (qs + local_qs)
    rhs = np.empty(qs.shape + (STATE_DIM + 1,))
    rhs[..., :STATE_DIM] = q_inv_f.T
    rhs[..., STATE_DIM] = qs
    pushed = q_inv_f @ np.linalg.solve(omegas + ft_q_inv_f, rhs)
    omega_next = q_inv - pushed[..., :STATE_DIM]
    omega_next = 0.5 * (omega_next + omega_next.transpose(0, 2, 1))
    return omega_next, pushed[..., STATE_DIM], omegas, qs


def state_estimates(omegas, qs):
    """x = Omega^-1 q of information stacks (..., 6, 6) and (..., 6), in one
    batched solve. A singular information matrix raises LinAlgError."""
    try:
        return np.linalg.solve(omegas, qs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "insufficient information: singular information matrix"
        ) from exc


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
    stream exactly as the observer run does (shared seed, shared stream).

    Raises BaselineFailure at the first sample whose information matrix is
    singular or whose estimates are not finite.
    """
    g = build_graph(scenario.adjacency)
    n = g.n_agents
    n_rows = scenario.n_steps + 1
    mixing = mixing_matrix(g.adjacency, consensus_iters)
    prediction = prediction_terms(scenario.step)

    rng = np.random.default_rng(scenario.seed)
    radii, fallback = _init_draws(rng, n, scenario.init_range)

    pos_err = np.empty((n_rows, n))
    vel_err = np.empty((n_rows, n))
    bearings_log = np.empty((n_rows, n, K_DIM))
    avail_log = np.empty((n_rows, n), dtype=bool)

    omegas = qs = None
    # A diverging filter may overflow before the finiteness check sees it;
    # that check, not numpy warnings, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _stream_chunks(scenario, [rng], n_rows):
            bearings = chunk.bearings[0]
            if omegas is None:
                x0 = np.zeros((n, STATE_DIM))
                x0[:, :K_DIM] = _initial_positions(
                    chunk.positions[0], bearings[0], chunk.avail[0], radii,
                    fallback, scenario.init_average,
                )
                omegas = np.broadcast_to(INITIAL_INFORMATION,
                                         (n, STATE_DIM, STATE_DIM))
                qs = x0 @ INITIAL_INFORMATION.T
            local_omegas, local_qs = local_information(
                *_measurement_arrays(chunk.positions, bearings, chunk.avail)
            )
            post_omegas = np.empty((chunk.size, n, STATE_DIM, STATE_DIM))
            post_qs = np.empty((chunk.size, n, STATE_DIM))
            for row in range(chunk.size):
                omegas, qs, post_omegas[row], post_qs[row] = dkf_step(
                    omegas, qs, local_omegas[row], local_qs[row], mixing, prediction,
                )
            try:
                history = state_estimates(post_omegas, post_qs)
            except np.linalg.LinAlgError as exc:
                # The first sample whose solve fails on its own names the time.
                for row in range(chunk.size):
                    try:
                        state_estimates(post_omegas[row], post_qs[row])
                    except np.linalg.LinAlgError:
                        raise BaselineFailure(float(chunk.times[row]), str(exc)) from exc
                raise
            finite = np.isfinite(history).all(axis=(1, 2))
            if not finite.all():
                raise BaselineFailure(float(chunk.times[np.argmin(finite)]),
                                      "non-finite estimate")

            rows = slice(chunk.first, chunk.first + chunk.size)
            truth = chunk.truth
            truth_vel = (truth[:, 1] if truth.shape[1] > 1
                         else np.zeros((chunk.size, K_DIM)))
            pos_err[rows] = np.linalg.norm(
                history[..., :K_DIM] - truth[:, None, 0], axis=-1
            )
            vel_err[rows] = np.linalg.norm(
                history[..., K_DIM:] - truth_vel[:, None], axis=-1
            )
            bearings_log[rows] = bearings
            avail_log[rows] = chunk.avail

    per_step = dkf_floats_per_step(STATE_DIM, consensus_iters)
    return DkfLog(
        t=np.arange(n_rows) * scenario.step,
        pos_errors=pos_err,
        vel_errors=vel_err,
        comm_floats=np.arange(n_rows) * float(per_step),
        bearings=bearings_log,
        available=avail_log,
        bearing_checksum=hashlib.sha256(
            bearings_log.tobytes() + avail_log.tobytes()
        ).hexdigest(),
    )
