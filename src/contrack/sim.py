"""Deterministic simulation engine for the distributed observer.

A run couples truth propagation, noisy bearing generation with per-agent loss
schedules, joint fixed-step integration of all observers, and the runtime
monitors: per-block error norms, the transformed-error Lyapunov value against
its certified envelope, the spatial-excitation eigenvalue, consensus
disagreement, and communication cost. Identical scenario + seed gives a
bit-identical log.

Integration semantics: the target truth and all observers form one coupled
ODE integrated jointly, so bearing geometry is evaluated at the
integrator's stage times (the continuous-time model the stability envelope
speaks about). The noise rotation, the loss mask, and the agent positions
are sampled once per step and held.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import constants
from .gains import ObserverGains, build_transformation, convergence_rate
from .graph import build_graph
from .linalg import rk4_step

K_DIM = 3


class DivergenceError(RuntimeError):
    """Observer state blew past the divergence limit; carries the failing time."""

    def __init__(self, time: float):
        super().__init__(f"simulation diverged at t={time:.6f} s")
        self.time = time


@dataclass(frozen=True)
class AgentPath:
    """Piecewise-linear agent trajectory; a single waypoint means static."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape != (times.size, K_DIM):
            raise ValueError(
                f"waypoints must be ({times.size}, {K_DIM}), got {points.shape}"
            )
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @staticmethod
    def static(position) -> "AgentPath":
        return AgentPath(times=np.zeros(1), points=np.reshape(position, (1, K_DIM)))

    @property
    def is_static(self) -> bool:
        return self.times.size == 1

    def position(self, t: float) -> np.ndarray:
        if self.is_static:
            return self.points[0].copy()
        return np.array(
            [np.interp(t, self.times, self.points[:, d]) for d in range(K_DIM)]
        )


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description.

    target_blocks stacks the target's initial position and derivatives (one
    row per integrator level, metres and metric derivatives); its row count
    may differ from the observer order in gains (model-mismatch studies).
    target_input optionally drives the target's top derivative: a constant
    3-vector or a callable t -> 3-vector. loss_schedule holds, per agent, a
    tuple of (start, end) unavailability intervals in seconds.
    """

    gains: ObserverGains
    adjacency: np.ndarray
    agent_paths: tuple
    target_blocks: np.ndarray
    step: float
    duration: float
    seed: int
    noise_std_deg: float = 0.0
    target_input: object = None
    loss_schedule: tuple = ()
    init_range: tuple = (5.0, 30.0)
    init_average: bool = False

    def __post_init__(self):
        adjacency = np.asarray(self.adjacency, dtype=float)
        target = np.atleast_2d(np.asarray(self.target_blocks, dtype=float))
        paths = tuple(
            p if isinstance(p, AgentPath) else AgentPath.static(p)
            for p in self.agent_paths
        )
        if self.step <= 0.0:
            raise ValueError("integration step must be positive")
        if self.duration < self.step:
            raise ValueError("duration must cover at least one step")
        if self.noise_std_deg < 0.0:
            raise ValueError("bearing noise std must be nonnegative")
        if target.shape[1] != K_DIM:
            raise ValueError(f"target blocks must have {K_DIM} columns")
        n = adjacency.shape[0]
        if len(paths) != n:
            raise ValueError(f"{len(paths)} agent paths for a {n}-vertex graph")
        loss = tuple(
            tuple(tuple(map(float, iv)) for iv in per_agent)
            for per_agent in self.loss_schedule
        )
        if loss and len(loss) != n:
            raise ValueError("loss schedule must list every agent (may be empty)")
        lo, hi = self.init_range
        if not (0.0 < lo <= hi):
            raise ValueError("init range must satisfy 0 < lo <= hi")
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "target_blocks", target)
        object.__setattr__(self, "agent_paths", paths)
        object.__setattr__(self, "loss_schedule", loss)
        object.__setattr__(self, "init_range", (float(lo), float(hi)))

    @property
    def n_agents(self) -> int:
        return self.adjacency.shape[0]

    def available(self, agent: int, t: float) -> bool:
        return bool(self.availability([t])[0, agent])

    def availability(self, times) -> np.ndarray:
        """Measurement availability of every agent at every time, (len(times), n)."""
        times = np.asarray(times, dtype=float)
        avail = np.ones((times.size, self.n_agents), dtype=bool)
        for i, intervals in enumerate(self.loss_schedule):
            for start, end in intervals:
                avail[:, i] &= ~((start <= times) & (times < end))
        return avail

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class RunLog:
    """Per-step time series produced by run(); immutable once built.

    block_errors[s, m, i] is agent i's error norm on block m at step s.
    comm_floats is the cumulative float count broadcast per agent. bearings
    and available record the sampled measurement stream so monitors can be
    recomputed independently.
    """

    t: np.ndarray
    block_errors: np.ndarray
    v: np.ndarray
    v_bound: np.ndarray
    lambda_min_spatial: np.ndarray
    disagreement: np.ndarray
    comm_floats: np.ndarray
    bearings: np.ndarray
    available: np.ndarray
    bearing_checksum: str

    @property
    def order(self) -> int:
        return self.block_errors.shape[1]

    @property
    def n_agents(self) -> int:
        return self.block_errors.shape[2]


def propagate_truth(initial_blocks, t: float, u=None, step: float = 1e-3):
    """Target state at time t for an integrator chain started at initial_blocks.

    Without input the chain has an exact polynomial flow. A constant input is
    folded in exactly as one extra chain level; an arbitrary callable input is
    integrated numerically at the given step.
    """
    blocks = np.atleast_2d(np.asarray(initial_blocks, dtype=float))
    if u is None:
        return _exact_flow(blocks, t)
    if not callable(u):
        aug = np.vstack([blocks, np.reshape(u, (1, blocks.shape[1]))])
        return _exact_flow(aug, t)[:-1]

    def deriv(ts, flat):
        x = flat.reshape(blocks.shape)
        d = np.empty_like(x)
        d[:-1] = x[1:]
        d[-1] = np.asarray(u(ts), dtype=float)
        return d.ravel()

    state = blocks.ravel().copy()
    now = 0.0
    while now < t - 1e-15:
        h = min(step, t - now)
        state = rk4_step(deriv, now, state, h)
        now += h
    return state.reshape(blocks.shape)


def _exact_flow(blocks: np.ndarray, t: float) -> np.ndarray:
    order = blocks.shape[0]
    out = np.zeros_like(blocks)
    for m in range(order):
        coeff = 1.0
        for r in range(m, order):
            if r > m:
                coeff *= t / (r - m)
            out[m] += coeff * blocks[r]
    return out


def noisy_bearing(p_target, p_agent, angle_std_deg: float, rng) -> np.ndarray:
    """Unit bearing from agent to target, rotated by a Gaussian angle about a
    uniformly random axis orthogonal to the true bearing."""
    d = np.asarray(p_target, dtype=float) - np.asarray(p_agent, dtype=float)
    dist = np.linalg.norm(d)
    if dist == 0.0:
        raise ValueError("bearing undefined: target and agent positions coincide")
    b = d / dist
    theta = rng.normal(0.0, np.deg2rad(angle_std_deg))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    ref = np.zeros(3)
    ref[np.argmin(np.abs(b))] = 1.0
    e1 = np.cross(ref, b)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(b, e1)
    axis = np.cos(phase) * e1 + np.sin(phase) * e2
    rotated = b * np.cos(theta) + np.cross(axis, b) * np.sin(theta)
    return rotated / np.linalg.norm(rotated)


def _cross_rows(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _row_norms(a):
    return np.sqrt(np.einsum("ni,ni->n", a, a))


def _true_bearings(p_target, positions, t):
    d = p_target[None, :] - positions
    dist = _row_norms(d)
    if np.any(dist == 0.0):
        bad = int(np.argmin(dist))
        raise ValueError(
            f"bearing undefined at t={t:.6f}: agent {bad} coincides with the target"
        )
    return d / dist[:, None]


def _noise_axes(b, cos_p, sin_p):
    # Rotation axis per row: a uniformly random direction in the plane
    # orthogonal to the bearing, parameterized by the drawn phase.
    ref = np.zeros_like(b)
    ref[np.arange(b.shape[0]), np.argmin(np.abs(b), axis=1)] = 1.0
    e1 = _cross_rows(ref, b)
    e1 /= _row_norms(e1)[:, None]
    e2 = _cross_rows(b, e1)
    return cos_p[:, None] * e1 + sin_p[:, None] * e2


def _apply_rotations(b, cos_t, sin_t, axis):
    rotated = b * cos_t[:, None] + _cross_rows(axis, b) * sin_t[:, None]
    return rotated / _row_norms(rotated)[:, None]


def _rotation_matrices(axis, cos_t, sin_t):
    # Axis-angle rotation matrices, one per row of axis.
    n = axis.shape[0]
    out = np.zeros((n, K_DIM, K_DIM))
    out[:, 0, 0] = out[:, 1, 1] = out[:, 2, 2] = cos_t
    out[:, 0, 1] -= sin_t * axis[:, 2]
    out[:, 1, 0] += sin_t * axis[:, 2]
    out[:, 0, 2] += sin_t * axis[:, 1]
    out[:, 2, 0] -= sin_t * axis[:, 1]
    out[:, 1, 2] -= sin_t * axis[:, 0]
    out[:, 2, 1] += sin_t * axis[:, 0]
    out += (1.0 - cos_t)[:, None, None] * axis[:, :, None] * axis[:, None, :]
    return out


def _init_draws(rng, n: int, init_range):
    # Drawn up front in a fixed order so every estimator consuming the same
    # scenario sees an identical downstream measurement stream.
    radii = rng.uniform(init_range[0], init_range[1], size=n)
    fallback = rng.normal(size=(n, K_DIM))
    fallback /= _row_norms(fallback)[:, None]
    return radii, fallback


# Samples per block of precomputed agent positions in measurement_stream:
# large enough to amortize the per-agent interpolation calls, small enough
# that a long run never holds its whole position table.
STREAM_CHUNK = 256


def _path_table(paths, times) -> np.ndarray:
    """Positions of every agent at every time, shape (len(times), n, K_DIM).

    One np.interp per moving agent and axis; AgentPath.position is the
    per-sample reference.
    """
    out = np.empty((times.size, len(paths), K_DIM))
    for i, path in enumerate(paths):
        if path.is_static:
            out[:, i] = path.points[0]
        else:
            for d in range(K_DIM):
                out[:, i, d] = np.interp(times, path.times, path.points[:, d])
    return out


def measurement_stream(scenario: Scenario, rng, n_samples: int):
    """Yield (t, positions, truth, bearings, avail, noise draws) per logged time.

    Shared by the observer run and the baseline filter so a common seed means
    a common measurement realization. Draw order per sample: N rotation
    angles, then N axis phases. Agent positions and the loss mask are
    evaluated STREAM_CHUNK samples at a time.
    """
    u = scenario.target_input
    incremental = callable(u)
    truth = scenario.target_blocks.copy()
    h = scenario.step
    std_rad = np.deg2rad(scenario.noise_std_deg)
    for first in range(0, n_samples, STREAM_CHUNK):
        chunk = np.arange(first, min(first + STREAM_CHUNK, n_samples))
        times = chunk * h
        positions_table = _path_table(scenario.agent_paths, times)
        avail_table = scenario.availability(times)
        for row, s in enumerate(chunk.tolist()):
            t = s * h
            if incremental:
                if s > 0:
                    truth = propagate_truth(
                        truth, h, u=_shift_input(u, t - h), step=h
                    )
                truth_now = truth
            else:
                truth_now = propagate_truth(scenario.target_blocks, t, u=u, step=h)
            positions = positions_table[row]
            theta = rng.normal(0.0, std_rad, size=scenario.n_agents)
            phase = rng.uniform(0.0, 2.0 * np.pi, size=scenario.n_agents)
            b_true = _true_bearings(truth_now[0], positions, t)
            axes = _noise_axes(b_true, np.cos(phase), np.sin(phase))
            bearings = _apply_rotations(b_true, np.cos(theta), np.sin(theta), axes)
            yield t, positions, truth_now, bearings, avail_table[row], theta, phase


def _shift_input(u, offset: float):
    return lambda ts: u(ts + offset)


def _measurement_arrays(positions, bearings, avail):
    mask = avail[:, None, None]
    psi = mask * (np.eye(K_DIM)[None] - bearings[:, :, None] * bearings[:, None, :])
    y = np.einsum("nij,nj->ni", psi, positions)
    return psi, y


def run(scenario: Scenario) -> RunLog:
    """Integrate the target and all coupled observers over the scenario horizon.

    Per step: sample noisy bearings and the loss mask, hold them, and advance
    the joint (truth, observers) state one RK4 step in which the bearing
    geometry follows the moving target through the stages.
    """
    g = build_graph(scenario.adjacency)
    gains = scenario.gains
    n, m = g.n_agents, gains.order
    mt = scenario.target_blocks.shape[0]
    h = scenario.step
    steps = int(round(scenario.duration / h))
    n_rows = steps + 1

    rng = np.random.default_rng(scenario.seed)
    radii, fallback = _init_draws(rng, n, scenario.init_range)

    kernel = build_transformation(gains, 1).matrix
    rate = convergence_rate(gains)
    laplacian = g.laplacian
    kvec = np.asarray(gains.k)
    alpha = gains.alpha
    u = scenario.target_input
    u_fn = u if callable(u) else None
    u_const = None if (u is None or callable(u)) else np.asarray(u, dtype=float)
    truth_size = mt * K_DIM

    t_arr = np.empty(n_rows)
    block_err = np.empty((n_rows, m, n))
    v_arr = np.empty(n_rows)
    v_bound = np.empty(n_rows)
    psi_means = np.empty((n_rows, K_DIM, K_DIM))
    disagreement = np.empty(n_rows)
    comm = np.empty(n_rows)
    bearings_log = np.empty((n_rows, n, K_DIM))
    avail_log = np.empty((n_rows, n), dtype=bool)

    noisy = scenario.noise_std_deg > 0.0

    def coupled_derivative(positions, mask_col, rotations):
        # The noise rotation is held over the step (rotations is None for
        # noiseless runs); the underlying true bearing follows the moving
        # target through the integrator stages.
        def f(tau, flat):
            truth = flat[:truth_size].reshape(mt, K_DIM)
            est = flat[truth_size:].reshape(n, m, K_DIM)
            d_truth = np.empty_like(truth)
            d_truth[:-1] = truth[1:]
            if u_fn is not None:
                d_truth[-1] = u_fn(tau)
            elif u_const is not None:
                d_truth[-1] = u_const
            else:
                d_truth[-1] = 0.0

            b = _true_bearings(truth[0], positions, tau)
            if rotations is not None:
                b = np.einsum("nij,nj->ni", rotations, b)
            x0 = est[:, 0]
            q = positions - x0
            along = np.einsum("ni,ni->n", b, q)
            delta = mask_col * (q - b * along[:, None])
            delta -= alpha * (laplacian @ x0)
            d_est = np.empty_like(est)
            d_est[:, :-1] = est[:, 1:]
            d_est[:, -1] = 0.0
            d_est += kvec[None, :, None] * delta[:, None, :]
            return np.concatenate([d_truth.ravel(), d_est.ravel()])

        return f

    state = None
    est = None
    v0 = 1.0
    stream = measurement_stream(scenario, rng, n_rows)
    for s, (t, positions, truth_row, bearings, avail, theta, phase) in enumerate(
        stream
    ):
        psi, _ = _measurement_arrays(positions, bearings, avail)
        if s == 0:
            directions = np.where(avail[:, None], bearings, fallback)
            p_init = positions + radii[:, None] * directions
            if scenario.init_average:
                p_init = np.broadcast_to(p_init.mean(axis=0), (n, K_DIM)).copy()
            est = np.zeros((n, m, K_DIM))
            est[:, 0] = p_init
            state = np.concatenate([truth_row.ravel(), est.ravel()])

        truth_obs = np.zeros((m, K_DIM))
        upto = min(m, truth_row.shape[0])
        truth_obs[:upto] = truth_row[:upto]

        err = truth_obs[None, :, :] - est
        t_arr[s] = t
        block_err[s] = np.linalg.norm(err, axis=2).T
        v_now = _lyapunov_value(kernel, err.transpose(1, 0, 2).reshape(m, -1))
        if s == 0:
            v0 = v_now
        v_arr[s] = v_now
        v_bound[s] = v0 * np.exp(-2.0 * rate * t)
        psi_means[s] = psi.mean(axis=0)
        x0 = est[:, 0]
        diff = x0[:, None, :] - x0[None, :, :]
        disagreement[s] = float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))
        comm[s] = s * observer_floats_per_step(K_DIM)
        bearings_log[s] = bearings
        avail_log[s] = avail

        if s < steps:
            rotations = None
            if noisy:
                axes = _noise_axes(
                    _true_bearings(truth_row[0], positions, t),
                    np.cos(phase),
                    np.sin(phase),
                )
                rotations = _rotation_matrices(axes, np.cos(theta), np.sin(theta))
            f = coupled_derivative(positions, avail[:, None].astype(float), rotations)
            state = rk4_step(f, t, state, h)
            est = state[truth_size:].reshape(n, m, K_DIM)
            if np.max(np.abs(est)) > constants.DIVERGENCE_LIMIT:
                raise DivergenceError(t + h)

    checksum = hashlib.sha256(
        bearings_log.tobytes() + avail_log.tobytes()
    ).hexdigest()
    return RunLog(
        t=t_arr,
        block_errors=block_err,
        v=v_arr,
        v_bound=v_bound,
        lambda_min_spatial=np.linalg.eigvalsh(psi_means)[:, 0],
        disagreement=disagreement,
        comm_floats=comm,
        bearings=bearings_log,
        available=avail_log,
        bearing_checksum=checksum,
    )


def _lyapunov_value(kernel, err_block) -> float:
    # P = P_m (x) I, so eta = P x_tilde is the m x m kernel P_m applied to the
    # (m, w) error block whose row l is every agent's block-l error.
    eta = kernel @ err_block
    return 0.5 * float(np.einsum("ij,ij->", eta, eta))


def lyapunov_monitor(x_tilde, gains: ObserverGains, t: float, t0: float, v0: float,
                     transform=None):
    """Transformed-error Lyapunov value and its certified exponential envelope.

    x_tilde stacks the network error block-major (all agents' block 0, then
    block 1, ...). A prebuilt transformation of any block size may be passed;
    only its m x m kernel is used.
    """
    x = np.asarray(x_tilde, dtype=float)
    if x.size % gains.order:
        raise ValueError("error vector length is not a multiple of the order")
    if transform is None:
        transform = build_transformation(gains, 1)
    w = transform.block_dim
    kernel = transform.matrix[::w, ::w]
    v = _lyapunov_value(kernel, x.reshape(gains.order, -1))
    bound = v0 * np.exp(-2.0 * convergence_rate(gains) * (t - t0))
    return v, bound


def observer_floats_per_step(k_dim: int = K_DIM) -> int:
    """Floats broadcast per agent per step: just the first state block."""
    return int(k_dim)


def dkf_floats_per_step(state_dim: int, consensus_iters: int) -> int:
    """Floats broadcast per agent per step by the information-pair baseline."""
    return int((state_dim * state_dim + state_dim) * consensus_iters)


def comm_accounting(step_events) -> np.ndarray:
    """Cumulative per-agent float counts from a sequence of per-step sizes."""
    counts = np.asarray(list(step_events), dtype=float)
    if counts.size == 0:
        return np.zeros(0)
    return np.cumsum(counts)


_BLOCK_NAMES = ("pos", "vel", "acc")


def block_name(m: int) -> str:
    return _BLOCK_NAMES[m] if m < len(_BLOCK_NAMES) else f"d{m}"


def csv_header(order: int, n_agents: int) -> str:
    cols = ["t"]
    for m in range(order):
        cols += [f"err_{block_name(m)}_agent{i + 1}" for i in range(n_agents)]
    cols += ["V", "V_bound", "lambda_min_spatial", "disagreement", "comm_floats"]
    return ",".join(cols)


def runlog_to_csv(log: RunLog) -> str:
    """Render the log as UTF-8 CSV with the documented stable column order."""
    lines = [csv_header(log.order, log.n_agents)]
    for s in range(log.t.size):
        row = [f"{log.t[s]:.12g}"]
        for m in range(log.order):
            row += [f"{log.block_errors[s, m, i]:.12g}" for i in range(log.n_agents)]
        row += [
            f"{log.v[s]:.12g}",
            f"{log.v_bound[s]:.12g}",
            f"{log.lambda_min_spatial[s]:.12g}",
            f"{log.disagreement[s]:.12g}",
            f"{log.comm_floats[s]:.12g}",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
