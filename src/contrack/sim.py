"""Deterministic simulation engine for the distributed observer.

A run couples truth propagation, noisy bearing generation with per-agent loss
schedules, joint fixed-step integration of all observers, and the runtime
monitors: per-block error norms, the transformed-error Lyapunov value against
its certified envelope, the spatial-excitation eigenvalue, consensus
disagreement, and communication cost. Identical scenario + seed gives a
bit-identical log.

The truth, the agent positions, the loss mask and the bearings do not depend
on the estimates; only the correction term closes the loop. run() therefore
works chunk by chunk, on blocks of consecutive samples, in three stages:

  stream     the truth, agent positions, loss mask and true bearings at the
             sample times, shared by every seed, plus each seed's noise draws
             and measured bearings;
  integrate  one RK4 step per sample over the level-major (m, n, S, K_DIM)
             estimate block of all S seeds together;
  monitor    errors, V, the excitation eigenvalue and the disagreement,
             computed once per chunk from the chunk's estimate history.

A sweep is one run() over its seeds; a single run is the one-seed case.

Stage-truth semantics: each RK4 step restarts the target's integrator chain
from the sampled truth and evaluates the bearing geometry at the chain's RK4
stage positions (x, x + h/2 k1, x + h/2 k2, x + h k3), not at the exact truth
at the stage times. The noise rotation, the loss mask and the agent
positions are sampled once per step and held over its stages.
"""

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import constants
from .gains import ObserverGains, build_transformation, convergence_rate
from .graph import build_graph
from .linalg import NonFiniteDerivative, rk4_step

K_DIM = 3


class DivergenceError(RuntimeError):
    """Observer state blew past the divergence limit; carries the failing time."""

    def __init__(self, time: float):
        super().__init__(f"simulation diverged at t={time:.6f} s")
        self.time = time


class BearingUndefined(ValueError):
    """An agent coincides with the target, so its bearing is undefined."""


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
        steps = self.duration / self.step
        if abs(steps - round(steps)) > constants.DURATION_STEP_RTOL * steps:
            raise ValueError(
                f"duration {self.duration!r} s is not a whole number of "
                f"{self.step!r} s steps"
            )
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

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.step))

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
    if not callable(u):
        return _truth_table(blocks, t, u)

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


def _truth_table(blocks: np.ndarray, times, u=None) -> np.ndarray:
    """Exact chain state at each time, shape times.shape + blocks.shape.

    A constant input u on the top derivative is folded in as one extra chain
    level.
    """
    if u is not None:
        blocks = np.vstack([blocks, np.reshape(u, (1, blocks.shape[1]))])
    times = np.asarray(times, dtype=float)
    order = blocks.shape[0]
    out = np.zeros(times.shape + blocks.shape)
    for m in range(order):
        coeff = np.ones_like(times)
        for r in range(m, order):
            if r > m:
                coeff = coeff * (times / (r - m))
            out[..., m, :] += coeff[..., None] * blocks[r]
    return out if u is None else out[..., :-1, :]


def noisy_bearing(p_target, p_agent, angle_std_deg: float, rng) -> np.ndarray:
    """Unit bearing from agent to target, rotated by a Gaussian angle about a
    uniformly random axis orthogonal to the true bearing.

    Draws the angle, then the axis phase, from rng: one sample of the
    stream's per-agent noise.
    """
    d = np.asarray(p_target, dtype=float) - np.asarray(p_agent, dtype=float)
    dist = np.linalg.norm(d)
    if dist == 0.0:
        raise BearingUndefined("bearing undefined: target and agent positions coincide")
    b = (d / dist)[None]
    theta = np.array([rng.normal(0.0, np.deg2rad(angle_std_deg))])
    phase = np.array([rng.uniform(0.0, 2.0 * np.pi)])
    axes = _noise_axes(b, np.cos(phase), np.sin(phase))
    return _apply_rotations(b, np.cos(theta), np.sin(theta), axes)[0]


def _cross_rows(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _row_norms(a):
    return np.sqrt(np.einsum("ni,ni->n", a, a))


def _true_bearings(p_target, positions, times):
    """Unit bearings from every agent to the target, shape (..., n, K_DIM).

    p_target is (..., K_DIM) and positions (..., n, K_DIM); times gives the
    time of each leading index, named by the error when an agent coincides
    with the target (the first such time in C order).
    """
    d = np.asarray(p_target)[..., None, :] - positions
    dist = _row_norms(d.reshape(-1, K_DIM)).reshape(d.shape[:-1])
    if np.any(dist == 0.0):
        where = np.unravel_index(int(np.argmax(dist.ravel() == 0.0)), dist.shape)
        t = float(np.broadcast_to(times, dist.shape[:-1])[where[:-1]])
        raise BearingUndefined(
            f"bearing undefined at t={t:.6f}: agent {where[-1]} coincides with "
            "the target"
        )
    return d / dist[..., None]


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


def _initial_positions(positions, bearings, avail, radii, fallback, average):
    """First-block initial estimates, (..., n, K_DIM) over leading seed axes.

    Each agent starts its drawn range out along its first measured bearing,
    or along its drawn fallback direction when it has no measurement; with
    average, every agent starts at the network mean of those points.
    """
    directions = np.where(avail[:, None], bearings, fallback)
    p_init = positions + radii[..., None] * directions
    if average:
        return np.broadcast_to(p_init.mean(axis=-2, keepdims=True), p_init.shape).copy()
    return p_init


# Samples per block of precomputed truth, agent positions and loss mask:
# large enough to amortize the per-agent path interpolation, small enough
# that a long run never holds its whole stream. The bearings, the
# integration and the monitors then work on chunks of at most
# STREAM_AGENT_SAMPLES agent-samples over all seeds, so their memory does not
# grow with the network or the batch. Measured on one CPU of a 2-vCPU VM,
# 128 moving agents: one run of 4 seeds over 1 s peaks at 66 MB RSS in 2.7 s
# with 1024, against 221 MB in 2.3 s with STREAM_CHUNK rows only (4096: 67 MB,
# 2.0 s). On the 50-step 128-agent benchmark workload, STREAM_CHUNK rows only
# peak at 47.9 MB against 42.5 MB; 256 keeps 42.1 MB but makes a 4-seed,
# 4-agent sweep 9% slower.
STREAM_CHUNK = 256
STREAM_AGENT_SAMPLES = 1024


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


@dataclass(frozen=True)
class _Chunk:
    """Consecutive samples of the measurement stream, shared by S seeds.

    Per sample: truth (C, levels, K_DIM), agent positions (C, n, K_DIM) and
    the availability mask (C, n). Per seed and sample: the drawn angles theta
    and phases (S, C, n), the noise rotation axes (None without noise) and
    the measured bearings (S, C, n, K_DIM).
    """

    first: int
    times: np.ndarray
    truth: np.ndarray
    positions: np.ndarray
    avail: np.ndarray
    theta: np.ndarray
    phase: np.ndarray
    axes: np.ndarray
    bearings: np.ndarray

    @property
    def size(self) -> int:
        return self.times.size


def _stream_chunks(scenario: Scenario, rngs, n_samples: int):
    """Yield the measurement stream of n_samples sample times in chunks of
    consecutive samples, for one generator per seed.

    Only the noise draws are per seed; per seed and sample they are N
    rotation angles, then N axis phases, from that seed's generator.
    """
    u = scenario.target_input
    h = scenario.step
    n = scenario.n_agents
    std_rad = np.deg2rad(scenario.noise_std_deg)
    size = max(1, STREAM_AGENT_SAMPLES // (n * len(rngs)))
    truth = scenario.target_blocks
    for block in range(0, n_samples, STREAM_CHUNK):
        idx = np.arange(block, min(block + STREAM_CHUNK, n_samples))
        block_times = idx * h
        if callable(u):
            states = []
            for s in idx.tolist():
                if s > 0:
                    truth = propagate_truth(truth, h, u=_shift_input(u, (s - 1) * h),
                                            step=h)
                states.append(truth)
            truth_table = np.array(states)
        else:
            truth_table = _truth_table(scenario.target_blocks, block_times, u)
        path_table = _path_table(scenario.agent_paths, block_times)
        avail_table = scenario.availability(block_times)
        for start in range(0, idx.size, size):
            rows = slice(start, min(start + size, idx.size))
            times = block_times[rows]
            theta = np.empty((len(rngs), times.size, n))
            phase = np.empty((len(rngs), times.size, n))
            for k, rng in enumerate(rngs):
                for row in range(times.size):
                    theta[k, row] = rng.normal(0.0, std_rad, size=n)
                    phase[k, row] = rng.uniform(0.0, 2.0 * np.pi, size=n)
            positions = path_table[rows]
            b_true = _true_bearings(truth_table[rows, 0], positions, times)
            shape = theta.shape + (K_DIM,)
            rows_b = np.broadcast_to(b_true, shape).reshape(-1, K_DIM)
            if std_rad == 0.0:
                # A zero rotation angle leaves each bearing exactly as it is.
                axes = None
                bearings = rows_b / _row_norms(rows_b)[:, None]
            else:
                axes = _noise_axes(rows_b, np.cos(phase).ravel(), np.sin(phase).ravel())
                bearings = _apply_rotations(
                    rows_b, np.cos(theta).ravel(), np.sin(theta).ravel(), axes
                )
                axes = axes.reshape(shape)
            yield _Chunk(
                first=block + start,
                times=times,
                truth=truth_table[rows],
                positions=positions,
                avail=avail_table[rows],
                theta=theta,
                phase=phase,
                axes=axes,
                bearings=bearings.reshape(shape),
            )


def _shift_input(u, offset: float):
    return lambda ts: u(ts + offset)


def _stage_bearings(scenario: Scenario, chunk: _Chunk, count: int, seeds):
    """Measured bearings at the four RK4 stages of the chunk's first count
    steps for the given seed indices, shape (count, 4, n, len(seeds), K_DIM).

    The stage truth restarts the target's chain from the sampled truth at
    each step: x, x + h/2 k1, x + h/2 k2, x + h k3 with k the chain
    derivative. The agent positions, and the noise rotation drawn for the
    step's sample, are held over its stages.
    """
    h = scenario.step
    u = scenario.target_input
    truth = chunk.truth[:count]
    times = chunk.times[:count]

    def chain(x, tau):
        d = np.zeros_like(x)
        d[:, :-1] = x[:, 1:]
        if callable(u):
            d[:, -1] = np.array([u(ts) for ts in tau]).reshape(-1, K_DIM)
        elif u is not None:
            d[:, -1] = u
        return d

    x2 = truth + 0.5 * h * chain(truth, times)
    x3 = truth + 0.5 * h * chain(x2, times + 0.5 * h)
    x4 = truth + h * chain(x3, times + 0.5 * h)
    stage_truth = np.stack([truth[:, 0], x2[:, 0], x3[:, 0], x4[:, 0]], axis=1)
    stage_times = times[:, None] + h * np.array([0.0, 0.5, 0.5, 1.0])
    b_stages = _true_bearings(stage_truth, chunk.positions[:count, None], stage_times)
    n = chunk.positions.shape[1]
    if chunk.axes is None:
        return np.broadcast_to(b_stages[:, :, :, None], (count, 4, n, len(seeds), K_DIM))
    theta = chunk.theta[seeds, :count].ravel()
    rotations = _rotation_matrices(
        chunk.axes[seeds, :count].reshape(-1, K_DIM), np.cos(theta), np.sin(theta)
    ).reshape(len(seeds), count, n, K_DIM, K_DIM)
    return np.einsum("scnij,cknj->cknsi", rotations, b_stages)


def _measurement_arrays(positions, bearings, avail):
    """Observation pairs psi = mask (I - b b^T) and y = psi p of every agent,
    (..., n, K_DIM, K_DIM) and (..., n, K_DIM), broadcast over leading axes."""
    psi = bearings[..., :, None] * bearings[..., None, :]
    np.subtract(np.eye(K_DIM), psi, out=psi)
    psi *= avail[..., None, None]
    return psi, np.einsum("...ij,...j->...i", psi, positions)


def _network_derivative(est, psi, y, alpha_laplacian, k_col):
    """Time derivative of the level-major (m, n, S, K_DIM) estimate block.

    Only level 0 takes the correction: the innovation y - psi x0 (psi
    (n, S, K_DIM, K_DIM), y = psi p) minus alpha L x0, one (n, n) by
    (n, S K_DIM) product; scaled by each level's gain (k_col, (m, 1, 1, 1))
    and added to the chain shift.
    """
    x0 = est[0]
    delta = y - (psi @ x0[..., None])[..., 0]
    delta -= (alpha_laplacian @ x0.reshape(len(x0), -1)).reshape(x0.shape)
    d = k_col * delta
    d[:-1] += est[1:]
    return d


def _max_pairwise_distance(points):
    """Largest distance between two of the n points (..., n, K_DIM), over
    leading axes, from the centred Gram form |c_i|^2 + |c_j|^2 - 2 c_i.c_j
    (centring keeps the rounding relative to that distance)."""
    c = points - points.mean(axis=-2, keepdims=True)
    sq = np.einsum("...ik,...ik->...i", c, c)
    d2 = c @ c.swapaxes(-1, -2)
    d2 *= -2.0
    d2 += sq[..., :, None]
    d2 += sq[..., None, :]
    return np.sqrt(np.maximum(d2.max(axis=(-2, -1)), 0.0))


def _advance(est, t, h, psi, y, alpha_laplacian, k_col):
    """One RK4 step of every seed's estimates (m, n, S, K_DIM), given the
    observation pairs at the step's four stages: psi (4, n, S, K_DIM, K_DIM)
    and y (4, n, S, K_DIM).

    Returns the advanced block and None, or, when a derivative turned
    non-finite, the block and each seed's failure time (inf for the seeds
    that advanced): the batch is then advanced one seed at a time to find
    the seeds at fault.
    """

    def step(block, psi, y):
        stages = iter(zip(psi, y))
        return rk4_step(
            lambda _tau, x: _network_derivative(
                x, *next(stages), alpha_laplacian, k_col
            ),
            t,
            block,
            h,
        )

    seeds = est.shape[2]
    try:
        return step(est, psi, y), None
    except NonFiniteDerivative as exc:
        if seeds == 1:
            return est, np.array([exc.time])
    out, failed = est.copy(), np.full(seeds, np.inf)
    for i in range(seeds):
        one = slice(i, i + 1)
        try:
            out[:, :, i] = step(est[:, :, one], psi[:, :, one], y[:, :, one])[:, :, 0]
        except NonFiniteDerivative as exc:
            failed[i] = exc.time
    return out, failed


def _integrate(est, chunk: _Chunk, count: int, stages, h, alpha_laplacian, k_col):
    """Advance the (m, n, S, K_DIM) estimate block over the chunk's first
    count steps, given their stage bearings (count, 4, n, S, K_DIM).

    Returns the block of the seeds still running, their estimate history at
    the chunk's sample times (C, m, n, S', K_DIM), and each entering seed's
    divergence time (inf for the seeds still running). A seed diverges when
    an estimate passes DIVERGENCE_LIMIT or a derivative turns non-finite.
    """
    psi, y = _measurement_arrays(
        chunk.positions[:count, None, :, None], stages,
        chunk.avail[:count, None, :, None],
    )
    history = np.empty((chunk.size,) + est.shape)
    diverged = np.full(est.shape[2], np.inf)
    alive = np.arange(est.shape[2])
    for row in range(chunk.size):
        history[row] = est
        if row == count:
            break
        t = float(chunk.times[row])
        est, failed = _advance(est, t, h, psi[row], y[row], alpha_laplacian, k_col)
        if failed is None and not np.abs(est).max() > constants.DIVERGENCE_LIMIT:
            continue
        if failed is None:
            failed = np.full(est.shape[2], np.inf)
        peak = np.max(np.abs(est), axis=(0, 1, 3))
        failed[np.isinf(failed) & (peak > constants.DIVERGENCE_LIMIT)] = t + h
        keep = np.isinf(failed)
        diverged[alive[~keep]] = failed[~keep]
        alive = alive[keep]
        est, history = est[:, :, keep], history[:, :, :, keep]
        psi, y = psi[:, :, :, keep], y[:, :, :, keep]
        if alive.size == 0:
            break
    return est, history, diverged


def _monitors(history, truth, bearings, avail, kernel):
    """Monitors of one chunk from its estimate history (C, m, n, S, K_DIM):
    block error norms (S, C, m, n), V (S, C), the spatial-excitation
    eigenvalue (S, C) and the consensus disagreement (S, C)."""
    size, m, n, _, _ = history.shape
    truth_obs = np.zeros((size, m, K_DIM))
    upto = min(m, truth.shape[1])
    truth_obs[:, :upto] = truth[:, :upto]
    disagreement = _max_pairwise_distance(history[:, 0].transpose(2, 0, 1, 3))
    # The error history seed-major (S, C, n, m, K_DIM), in C order, so that
    # V sums its terms in one fixed order.
    err = np.subtract(truth_obs[None, :, None], history.transpose(3, 0, 2, 1, 4),
                      order="C")
    block_err = np.sqrt(np.einsum("scnmk,scnmk->scmn", err, err))
    v = _lyapunov_value(kernel, err.swapaxes(2, 3))
    # Mean of the observation matrices mask (I - b b^T) over the agents.
    psi_mean = np.eye(K_DIM) * avail.mean(axis=-1)[:, None, None] - np.einsum(
        "cn,scni,scnj->scij", avail, bearings, bearings
    ) / n
    lam = np.linalg.eigvalsh(psi_mean)[..., 0]
    return block_err, v, lam, disagreement


def run(scenario: Scenario, seeds=None):
    """Integrate every observer of the scenario over its horizon.

    With seeds None, runs scenario.seed and returns its RunLog, raising
    DivergenceError if the estimates blow up. With a sequence of seeds, the
    seeds are integrated together and the result lists, in order, each
    seed's RunLog or the DivergenceError that took it out of the batch at its
    divergence time; the other seeds finish.

    Per chunk of samples: build the shared stream and the stage bearings,
    advance the (m, n, S, K_DIM) estimate block one RK4 step per sample, then
    compute the monitors from the chunk's estimate history.
    """
    single = seeds is None
    seeds = [scenario.seed] if single else [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    g = build_graph(scenario.adjacency)
    gains = scenario.gains
    n, m, n_seeds = g.n_agents, gains.order, len(seeds)
    h = scenario.step
    steps = scenario.n_steps
    n_rows = steps + 1

    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = [_init_draws(rng, n, scenario.init_range) for rng in rngs]
    radii = np.array([r for r, _ in draws])
    fallback = np.array([f for _, f in draws])

    kernel = build_transformation(gains, 1).matrix
    rate = convergence_rate(gains)
    k_col = np.asarray(gains.k)[:, None, None, None]

    t_arr = np.arange(n_rows) * h
    block_err = np.empty((n_seeds, n_rows, m, n))
    v_arr = np.empty((n_seeds, n_rows))
    lam = np.empty((n_seeds, n_rows))
    disagreement = np.empty((n_seeds, n_rows))
    bearings_log = np.empty((n_seeds, n_rows, n, K_DIM))
    avail_log = np.empty((n_rows, n), dtype=bool)

    outcomes = [None] * n_seeds
    active = np.arange(n_seeds)
    est = None
    # A seed on its way out of the batch may overflow before the divergence
    # checks see it; those checks, not numpy warnings, report it.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_laplacian = gains.alpha * g.laplacian
        for chunk in _stream_chunks(scenario, rngs, n_rows):
            if est is None:
                est = np.zeros((m, n, n_seeds, K_DIM))
                est[0] = _initial_positions(
                    chunk.positions[0], chunk.bearings[:, 0], chunk.avail[0],
                    radii, fallback, scenario.init_average,
                ).swapaxes(0, 1)
            count = min(chunk.size, steps - chunk.first)
            est, history, failed = _integrate(
                est, chunk, count, _stage_bearings(scenario, chunk, count, active),
                h, alpha_laplacian, k_col,
            )
            for i in np.flatnonzero(np.isfinite(failed)):
                outcomes[active[i]] = DivergenceError(float(failed[i]))
            active = active[np.isinf(failed)]
            if active.size == 0:
                break
            rows = slice(chunk.first, chunk.first + chunk.size)
            bearings = chunk.bearings
            if active.size < n_seeds:
                bearings = bearings[active]
            errs, v, lam_chunk, dis = _monitors(
                history, chunk.truth, bearings, chunk.avail, kernel
            )
            block_err[active, rows] = errs
            v_arr[active, rows] = v
            lam[active, rows] = lam_chunk
            disagreement[active, rows] = dis
            bearings_log[active, rows] = bearings
            avail_log[rows] = chunk.avail

    comm = np.arange(n_rows) * float(observer_floats_per_step(K_DIM))
    for i in active.tolist():
        outcomes[i] = RunLog(
            t=t_arr,
            block_errors=block_err[i],
            v=v_arr[i],
            v_bound=v_arr[i, 0] * np.exp(-2.0 * rate * t_arr),
            lambda_min_spatial=lam[i],
            disagreement=disagreement[i],
            comm_floats=comm,
            bearings=bearings_log[i],
            available=avail_log,
            bearing_checksum=hashlib.sha256(
                bearings_log[i].tobytes() + avail_log.tobytes()
            ).hexdigest(),
        )
    if single:
        if isinstance(outcomes[0], DivergenceError):
            raise outcomes[0]
        return outcomes[0]
    return outcomes


def _lyapunov_value(kernel, err):
    # P = P_m (x) I, so eta = P x_tilde is the m x m kernel P_m applied to the
    # block axis of the (..., m, n, K) error blocks: row l holds every agent's
    # block-l error.
    eta = np.einsum("lj,...jak->...lak", kernel, err)
    return 0.5 * np.einsum("...lak,...lak->...", eta, eta)


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
    v = float(_lyapunov_value(kernel, x.reshape(gains.order, -1, 1)))
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


def table_to_csv(header: str, table: np.ndarray) -> str:
    """CSV text of a header line and a 2-D float table, one row per line,
    every value printed with 12 significant digits."""
    fmt = ",".join(["%.12g"] * table.shape[1])
    # Row by row: one tolist() of the whole table holds every value as a
    # Python float at once, and repeated runs then grow the process RSS.
    return "\n".join([header] + [fmt % tuple(row.tolist()) for row in table]) + "\n"


def runlog_to_csv(log: RunLog) -> str:
    """Render the log as UTF-8 CSV with the documented stable column order."""
    table = np.column_stack([
        log.t,
        log.block_errors.reshape(log.t.size, -1),
        log.v,
        log.v_bound,
        log.lambda_min_spatial,
        log.disagreement,
        log.comm_floats,
    ])
    return table_to_csv(csv_header(log.order, log.n_agents), table)
