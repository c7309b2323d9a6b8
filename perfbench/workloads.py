"""Scenario configs for the benchmark workloads.

Each workload is a list of scenario specs. A spec holds the values the
benchmark writes into a config file, read back with the standard library's
configparser rather than with contrack.config, so that the correctness checks
describe each scenario apart from the program under test.
"""

import configparser
import os
from dataclasses import dataclass

import numpy as np

import checks

BUNDLED = (
    "m1_static",
    "m2_constant_velocity",
    "m2_measurement_loss",
    "m2_mismatched_iss",
    "m3_constant_acceleration",
)

# paper_corpus: every bundled scenario, horizon cut to this many seconds.
CORPUS_HORIZON = 0.4

# seed_sweep: one sweep of this many seeds over the constant-velocity design.
SWEEP_SCENARIO = "m2_constant_velocity"
SWEEP_SEEDS = 4
SWEEP_HORIZON = 1.0

# large_swarm: agents on a circle around the constant-velocity target.
SWARM_AGENTS = 128
SWARM_NEIGHBOURS = 8          # circulant graph: links to 8 vertices per side
SWARM_ALPHA_FACTOR = 1.2      # alpha as a multiple of the certified bound
SWARM_RADIUS = 20.0           # m
SWARM_SPIN = 0.1              # rad/s, rotation of the formation about the target
SWARM_KNOTS = (0.0, 1.0, 2.0)  # s, waypoint times
SWARM_HORIZON = 0.05
SWARM_GAINS = dict(k=(5.0, 3.5), delta=0.8, gamma=0.1)

SEED_STRIDE = 1000

_BLOCK_KEYS = ("position", "velocity", "acceleration")


def _block_key(m: int) -> str:
    return _BLOCK_KEYS[m] if m < len(_BLOCK_KEYS) else f"block{m}"


def _floats(text: str):
    return [float(tok) for tok in text.split()]


def _groups(text: str):
    return [g.strip() for g in text.split(";") if g.strip()]


@dataclass(frozen=True)
class Spec:
    """One scenario as the benchmark wrote it."""

    name: str
    path: str
    k: tuple
    alpha: float
    delta: float
    gamma: float
    target_blocks: np.ndarray     # (levels, 3): position, velocity, ...
    agent_times: tuple            # per agent: waypoint times (1 entry if static)
    agent_points: tuple           # per agent: (len(times), 3) waypoints
    loss: tuple                   # per agent: tuple of (start, end) intervals
    adjacency: np.ndarray
    noise_std_deg: float
    step: float
    duration: float
    seed: int
    init_range: tuple

    @property
    def order(self) -> int:
        return len(self.k)

    @property
    def n_agents(self) -> int:
        return len(self.agent_times)

    @property
    def rows(self) -> int:
        return int(round(self.duration / self.step)) + 1


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"))


def spec_from_parser(cp: configparser.ConfigParser, name: str, path: str) -> Spec:
    if cp.has_option("target", "input"):
        raise ValueError(f"{name}: a driven target is outside what the checks model")
    levels = cp.getint("target", "order")
    blocks = np.array([_floats(cp.get("target", _block_key(m))) for m in range(levels)])
    n = cp.getint("agents", "count")
    times, points, loss = [], [], []
    for i in range(n):
        if cp.has_option("agents", f"waypoints{i}"):
            knots = np.array([_floats(g) for g in _groups(cp.get("agents", f"waypoints{i}"))])
            times.append(knots[:, 0])
            points.append(knots[:, 1:])
        else:
            times.append(np.zeros(1))
            points.append(np.array([_floats(cp.get("agents", f"position{i}"))]))
        intervals = ()
        if cp.has_option("agents", f"loss{i}"):
            intervals = tuple(tuple(_floats(g)) for g in _groups(cp.get("agents", f"loss{i}")))
        loss.append(intervals)
    adjacency = np.zeros((n, n))
    for g in _groups(cp.get("graph", "edges")):
        i, j, w = _floats(g)
        adjacency[int(i), int(j)] = adjacency[int(j), int(i)] = w
    init_range = (5.0, 30.0)
    if cp.has_option("sim", "init_range"):
        init_range = tuple(_floats(cp.get("sim", "init_range")))
    return Spec(
        name=name,
        path=path,
        k=tuple(_floats(cp.get("gains", "k"))),
        alpha=cp.getfloat("gains", "alpha"),
        delta=cp.getfloat("gains", "delta"),
        gamma=cp.getfloat("gains", "gamma"),
        target_blocks=blocks,
        agent_times=tuple(times),
        agent_points=tuple(points),
        loss=tuple(loss),
        adjacency=adjacency,
        noise_std_deg=cp.getfloat("noise", "bearing_std_deg"),
        step=cp.getfloat("sim", "step"),
        duration=cp.getfloat("sim", "duration"),
        seed=cp.getint("sim", "seed"),
        init_range=init_range,
    )


def _write(cp: configparser.ConfigParser, name: str, path: str) -> Spec:
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return spec_from_parser(cp, name, path)


def _bundled(repo: str, name: str, duration: float, seed: int) -> configparser.ConfigParser:
    cp = _parser()
    with open(os.path.join(repo, "scenarios", f"{name}.cfg"), encoding="utf-8") as fh:
        cp.read_file(fh)
    cp.set("sim", "duration", repr(duration))
    cp.set("sim", "seed", str(seed))
    return cp


def paper_corpus(repo: str, work: str, seed: int):
    """The five bundled scenarios, horizon cut short; scenario i gets
    seed SEED_STRIDE * seed + i."""
    specs = []
    for i, name in enumerate(BUNDLED):
        cp = _bundled(repo, name, CORPUS_HORIZON, SEED_STRIDE * seed + i)
        specs.append(_write(cp, name, os.path.join(work, f"{name}.cfg")))
    return specs


def sweep_seeds(seed: int):
    return [SEED_STRIDE * seed + j for j in range(SWEEP_SEEDS)]


def seed_sweep(repo: str, work: str, seed: int):
    """The constant-velocity design; its [sim] seed is the sweep's first seed."""
    cp = _bundled(repo, SWEEP_SCENARIO, SWEEP_HORIZON, sweep_seeds(seed)[0])
    return [_write(cp, SWEEP_SCENARIO, os.path.join(work, f"{SWEEP_SCENARIO}.cfg"))]


def reseed(spec: Spec, seed: int, path: str) -> Spec:
    """A copy of spec's config file with another [sim] seed."""
    cp = _parser()
    with open(spec.path, encoding="utf-8") as fh:
        cp.read_file(fh)
    cp.set("sim", "seed", str(seed))
    return _write(cp, spec.name, path)


def circulant_adjacency(n: int, neighbours: int) -> np.ndarray:
    a = np.zeros((n, n))
    idx = np.arange(n)
    for k in range(1, neighbours + 1):
        a[idx, (idx + k) % n] = a[(idx + k) % n, idx] = 1.0
    return a


def large_swarm(repo: str, work: str, seed: int):
    """SWARM_AGENTS agents on a circle above the constant-velocity target.

    The circle's height puts every bearing at the elevation where the mean
    projector is (2/3) I, the best spatial margin a bearing set can have.
    The formation follows the target and spins about it, as piecewise-linear
    waypoints. alpha is SWARM_ALPHA_FACTOR times the projector-form bound.
    """
    n = SWARM_AGENTS
    target = np.array([0.0, -15.0, 0.0])
    velocity = np.array([0.0, 0.5, 0.0])
    height = SWARM_RADIUS * np.sqrt(0.5)
    adjacency = circulant_adjacency(n, SWARM_NEIGHBOURS)
    k1, k2 = SWARM_GAINS["k"]
    mu = checks.compute_mu(SWARM_GAINS["k"], SWARM_GAINS["delta"])
    bound = (mu + 1.0 / SWARM_GAINS["gamma"] - 1.0) / checks.laplacian_lambda2(adjacency)
    alpha = SWARM_ALPHA_FACTOR * bound

    cp = _parser()
    cp["target"] = {"order": "2", "position": _vec(target), "velocity": _vec(velocity)}
    agents = {"count": str(n)}
    phases = 2.0 * np.pi * np.arange(n) / n
    for i in range(n):
        knots = []
        for t in SWARM_KNOTS:
            ang = phases[i] + SWARM_SPIN * t
            centre = target + velocity * t
            p = centre + np.array([SWARM_RADIUS * np.cos(ang), SWARM_RADIUS * np.sin(ang), height])
            knots.append(f"{t!r} {_vec(p)}")
        agents[f"waypoints{i}"] = "; ".join(knots)
    cp["agents"] = agents
    edges = [f"{i} {j} 1.0" for i in range(n) for j in range(i + 1, n) if adjacency[i, j]]
    cp["graph"] = {"edges": "; ".join(edges)}
    cp["gains"] = {
        "k": f"{k1!r} {k2!r}",
        "alpha": repr(float(alpha)),
        "delta": repr(SWARM_GAINS["delta"]),
        "gamma": repr(SWARM_GAINS["gamma"]),
    }
    cp["noise"] = {"bearing_std_deg": "0.0"}
    cp["sim"] = {
        "step": "0.001",
        "duration": repr(SWARM_HORIZON),
        "seed": str(SEED_STRIDE * seed),
        "init_range": "5.0 30.0",
    }
    return [_write(cp, "large_swarm", os.path.join(work, "large_swarm.cfg"))]


def _vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)
