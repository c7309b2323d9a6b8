"""Scenario config files: a flat INI-style key/value tree.

Sections and keys (units in brackets):

  [target]   order, position [m], velocity [m/s], acceleration [m/s^2],
             block3.. for higher derivatives, optional constant input on the
             top derivative
  [agents]   count, position<i> [m], optional waypoints<i> as
             "t x y z; t x y z; ..." [s, m], optional loss<i> as
             "start end; start end" [s] ('inf' allowed)
  [graph]    edges as "i j w; i j w; ..." with 0-indexed vertices
  [gains]    k (one value per observer level), alpha, delta, gamma
  [noise]    bearing_std_deg [deg]
  [sim]      step [s], duration [s], seed, optional init_range [m m],
             optional init_average (true/false)
  [output]   optional csv path

Every number must be finite; only a loss interval may end at inf.
"""

import bisect
import configparser
import math
from dataclasses import dataclass

import numpy as np

from .gains import ObserverGains
from .sim import AgentPath, Scenario

_BLOCK_KEYS = ("position", "velocity", "acceleration")


class ConfigError(ValueError):
    """Config file is malformed; message carries section/key context."""


@dataclass(frozen=True)
class LoadedConfig:
    scenario: Scenario
    out_csv: str | None


def _block_key(m: int) -> str:
    return _BLOCK_KEYS[m] if m < len(_BLOCK_KEYS) else f"block{m}"


def _floats(text: str, what: str, count: int | None = None):
    try:
        values = [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise ConfigError(f"{what}: cannot parse {text!r} as numbers") from exc
    if count is not None and len(values) != count:
        raise ConfigError(f"{what}: expected {count} values, got {len(values)}")
    return values


def _get(cp, section: str, key: str) -> str:
    if not cp.has_section(section):
        raise ConfigError(f"missing required section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return cp.get(section, key)


def parse_config(path: str) -> LoadedConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    # Every number read, and the (end, key) of each key's run of them, are
    # checked for finiteness at once, before the scenario is built; the edge
    # weights and loss intervals are checked where they are read.
    read, keys = [], []

    def numbers(text, what, count=None):
        values = _floats(text, what, count)
        read.extend(values)
        keys.append((len(read), what))
        return values

    def number(section, key):
        return numbers(_get(cp, section, key), f"[{section}] {key}", 1)[0]

    order = _int(_get(cp, "target", "order"), "[target] order")
    if order < 1:
        raise ConfigError("[target] order must be at least 1")
    blocks = [
        numbers(_get(cp, "target", _block_key(m)), f"[target] {_block_key(m)}", 3)
        for m in range(order)
    ]
    target_input = None
    if cp.has_option("target", "input"):
        target_input = np.array(numbers(cp.get("target", "input"), "[target] input", 3))

    count = _int(_get(cp, "agents", "count"), "[agents] count")
    if count < 2:
        raise ConfigError("[agents] count must be at least 2")
    paths = []
    loss = []
    for i in range(count):
        wp_key = f"waypoints{i}"
        if cp.has_option("agents", wp_key):
            rows = _split_groups(cp.get("agents", wp_key))
            if not rows:
                raise ConfigError(f"[agents] {wp_key}: no waypoints")
            knots = np.array([_floats(r, f"[agents] {wp_key}", 4) for r in rows])
            read.extend(knots.ravel().tolist())
            keys.append((len(read), f"[agents] {wp_key}"))
            paths.append(AgentPath(times=knots[:, 0], points=knots[:, 1:]))
        else:
            pos = numbers(_get(cp, "agents", f"position{i}"), f"[agents] position{i}", 3)
            paths.append(AgentPath.static(pos))
        intervals = ()
        if cp.has_option("agents", f"loss{i}"):
            rows = _split_groups(cp.get("agents", f"loss{i}"))
            parsed = [_floats(r, f"[agents] loss{i}", 2) for r in rows]
            for start, end in parsed:
                if not (math.isfinite(start) and end > start):
                    raise ConfigError(f"[agents] loss{i}: interval end must exceed "
                                      "start, and start must be finite")
            intervals = tuple((p[0], p[1]) for p in parsed)
        loss.append(intervals)

    adjacency = np.zeros((count, count))
    for row in _split_groups(_get(cp, "graph", "edges")):
        i_f, j_f, w = _floats(row, "[graph] edges", 3)
        if not (i_f.is_integer() and j_f.is_integer()):
            raise ConfigError(f"[graph] edges: vertex ids must be integers in {row!r}")
        i, j = int(i_f), int(j_f)
        if not (0 <= i < count and 0 <= j < count):
            raise ConfigError(f"[graph] edges: vertex out of range in {row!r}")
        if i == j:
            raise ConfigError(f"[graph] edges: self-edge not allowed in {row!r}")
        adjacency[i, j] = adjacency[j, i] = w
    if not np.isfinite(adjacency).all():
        raise ConfigError("[graph] edges: values must be finite")

    k = numbers(_get(cp, "gains", "k"), "[gains] k")
    gains = _build_gains(
        k, number("gains", "alpha"), number("gains", "delta"), number("gains", "gamma")
    )

    noise = number("noise", "bearing_std_deg")
    step = number("sim", "step")
    duration = number("sim", "duration")
    seed = _int(_get(cp, "sim", "seed"), "[sim] seed")
    init_range = (5.0, 30.0)
    if cp.has_option("sim", "init_range"):
        lo, hi = numbers(cp.get("sim", "init_range"), "[sim] init_range", 2)
        init_range = (lo, hi)
    init_average = False
    if cp.has_option("sim", "init_average"):
        init_average = _bool(cp.get("sim", "init_average"), "[sim] init_average")

    out_csv = cp.get("output", "csv") if cp.has_option("output", "csv") else None

    bad = ~np.isfinite(np.array(read))
    if bad.any():
        first = int(np.argmax(bad))
        what = keys[bisect.bisect_right(keys, first, key=lambda mark: mark[0])][1]
        raise ConfigError(f"{what}: values must be finite")

    try:
        scenario = Scenario(
            gains=gains,
            adjacency=adjacency,
            agent_paths=tuple(paths),
            target_blocks=np.array(blocks),
            step=step,
            duration=duration,
            seed=seed,
            noise_std_deg=noise,
            target_input=target_input,
            loss_schedule=tuple(loss),
            init_range=init_range,
            init_average=init_average,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedConfig(scenario=scenario, out_csv=out_csv)


def emit_config(scenario: Scenario, out_csv: str | None = None) -> str:
    """Render a scenario back to config text (full float precision)."""
    lines = ["[target]"]
    order = scenario.target_blocks.shape[0]
    lines.append(f"order = {order}")
    for m in range(order):
        lines.append(f"{_block_key(m)} = {_vec(scenario.target_blocks[m])}")
    if scenario.target_input is not None and not callable(scenario.target_input):
        lines.append(f"input = {_vec(scenario.target_input)}")

    lines += ["", "[agents]", f"count = {scenario.n_agents}"]
    for i, path in enumerate(scenario.agent_paths):
        if path.is_static:
            lines.append(f"position{i} = {_vec(path.points[0])}")
        else:
            rows = "; ".join(
                f"{float(path.times[j])!r} {_vec(path.points[j])}"
                for j in range(path.times.size)
            )
            lines.append(f"waypoints{i} = {rows}")
    for i, intervals in enumerate(scenario.loss_schedule):
        if intervals:
            lines.append(
                f"loss{i} = " + "; ".join(f"{a!r} {b!r}" for a, b in intervals)
            )

    edges = []
    n = scenario.n_agents
    for i in range(n):
        for j in range(i + 1, n):
            if scenario.adjacency[i, j] != 0.0:
                edges.append(f"{i} {j} {float(scenario.adjacency[i, j])!r}")
    lines += ["", "[graph]", "edges = " + "; ".join(edges)]

    g = scenario.gains
    lines += [
        "",
        "[gains]",
        "k = " + " ".join(repr(v) for v in g.k),
        f"alpha = {g.alpha!r}",
        f"delta = {g.delta!r}",
        f"gamma = {g.gamma!r}",
        "",
        "[noise]",
        f"bearing_std_deg = {scenario.noise_std_deg!r}",
        "",
        "[sim]",
        f"step = {scenario.step!r}",
        f"duration = {scenario.duration!r}",
        f"seed = {scenario.seed}",
        f"init_range = {scenario.init_range[0]!r} {scenario.init_range[1]!r}",
        f"init_average = {'true' if scenario.init_average else 'false'}",
    ]
    if out_csv:
        lines += ["", "[output]", f"csv = {out_csv}"]
    return "\n".join(lines) + "\n"


def _build_gains(k, alpha, delta, gamma) -> ObserverGains:
    try:
        return ObserverGains(k=tuple(k), alpha=alpha, delta=delta, gamma=gamma)
    except ValueError as exc:
        raise ConfigError(f"[gains]: {exc}") from exc


def _split_groups(text: str):
    groups = [g.strip() for g in text.split(";")]
    return [g for g in groups if g]


def _vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: cannot parse {text!r} as an integer") from exc


def _bool(text: str, what: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{what}: cannot parse {text!r} as a boolean")
