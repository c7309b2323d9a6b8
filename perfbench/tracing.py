"""Spans around the public functions each contrack module calls across a
layer boundary, installed by rebinding module attributes (no file under src/
is edited), and the per-layer metrics computed from them.

Spans are kept in memory. A span opened on a worker thread of the sweep's
pool with no open span of its own is a child of the CLI verb that started
the pool. A function the program no longer has, or no longer calls, reports
zero.
"""

import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module, function, span name)
TRACED = (
    ("contrack.config", "parse_config", "config.parse"),
    ("contrack.graph", "build_graph", "graph.build"),
    ("contrack.linalg", "sym_eigen", "linalg.sym_eigen"),
    ("contrack.gains", "certify", "gains.certify"),
    ("contrack.gains", "build_transformation", "gains.transformation"),
    ("contrack.sim", "measurement_stream", "sim.stream"),
    ("contrack.sim", "rk4_step", "sim.rk4"),
    ("contrack.sim", "runlog_to_csv", "sim.csv"),
    ("contrack.sim", "run", "sim.run"),
    ("contrack.dkf", "dkf_step", "dkf.step"),
    ("contrack.dkf", "metropolis_weights", "dkf.weights"),
    ("contrack.dkf", "run_dkf", "dkf.run"),
)
CONTRACK_MODULES = ("contrack", "contrack.cli", "contrack.config", "contrack.dkf",
                    "contrack.gains", "contrack.graph", "contrack.linalg",
                    "contrack.observer", "contrack.sim")
VERB = "cli.verb"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    phase: object
    items: int       # samples yielded (stream), simulated steps (run), else 0


def _steps_of(args):
    scenario = args[0] if args else None
    try:
        return int(round(scenario.duration / scenario.step))
    except AttributeError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._verb = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, sid, parent, name, start, items):
        span = Span(sid, parent, name, start, perf_counter(), self.phase, items)
        with self._lock:
            self.spans.append(span)

    def _open(self):
        """A new span id and its parent: the innermost open span on this
        thread, else the open verb."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        return sid, stack[-1] if stack else self._verb

    @contextmanager
    def span(self, name, items=0):
        sid, parent = self._open()
        stack = self._stack()
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            stack.pop()
            self._record(sid, parent, name, start, items)

    @contextmanager
    def verb(self):
        """Span of one CLI verb; pool threads it starts nest under it."""
        with self.span(VERB) as sid:
            self._verb = sid
            try:
                yield
            finally:
                self._verb = None

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))
        elif name == "sim.run":
            def traced(*args, **kwargs):
                with self.span(name, _steps_of(args)):
                    return fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name, gen):
        # One span per item; the span of the call that ends the generator
        # counts no item.
        try:
            while True:
                sid, parent = self._open()
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._record(sid, parent, name, start, 0)
                    return
                self._record(sid, parent, name, start, 1)
                yield item
        finally:
            gen.close()

    def install(self):
        """Rebind every contrack module attribute that refers to a traced
        function, so calls made through any import of it are spanned."""
        modules = [importlib.import_module(m) for m in CONTRACK_MODULES]
        for module_name, attr, name in TRACED:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            traced = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def _self_times(spans):
    """Span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = (s.end - s.start) - covered
    return out


@dataclass
class _Agg:
    calls: int = 0
    items: int = 0
    total: float = 0.0
    self_time: float = 0.0


def _aggregate(spans, self_times):
    agg = defaultdict(_Agg)
    for s in spans:
        a = agg[s.name]
        a.calls += 1
        a.items += s.items
        a.total += s.end - s.start
        a.self_time += self_times[s.sid]
    return agg


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, function of the aggregate); counts are exact integers.
PER_LAYER = {
    "config.parse_ms": ("ms", lambda a: 1e3 * a["config.parse"].total),
    "graph.build_calls": ("count", lambda a: a["graph.build"].calls),
    "graph.build_ms": ("ms", lambda a: 1e3 * a["graph.build"].total),
    "linalg.sym_eigen_calls": ("count", lambda a: a["linalg.sym_eigen"].calls),
    "linalg.sym_eigen_ms": ("ms", lambda a: 1e3 * a["linalg.sym_eigen"].total),
    "gains.certify_ms": ("ms", lambda a: 1e3 * a["gains.certify"].total),
    "gains.transformation_ms": ("ms", lambda a: 1e3 * a["gains.transformation"].total),
    "sim.stream_samples": ("count", lambda a: a["sim.stream"].items),
    "sim.stream_us_per_sample": (
        "us", lambda a: 1e6 * _ratio(a["sim.stream"].total, a["sim.stream"].items)),
    "sim.rk4_calls": ("count", lambda a: a["sim.rk4"].calls),
    "sim.integrate_us_per_step": (
        "us", lambda a: 1e6 * _ratio(a["sim.rk4"].total, a["sim.rk4"].calls)),
    "sim.monitor_us_per_step": (
        "us", lambda a: 1e6 * _ratio(a["sim.run"].self_time, a["sim.run"].items)),
    "sim.csv_ms": ("ms", lambda a: 1e3 * a["sim.csv"].total),
    "dkf.steps": ("count", lambda a: a["dkf.step"].calls),
    "dkf.step_us": ("us", lambda a: 1e6 * _ratio(a["dkf.step"].total, a["dkf.step"].calls)),
    "dkf.weights_calls": ("count", lambda a: a["dkf.weights"].calls),
    "dkf.weights_ms": ("ms", lambda a: 1e3 * a["dkf.weights"].total),
    "cli.self_ms": ("ms", lambda a: 1e3 * a[VERB].self_time),
}


def layer_metrics(spans, setup_phase, round_phases):
    """Per-layer metrics of one pass of the workload: its set-up plus one
    round. Counts must agree across rounds; a time is taken from its fastest
    round, as sim_s is. Returns (metrics, problems)."""
    self_times = _self_times(spans)
    by_phase = defaultdict(list)
    for s in spans:
        by_phase[s.phase].append(s)
    per_round = []
    for phase in round_phases:
        agg = _aggregate(by_phase[setup_phase] + by_phase[phase], self_times)
        per_round.append({name: fn(agg) for name, (_, fn) in PER_LAYER.items()})
    metrics, problems = {}, []
    for name, (unit, _) in PER_LAYER.items():
        values = [r[name] for r in per_round]
        if unit == "count" and len(set(values)) != 1:
            problems.append(f"{name} differs between rounds: {values}")
        value = values[0] if unit == "count" else min(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def summary(spans):
    """Calls, total and self milliseconds per span name, for the trace file."""
    agg = _aggregate(spans, _self_times(spans))
    return {
        name: {"calls": a.calls, "items": a.items,
               "total_ms": 1e3 * a.total, "self_ms": 1e3 * a.self_time}
        for name, a in sorted(agg.items())
    }
