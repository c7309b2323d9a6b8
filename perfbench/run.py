"""contrack benchmark: one workload of CLI verbs, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's scenario configs, certifies each one (the set-up),
then repeats rounds of the simulation verbs until S seconds have passed,
checks every output apart from the program, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, from spans
around each module's public functions. See perfbench/README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# One CPU and one BLAS thread. The verbs are small dense operations driven
# from Python. On two cores the sweep's pool threads hand the GIL across
# cores, and its round time then swings with the load on both (README).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "paper_corpus": workloads.paper_corpus,
    "seed_sweep": workloads.seed_sweep,
    "large_swarm": workloads.large_swarm,
}


@dataclasses.dataclass
class Op:
    """One verb call; a sweep counts one operation per seed."""

    verb: str
    spec: object
    out: str
    seeds: tuple = ()

    @property
    def count(self) -> int:
        return len(self.seeds) or 1

    def argv(self):
        args = [self.verb, "--config", self.spec.path, "--out", self.out]
        if self.seeds:
            args += ["--seeds", ",".join(map(str, self.seeds))]
        return args

    def outputs(self):
        if not self.seeds:
            return [self.out]
        base, ext = os.path.splitext(self.out)
        return [f"{base}_seed{s}{ext}" for s in self.seeds]


def make_ops(workload, specs, work, seed):
    if workload == "seed_sweep":
        return [Op("sweep", specs[0], os.path.join(work, "sweep.csv"),
                   tuple(workloads.sweep_seeds(seed)))]
    ops = [Op("run", s, os.path.join(work, f"{s.name}_run.csv")) for s in specs]
    ops += [Op("compare", s, os.path.join(work, f"{s.name}_compare.csv"))
            for s in specs if s.order == 2]
    return ops


def call(argv, tracer):
    """Run one CLI verb in-process; returns (exit code or error, seconds, stdout)."""
    buf = io.StringIO()
    span = tracer.verb() if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            rc = "exception"
        elapsed = time.perf_counter() - t0
    return rc, elapsed, buf.getvalue()


def digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def verify(specs, certs, ops, last, work, tracer):
    """Every correctness check on the outputs of the last round."""
    problems = []

    def attempt(what, check):
        try:
            return check()
        except checks.CheckFailed as exc:
            problems.append(str(exc))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{what}: {exc!r}")
        return None

    rates = {}
    for spec in specs:
        report = attempt(spec.name, lambda: checks.parse_certify(certs[spec.name]))
        if report is not None:
            attempt(spec.name, lambda: checks.check_certificate(report, spec))
            rates[spec.name] = report.get("rate_bound", 0.0)
    for op, (rc, stdout) in zip(ops, last):
        name, spec = op.spec.name, op.spec
        if rc != 0 or name not in rates:
            continue
        if op.verb == "run":
            attempt(name, lambda: checks.check_run(read(op.out), spec, rates[name], f"{name} run"))
        elif op.verb == "compare":
            attempt(name, lambda: checks.check_compare(read(op.out), stdout, spec, f"{name} compare"))
        else:
            texts = {s: attempt(name, lambda: read(path)) for s, path in zip(op.seeds, op.outputs())}
            if None in texts.values():
                continue
            for s, text in texts.items():
                reseeded = dataclasses.replace(spec, seed=s)
                attempt(name, lambda: checks.check_run(text, reseeded, rates[name], f"sweep seed {s}"))
            ref_seed = op.seeds[1]
            ref = workloads.reseed(spec, ref_seed, os.path.join(work, "ref.cfg"))
            ref_out = os.path.join(work, "ref.csv")
            rc_ref, _, _ = call(["run", "--config", ref.path, "--out", ref_out], tracer)
            if rc_ref != 0:
                problems.append(f"reference run of seed {ref_seed} exited {rc_ref}")
            else:
                attempt(name, lambda: checks.check_sweep(texts, ref_seed, read(ref_out), spec))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = "setup"

    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        t0 = time.perf_counter()
        specs = WORKLOADS[args.workload](REPO, work, args.seed)
        generate_s = time.perf_counter() - t0

        attempted = failed = 0
        certs = {}
        for spec in specs:
            rc, _, stdout = call(["certify", "--config", spec.path], tracer)
            attempted += 1
            failed += rc not in (0, 1)   # 1 is a failed certificate, checked below
            certs[spec.name] = stdout
        setup_s = time.perf_counter() - START - generate_s

        ops = make_ops(args.workload, specs, work, args.seed)
        op_times, hashes, last = [], [], []
        loop_start = time.perf_counter()
        while True:
            if tracer:
                tracer.phase = len(op_times)
            times, last = [], []
            for op in ops:
                rc, seconds, stdout = call(op.argv(), tracer)
                times.append(seconds)
                attempted += op.count
                failed += op.count if rc != 0 else 0
                last.append((rc, stdout))
            op_times.append(times)
            hashes.append([digest(p) for op in ops for p in op.outputs()])
            if time.perf_counter() - loop_start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            tracer.phase = "check"
        problems = verify(specs, certs, ops, last, work, tracer)
        if any(h != hashes[0] for h in hashes):
            problems.append("outputs differ between rounds of identical inputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Each call's fastest round: contention from outside the process only adds
    # time to a call, so the fastest is the closest to its own cost (README).
    sim_s = sum(min(per_op) for per_op in zip(*op_times))
    print(f"{args.workload} seed {args.seed}: {len(op_times)} rounds, seconds per round "
          + " ".join(f"{sum(t):.3f}" for t in op_times) + f", sim_s {sim_s:.3f}", file=sys.stderr)
    if tracer:
        metrics, trace_problems = tracing.layer_metrics(
            tracer.spans, "setup", range(len(op_times)))
        problems += trace_problems
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"sim_s_traced": sim_s, "spans": tracing.summary(tracer.spans)},
                      fh, indent=1)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "sim_s": {"value": sim_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _missing_program():
    needed = [os.path.join(REPO, "src", "contrack", "cli.py"), os.path.join(REPO, "scenarios")]
    return [p for p in needed if not os.path.exists(p)]


if __name__ == "__main__":
    missing = _missing_program()
    if missing:
        print(f"error: program sources not found: {missing}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(REPO, "src"))
    from contrack import cli  # noqa: E402

    sys.exit(main())
