"""Command-line front end: certify, run, compare, sweep.

Exit codes: 0 success (certify: all stability conditions pass), 1 failed
certification, 2 invalid config, arguments or scenario (such as an agent
that coincides with the target), 3 simulation divergence or, for compare, a
baseline failure. Each of these failures prints one `error:` line on stderr;
an internal error surfaces as itself.
"""

import argparse
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .config import ConfigError, parse_config
from .dkf import STATE_DIM, BaselineFailure, run_dkf
from .gains import certify
from .graph import build_graph
from .sim import (
    K_DIM,
    BearingUndefined,
    DivergenceError,
    RunLog,
    Scenario,
    _measurement_arrays,
    _path_table,
    _true_bearings,
    dkf_floats_per_step,
    observer_floats_per_step,
    run,
    runlog_to_csv,
    table_to_csv,
)

V_BOUND_SLACK = 1e-9


def observation_blocks_at_start(scenario: Scenario):
    """Noiseless observation matrices at t = 0, honoring the loss schedule."""
    times = np.zeros(1)
    positions = _path_table(scenario.agent_paths, times)
    bearings = _true_bearings(scenario.target_blocks[0], positions, times)
    psi, _ = _measurement_arrays(positions, bearings, scenario.availability(times))
    return list(psi[0])


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out_path(path: str | None, quiet: bool) -> str | None:
    if path is None:
        _err("no output path: pass --out or set [output] csv in the config", quiet)
        return None
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        _err(f"output directory does not exist: {directory!r}", quiet)
        return None
    return path


def _err(message: str, quiet: bool) -> None:
    if not quiet:
        print(f"error: {message}", file=sys.stderr)


def _say(message: str, quiet: bool) -> None:
    if not quiet:
        print(message)


def cmd_certify(config_path: str, quiet: bool = False) -> int:
    try:
        loaded = parse_config(config_path)
        scenario = loaded.scenario
        graph = build_graph(scenario.adjacency)
        blocks = observation_blocks_at_start(scenario)
        report = certify(scenario.gains, graph, blocks, step=scenario.step)
    except (ConfigError, ValueError) as exc:
        _err(str(exc), quiet)
        return 2
    _say(report.to_text(), quiet)
    _say("--- machine ---", quiet)
    _say(report.to_json(), quiet)
    return 0 if report.overall else 1


def _v_bound_held(log: RunLog) -> bool:
    return bool(np.all(log.v <= log.v_bound + V_BOUND_SLACK))


def cmd_run(config_path: str, out_path: str | None, quiet: bool = False) -> int:
    try:
        loaded = parse_config(config_path)
    except ConfigError as exc:
        _err(str(exc), quiet)
        return 2
    out = _check_out_path(out_path or loaded.out_csv, quiet)
    if out is None:
        return 2
    try:
        log = run(loaded.scenario)
    except DivergenceError as exc:
        _err(f"run aborted: {exc}", quiet)
        return 3
    except BearingUndefined as exc:
        _err(str(exc), quiet)
        return 2
    _write_atomic(out, runlog_to_csv(log))
    final = ", ".join(f"{e:.3g}" for e in log.block_errors[-1, 0])
    held = "yes" if _v_bound_held(log) else "no"
    if loaded.scenario.noise_std_deg > 0.0:
        held += " (certified envelope assumes noiseless measurements)"
    _say(f"wrote {out} ({log.t.size} rows)", quiet)
    _say(f"final position errors [m]: {final}", quiet)
    _say(f"lyapunov envelope held: {held}", quiet)
    _say(f"floats broadcast per agent: {log.comm_floats[-1]:.0f}", quiet)
    return 0


def cmd_compare(config_path: str, out_path: str | None, quiet: bool = False) -> int:
    try:
        loaded = parse_config(config_path)
    except ConfigError as exc:
        _err(str(exc), quiet)
        return 2
    scenario = loaded.scenario
    if scenario.gains.order != 2:
        _err(
            "compare needs a second-order observer config: the baseline filter "
            "uses a constant-velocity model",
            quiet,
        )
        return 2
    out = _check_out_path(out_path or loaded.out_csv, quiet)
    if out is None:
        return 2
    # Both estimators start from the network-average initial position and
    # consume the identical measurement stream (same seed).
    shared = replace(scenario, init_average=True)
    try:
        obs_log = run(shared)
        dkf_log = run_dkf(shared, consensus_iters=2)
    except DivergenceError as exc:
        _err(f"observer run aborted: {exc}", quiet)
        return 3
    except BaselineFailure as exc:
        _err(f"baseline aborted: {exc}", quiet)
        return 3
    except BearingUndefined as exc:
        _err(str(exc), quiet)
        return 2

    _write_atomic(out, _compare_csv(obs_log, dkf_log))
    obs_step = observer_floats_per_step(K_DIM)
    dkf_step_floats = dkf_floats_per_step(STATE_DIM, 2)
    streams = (
        "identical"
        if obs_log.bearing_checksum == dkf_log.bearing_checksum
        else "DIFFERENT"
    )
    _say(f"wrote {out} ({obs_log.t.size} rows)", quiet)
    _say(f"floats per step: observer {obs_step}, baseline {dkf_step_floats}", quiet)
    _say(f"measurement streams: {streams}", quiet)
    obs_final = ", ".join(f"{e:.3g}" for e in obs_log.block_errors[-1, 0])
    dkf_final = ", ".join(f"{e:.3g}" for e in dkf_log.pos_errors[-1])
    _say(f"final position errors, observer [m]: {obs_final}", quiet)
    _say(f"final position errors, baseline [m]: {dkf_final}", quiet)
    return 0


def _compare_csv(obs_log: RunLog, dkf_log) -> str:
    n = obs_log.n_agents
    cols = ["t"]
    cols += [f"obs_err_pos_agent{i + 1}" for i in range(n)]
    cols += [f"dkf_err_pos_agent{i + 1}" for i in range(n)]
    cols += [f"obs_err_vel_agent{i + 1}" for i in range(n)]
    cols += [f"dkf_err_vel_agent{i + 1}" for i in range(n)]
    cols += ["obs_comm_floats", "dkf_comm_floats"]
    table = np.column_stack([
        obs_log.t,
        obs_log.block_errors[:, 0],
        dkf_log.pos_errors,
        obs_log.block_errors[:, 1],
        dkf_log.vel_errors,
        obs_log.comm_floats,
        dkf_log.comm_floats,
    ])
    return table_to_csv(",".join(cols), table)


def cmd_sweep(
    config_path: str, out_path: str | None, seeds_arg: str, quiet: bool = False
) -> int:
    try:
        loaded = parse_config(config_path)
    except ConfigError as exc:
        _err(str(exc), quiet)
        return 2
    try:
        seeds = [int(tok) for tok in seeds_arg.replace(",", " ").split()]
    except ValueError:
        _err(f"cannot parse --seeds {seeds_arg!r} as integers", quiet)
        return 2
    if not seeds:
        _err("--seeds is empty", quiet)
        return 2
    out = _check_out_path(out_path or loaded.out_csv, quiet)
    if out is None:
        return 2
    base, ext = os.path.splitext(out)

    # One batched run over every seed; a seed that diverges leaves the batch
    # and the others finish.
    try:
        outcomes = run(loaded.scenario, seeds)
    except BearingUndefined as exc:
        _err(str(exc), quiet)
        return 2
    written = []
    for seed, outcome in zip(seeds, outcomes):
        if isinstance(outcome, DivergenceError):
            _err(f"seed {seed}: run aborted: {outcome}", quiet)
            continue
        path = f"{base}_seed{seed}{ext or '.csv'}"
        _write_atomic(path, runlog_to_csv(outcome))
        written.append((seed, path, outcome.block_errors[-1, 0].max()))
    for seed, path, worst in written:
        _say(f"seed {seed}: wrote {path}, worst final position error {worst:.3g} m",
             quiet)
    return 0 if len(written) == len(seeds) else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contrack",
        description="Distributed consensus observer toolkit: certify gain "
        "configurations, simulate runs, and compare against the "
        "information-filter baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_certify = sub.add_parser("certify", help="evaluate stability conditions")
    p_run = sub.add_parser("run", help="simulate and write the run log CSV")
    p_compare = sub.add_parser(
        "compare", help="observer vs information-filter baseline on one stream"
    )
    p_sweep = sub.add_parser("sweep", help="run several seeds of one scenario")
    for p in (p_certify, p_run, p_compare, p_sweep):
        p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--quiet", action="store_true", help="suppress output")
    for p in (p_run, p_compare, p_sweep):
        p.add_argument("--out", help="output CSV path (overrides [output] csv)")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seed list")

    args = parser.parse_args(argv)
    if args.command == "certify":
        return cmd_certify(args.config, args.quiet)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.quiet)
    if args.command == "compare":
        return cmd_compare(args.config, args.out, args.quiet)
    return cmd_sweep(args.config, args.out, args.seeds, args.quiet)


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
