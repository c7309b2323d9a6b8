"""The benchmark's correctness checks accept the program's own outputs and
reject each kind of corrupted output.

    PYTHONPATH=src python3 -m pytest perfbench/test_benchmark_checks.py
"""

import contextlib
import dataclasses
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from contrack import cli  # noqa: E402

HORIZON = 0.05


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    assert rc == 0, buf.getvalue()
    return buf.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A noiseless lossy run, its certificate, and a two-seed sweep with a
    separate run of its second seed, all from the program."""
    work = str(tmp_path_factory.mktemp("perfbench"))
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "CORPUS_HORIZON", HORIZON)
    patch.setattr(workloads, "SWEEP_HORIZON", HORIZON)
    patch.setattr(workloads, "SWEEP_SEEDS", 2)
    try:
        lossy = [s for s in workloads.paper_corpus(REPO, work, 1)
                 if s.name == "m2_measurement_loss"][0]
        sweep = workloads.seed_sweep(REPO, work, 1)[0]
        seeds = workloads.sweep_seeds(1)
    finally:
        patch.undo()
    report = checks.parse_certify(_cli("certify", "--config", lossy.path))
    sweep_report = checks.parse_certify(_cli("certify", "--config", sweep.path))
    run_csv = os.path.join(work, "lossy.csv")
    _cli("run", "--config", lossy.path, "--out", run_csv)
    compare_csv = os.path.join(work, "compare.csv")
    compare_out = _cli("compare", "--config", lossy.path, "--out", compare_csv)
    sweep_csv = os.path.join(work, "sweep.csv")
    _cli("sweep", "--config", sweep.path, "--out", sweep_csv,
         "--seeds", ",".join(map(str, seeds)))
    ref = workloads.reseed(sweep, seeds[1], os.path.join(work, "ref.cfg"))
    ref_csv = os.path.join(work, "ref.csv")
    _cli("run", "--config", ref.path, "--out", ref_csv)
    return dict(
        lossy=lossy,
        report=report,
        run=_read(run_csv),
        compare=_read(compare_csv),
        compare_out=compare_out,
        sweep=sweep,
        sweep_rate=sweep_report["rate_bound"],
        seeds=seeds,
        texts={s: _read(os.path.join(work, f"sweep_seed{s}.csv")) for s in seeds},
        ref=_read(ref_csv),
    )


def _edit_column(text, column, fn):
    """Apply fn(row_index, value) to one column and re-render the CSV."""
    lines = text.rstrip("\n").split("\n")
    col = lines[0].split(",").index(column)
    out = [lines[0]]
    for s, line in enumerate(lines[1:]):
        fields = line.split(",")
        fields[col] = f"{fn(s, float(fields[col])):.12g}"
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def _check_run(out, text):
    checks.check_run(text, out["lossy"], out["report"]["rate_bound"], "lossy run")


def test_program_outputs_pass(outputs):
    checks.check_certificate(outputs["report"], outputs["lossy"])
    _check_run(outputs, outputs["run"])
    checks.check_compare(outputs["compare"], outputs["compare_out"], outputs["lossy"], "compare")
    for seed, text in outputs["texts"].items():
        spec = dataclasses.replace(outputs["sweep"], seed=seed)
        checks.check_run(text, spec, outputs["sweep_rate"], f"sweep seed {seed}")
    checks.check_sweep(outputs["texts"], outputs["seeds"][1], outputs["ref"], outputs["sweep"])


def _v_above_bound(text, spec):
    bounds = checks.read_run_csv(text, spec, "run")["V_bound"]
    return _edit_column(text, "V", lambda s, v: 1.01 * bounds[s] if s == 10 else v)


def _truncate_at_line(text, spec):
    return text[: text.rstrip("\n").rfind("\n") + 1]


# corruption of the noiseless lossy run's CSV -> message the checks must give
RUN_CORRUPTIONS = {
    "v_above_its_bound": (_v_above_bound, "V above V_bound"),
    "shifted_lambda": (lambda text, spec: _edit_column(
        text, "lambda_min_spatial", lambda s, v: v + 1e-4), "lambda_min_spatial"),
    "v_bound_off_the_certified_rate": (lambda text, spec: _edit_column(
        text, "V_bound", lambda s, v: v * 1.01 if s else v), "V_bound is not"),
    "v_below_the_position_error": (lambda text, spec: _edit_column(
        text, "V", lambda s, v: 1e-4 * v if s == 10 else v), "exceeds k1 sqrt"),
    "wrong_initial_error": (lambda text, spec: _edit_column(
        text, "err_pos_agent2", lambda s, v: 1.01 * v if s == 0 else v), "initial position"),
    "wrong_comm_count": (lambda text, spec: _edit_column(
        text, "comm_floats", lambda s, v: v + (s == 7)), "comm_floats"),
    "renamed_column": (lambda text, spec: text.replace("V_bound", "V_limit", 1), "header"),
    "truncated_at_a_line": (_truncate_at_line, "rows, expected"),
    "truncated_mid_line": (lambda text, spec: text[:-20], "newline"),
}


@pytest.mark.parametrize("corruption", sorted(RUN_CORRUPTIONS))
def test_corrupted_run_csv_is_rejected(outputs, corruption):
    corrupt, message = RUN_CORRUPTIONS[corruption]
    with pytest.raises(checks.CheckFailed, match=message):
        _check_run(outputs, corrupt(outputs["run"], outputs["lossy"]))


def test_error_above_the_noise_decay_bound_is_rejected(outputs):
    seed = outputs["seeds"][0]
    spec = dataclasses.replace(outputs["sweep"], seed=seed)
    last = spec.rows - 1
    bad = _edit_column(outputs["texts"][seed], "err_pos_agent1",
                       lambda s, v: 1e3 if s == last else v)
    bad = _edit_column(bad, "V", lambda s, v: 1e6 if s == last else v)
    with pytest.raises(checks.CheckFailed, match="decay bound"):
        checks.check_run(bad, spec, outputs["sweep_rate"], "sweep")


@pytest.mark.parametrize("field,factor,message", [
    ("alpha_bound", 1.001, "alpha bound"),
    ("mu", 1.001, "mu"),
    ("spatial_margin", 1.001, "spatial margin"),
    ("overall", None, "overall"),
])
def test_wrong_certificate_is_rejected(outputs, field, factor, message):
    value = outputs["report"][field]
    report = dict(outputs["report"], **{field: False if factor is None else value * factor})
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_certificate(report, outputs["lossy"])


def test_compare_with_different_streams_is_rejected(outputs):
    stdout = outputs["compare_out"].replace("streams: identical", "streams: DIFFERENT")
    with pytest.raises(checks.CheckFailed, match="identical measurement streams"):
        checks.check_compare(outputs["compare"], stdout, outputs["lossy"], "compare")


def test_sweep_seed_disagreeing_with_its_run_is_rejected(outputs):
    seed = outputs["seeds"][1]
    texts = dict(outputs["texts"])
    texts[seed] = _edit_column(texts[seed], "err_pos_agent1",
                               lambda s, v: v * (1.0 + 1e-6) if s == 5 else v)
    with pytest.raises(checks.CheckFailed, match="differs from its run"):
        checks.check_sweep(texts, seed, outputs["ref"], outputs["sweep"])


def test_sweep_seeds_writing_the_same_csv_are_rejected(outputs):
    first, second = outputs["seeds"]
    texts = {first: outputs["texts"][first], second: outputs["texts"][first]}
    with pytest.raises(checks.CheckFailed, match="same CSV"):
        checks.check_sweep(texts, second, outputs["ref"], outputs["sweep"])
