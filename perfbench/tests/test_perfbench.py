"""Tests of the benchmark itself: every workload runs at smoke size, traced
runs repeat their counters and reproduce the untraced bytes, each oracle
rejects a planted wrong answer, and the runner refuses to run without the
program's sources.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from axdesign.coupling import Coupled, Decoupled, Degenerate, DegenerateReason, classify
from perfbench import harness, oracles, workloads

ROOT = Path(__file__).resolve().parents[2]


def run_bench(workload, seed, trace, cwd=ROOT, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def record(workload, seed, trace):
    path = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    line = result_line(run_bench(workload, 7, 0))
    assert line["correct"], record(workload, 7, 0)["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 3
    assert set(line["metrics"]) == set(harness.E2E_UNITS)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == harness.E2E_UNITS[name]
        assert entry["value"] > 0, name
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(harness.E2E_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(harness.LAYER_UNITS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_counts_and_bytes(workload):
    """Two traced runs with one seed give the same counters, and their
    outputs are byte-identical to each other's and to an untraced run's."""
    first = result_line(run_bench(workload, 11, 1))
    first_record = record(workload, 11, 1)
    second = result_line(run_bench(workload, 11, 1))
    assert first["correct"] and second["correct"], first_record["problems"]
    assert first_record["traced_output_matches_untraced"]
    assert set(first["metrics"]) == set(harness.LAYER_UNITS)
    for name in harness.EXACT_LAYER_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    result_line(run_bench(workload, 11, 0))
    assert record(workload, 11, 0)["digests"] == first_record["digests"]


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("spec-review", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# Each oracle rejects a planted wrong answer.


def test_swapped_decoupled_order_is_rejected():
    matrix, expected, _ = workloads.classify_pattern("dense", 30, np.random.default_rng(0))
    result = classify(matrix)
    assert expected == "decoupled" and isinstance(result, Decoupled)
    workloads.check_classify(result, matrix, expected, None)
    order = list(result.order)
    order[3], order[4] = order[4], order[3]
    with pytest.raises(workloads.Mismatch, match="depends on a DP adjusted"):
        workloads.check_classify(Decoupled(tuple(order)), matrix, expected, None)


def test_wrong_class_and_bad_blocks_are_rejected():
    matrix, expected, blocks = workloads.classify_pattern("block", 40, np.random.default_rng(1))
    result = classify(matrix)
    assert isinstance(result, Coupled)
    workloads.check_classify(result, matrix, expected, blocks)
    merged = (tuple(p for block in result.blocks for p in block),)
    with pytest.raises(workloads.Mismatch, match="differ from the blocks"):
        workloads.check_classify(Coupled(merged), matrix, expected, blocks)
    short = (result.blocks[0][1:],) + result.blocks[1:]
    with pytest.raises(workloads.Mismatch, match="exactly once"):
        workloads.check_classify(Coupled(short), matrix, expected, blocks)
    with pytest.raises(workloads.Mismatch, match="built as coupled"):
        workloads.check_classify(Degenerate(DegenerateReason.NO_PERFECT_MATCHING),
                                 matrix, expected, blocks)


@pytest.mark.parametrize("kind", ["ring", "sparse", "singular"])
def test_reference_structure_matches_construction(kind):
    matrix, expected, blocks = workloads.classify_pattern(kind, 60, np.random.default_rng(2))
    got, got_blocks = oracles.reference_structure(oracles.pattern_of(matrix))
    assert got == expected
    if kind == "ring":
        assert got_blocks == blocks == {frozenset(range(60))}


def test_bits_five_standard_errors_off_are_rejected():
    p, n = 0.3, 10_000
    exact = -math.log2(p)
    se = math.sqrt(p * (1 - p) / n) / (p * math.log(2))
    assert oracles.check_bits(exact + se, p, n, "fr") is None
    assert oracles.check_bits(exact + 5 * se, p, n, "fr") is not None
    assert oracles.check_bits(exact - 5 * se, p, n, "fr") is not None
    assert oracles.check_bits("inf", 0.0, n, "fr") is None
    assert oracles.check_bits(0.1, 0.0, n, "fr") is not None


def _design(structure, families, seed):
    return workloads.linear_design(structure, 4, families, np.random.default_rng(seed),
                                   noise=structure == "coupled")


def test_chain_differing_from_joint_is_rejected(tmp_path):
    design = _design("decoupled", workloads.FAMILIES, 3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(design.spec))
    argv = ["info", str(path), "--seed", "5", "--samples", "4000"]
    run = workloads._cli(argv)
    doc = json.loads(run.stdout)
    joint = json.loads(workloads._cli(argv + ["--method", "joint"]).stdout)
    p_joint = joint["info"]["system_probability"]
    workloads.check_linear_mc(doc, design, 4000, 5, lambda: p_joint)
    with pytest.raises(workloads.Mismatch, match="chain system probability"):
        workloads.check_linear_mc(doc, design, 4000, 5, lambda: p_joint + 1 / 4000)


def test_gaussian_bits_off_by_five_se_are_rejected(tmp_path):
    design = _design("coupled", ("normal",), 4)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(design.spec))
    n = 20_000
    doc = json.loads(workloads._cli(["info", str(path), "--seed", "9", "--samples",
                                     str(n)]).stdout)
    workloads.check_linear_mc(doc, design, n, 9, None)
    mean, cov = design.fr_moments()
    exact = oracles.normal_box_probability(mean, cov, *zip(*design.bands))
    se = math.sqrt(exact * (1 - exact) / n) / (exact * math.log(2))
    planted = -math.log2(exact) + 5 * se
    doc["info"]["system_bits"] = planted
    doc["info"]["system_probability"] = 2.0 ** -planted
    with pytest.raises(workloads.Mismatch, match="system: bits"):
        workloads.check_linear_mc(doc, design, n, 9, None)


def _tank_run(tmp_path, variant):
    base = json.loads((ROOT / "fixtures" / "tank_turbulent.json").read_text())
    spec = workloads.tank_variants(base, 1, 3)[variant]
    path, csv_path = tmp_path / "tank.json", tmp_path / "tank.csv"
    path.write_text(json.dumps(spec))
    run = workloads._cli(["simulate", str(path), "--cycles", "20", "--seed", "4",
                          "--out", str(csv_path)])
    run.csv = csv_path.read_text()
    return spec, run


def test_noiseless_tank_off_its_setpoints_is_rejected(tmp_path):
    spec, run = _tank_run(tmp_path, 0)
    workloads.check_simulate(run, spec, 20, 4, noiseless=True)
    lines = run.csv.splitlines()
    lines[5] = "7.0,65.00000000000001,120.0"
    run.csv = "\n".join(lines) + "\n"
    with pytest.raises(workloads.Mismatch, match="reproduce"):
        workloads.check_simulate(run, spec, 20, 4, noiseless=True)


def test_tank_report_disagreeing_with_its_csv_is_rejected(tmp_path):
    spec, run = _tank_run(tmp_path, 2)
    workloads.check_simulate(run, spec, 20, 4, noiseless=False)
    doc = json.loads(run.stdout)
    doc["info"]["per_fr"][0]["probability"] = 0.5 if \
        doc["info"]["per_fr"][0]["probability"] != 0.5 else 0.55
    run.stdout = json.dumps(doc)
    with pytest.raises(workloads.Mismatch, match="in-band fractions"):
        workloads.check_simulate(run, spec, 20, 4, noiseless=False)


def test_spec_review_checks_reject_wrong_exit_codes_and_bits():
    path = ROOT / "fixtures" / "disjoint.json"
    spec = json.loads(path.read_text())
    run = workloads._cli(["info", str(path), "--seed", "1", "--samples", "100"])
    doc = json.loads(run.stdout)
    workloads.check_fixture_info("disjoint", spec, doc, 100, 1)
    doc["info"]["system_bits"] = 3.0
    with pytest.raises(workloads.Mismatch):
        workloads.check_fixture_info("disjoint", spec, doc, 100, 1)
    coupled = workloads._cli(["classify", str(ROOT / "fixtures" / "faucet_two_knob.json")])
    assert coupled.code == 2
    workloads._doc(coupled, 2)
    with pytest.raises(workloads.Mismatch, match="exit code 2, expected 0"):
        workloads._doc(coupled, 0)


def test_output_that_changes_between_rounds_is_flagged():
    outputs = iter(["a", "a", "b"])
    op = workloads.Op("flaky", lambda: next(outputs), lambda out: None)
    runner = harness.Runner([op])
    records = [runner.round()[0] for _ in range(3)]
    runner.check_outputs(records)
    assert [r.status for r in records] == ["ok", "ok", "changed"]


def test_raising_op_counts_as_failed_not_wrong():
    def boom():
        raise RecursionError("deep")

    runner = harness.Runner([workloads.Op("boom", boom, lambda out: None)])
    record_ = runner.round()[0]
    assert record_.status == "raised" and "RecursionError" in record_.message


def test_host_speed_scales_each_op_by_the_kernel_times_around_it():
    op = workloads.Op("nap", lambda: time.sleep(0.01) or "x", lambda out: None)
    host = harness.HostSpeed()
    records = harness.Runner([op, op]).round(host=host)
    before, after = host.kernel_s  # the two ops together stay under one period
    scale = harness.REFERENCE_KERNEL_S / (0.5 * (before + after))
    for rec in records:
        assert rec.ref_latency == pytest.approx(rec.latency * scale)


def test_output_failing_its_check_is_wrong():
    def check(out):
        workloads.need(out == "right", "planted wrong answer")

    runner = harness.Runner([workloads.Op("planted", lambda: "wrong", check)])
    records = runner.round()
    runner.check_outputs(records)
    assert records[0].status == "wrong" and records[0].message == "planted wrong answer"
