"""The benchmark recorder's summary of one workload's runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _result(ops, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"ref_ops_per_s": {"value": ops, "unit": "ops/s"},
                        "success_rate": {"value": 1.0, "unit": "ratio"}}}


def test_summary_holds_each_metric_median_quartiles_and_runs():
    summary = bench_record.summarize([_result(30.0), _result(10.0), _result(20.0)])
    assert summary["metrics"]["ref_ops_per_s"] == {
        "unit": "ops/s", "median": 20.0, "q1": 15.0, "q3": 25.0, "runs": [30.0, 10.0, 20.0]}
    assert summary["metrics"]["success_rate"]["median"] == 1.0
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (True, 30, 0)


def test_one_wrong_run_marks_the_workload_incorrect():
    summary = bench_record.summarize([_result(1.0), _result(2.0, correct=False, failed=1)])
    assert (summary["correct"], summary["failed"]) == (False, 1)


def test_fresh_summary_holds_each_calls_median_and_runs():
    summary = bench_record.fresh_summary({"floor": [0.3, 0.1, 0.2], "classify": [0.5, 0.4]})
    assert summary["calls"] == {
        "floor": {"median_s": 0.2, "runs_s": [0.3, 0.1, 0.2]},
        "classify": {"median_s": 0.45, "runs_s": [0.5, 0.4]}}
    assert summary["dont_write_bytecode"] in (0, 1)


def test_every_fresh_call_names_a_fixture_that_exists():
    root = _PATH.parent.parent
    for argv in bench_record.FRESH_CALLS.values():
        assert all((root / arg).is_file() for arg in argv if arg.startswith("fixtures/"))
