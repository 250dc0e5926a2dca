"""Record one point of the benchmark trajectory as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py 31

Run from anywhere in a source checkout. For each workload that
``BENCHMARK.json`` names, the benchmark command runs untraced
(``--trace 0``) in a fresh subprocess once per seed, for the ``run_seconds``
that ``BENCHMARK.json`` sets. After each run the recorder reads the record
it left in ``.bench_results/<workload>-seed<seed>-trace0.json``. It then
writes ``BENCH_<pr>.json`` at the checkout's root: per workload, each
end-to-end metric's runs, median and quartiles, and the provenance that
every run shares (versions, CPU count, BLAS threads, git commit and the
line count of ``src/axdesign``), and each op's median latency over the
seeds (``op_median_ms``), so a change that moves one op shows. Under
``fresh_process`` it also records the median wall time of ``FRESH_RUNS``
fresh ``python -m axdesign`` calls of each of ``FRESH_CALLS``, with a bare
``python -c pass`` as the floor, ``python -c "import axdesign.cli"`` as the
import floor that the benchmark's ``setup_s`` times, and whether those
interpreters skipped writing bytecode. Runs are sequential, so that no run
shares the CPUs with another; the defaults take about 6 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
FRESH_RUNS = 5
# A spec with a Normal pdf pays the scipy.special import; one without does not.
FRESH_CALLS = {
    "floor": ["-c", "pass"],
    "import axdesign.cli": ["-c", "import axdesign.cli"],
    "classify machining_cascade": ["-m", "axdesign", "classify",
                                   "fixtures/machining_cascade.json"],
    "validate machining_cascade": ["-m", "axdesign", "validate",
                                   "fixtures/machining_cascade.json"],
    "info faucet_mixer_tap": ["-m", "axdesign", "info", "fixtures/faucet_mixer_tap.json"],
    "info rod_cutting": ["-m", "axdesign", "info", "fixtures/rod_cutting.json"],
    "info machining_cascade": ["-m", "axdesign", "info", "fixtures/machining_cascade.json",
                               "--samples", "100000"],
    "simulate tank_turbulent": ["-m", "axdesign", "simulate", "fixtures/tank_turbulent.json",
                                "--cycles", "2000"],
}


def summarize(results: list[dict]) -> dict:
    """Median and quartiles of each metric over ``results``, the ``result``
    blocks of two or more runs of one workload, with the runs' values in
    order."""
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                         "runs": values}
    return {"correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics}


def op_medians(records: list[dict]) -> dict[str, float]:
    """For each op of ``records``, the records of runs of one workload, the
    median over the runs of its ``op_median_ms``, in first-seen order."""
    runs = {}
    for record in records:
        for label, ms in record["op_median_ms"].items():
            runs.setdefault(label, []).append(ms)
    return {label: statistics.median(values) for label, values in runs.items()}


def fresh_summary(walls: dict[str, list[float]]) -> dict:
    """The ``fresh_process`` block: for each call in ``walls``, its wall
    times in seconds, in run order, and their median."""
    return {"dont_write_bytecode": sys.flags.dont_write_bytecode,
            "calls": {name: {"median_s": statistics.median(runs), "runs_s": runs}
                      for name, runs in walls.items()}}


def _fresh_walls(argv: list[str]) -> list[float]:
    """Wall times of FRESH_RUNS fresh interpreters running ``argv`` on this
    checkout's source, each with this interpreter's bytecode setting."""
    command = [sys.executable, *(["-B"] if sys.flags.dont_write_bytecode else []), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls = []
    for _ in range(FRESH_RUNS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return walls


def _run(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    print(" ".join(argv), file=sys.stderr, flush=True)
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number in the output name BENCH_<pr>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    provenance, workloads = None, {}
    for workload in (w["name"] for w in bench["workloads"]):
        records = [_run(bench["command"], workload, seed, seconds) for seed in SEEDS]
        for record in records:
            if provenance not in (None, record["provenance"]):
                sys.exit(f"error: runs disagree on provenance: {provenance} "
                         f"and {record['provenance']}")
            provenance = record["provenance"]
        workloads[workload] = summarize([record["result"] for record in records])
        workloads[workload]["op_median_ms"] = op_medians(records)
    print(f"fresh interpreter calls, {FRESH_RUNS} each", file=sys.stderr, flush=True)
    fresh = fresh_summary({name: _fresh_walls(argv) for name, argv in FRESH_CALLS.items()})

    doc = {"pr": args.pr, "command": bench["command"], "trace": 0, "seeds": list(SEEDS),
           "seconds": seconds, "provenance": provenance, "workloads": workloads,
           "fresh_process": fresh}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, summary in workloads.items():
        ops = summary["metrics"]["ref_ops_per_s"]
        print(f"{workload}: ref_ops_per_s median {ops['median']:.4g} "
              f"[{ops['q1']:.4g}, {ops['q3']:.4g}]")
    for name, call in fresh["calls"].items():
        print(f"fresh {name}: median {call['median_s'] * 1e3:.0f} ms")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
