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
line count of ``src/axdesign``). Runs are sequential, so that no run shares
the CPUs with another; the defaults take about 5 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


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

    doc = {"pr": args.pr, "command": bench["command"], "trace": 0, "seeds": list(SEEDS),
           "seconds": seconds, "provenance": provenance, "workloads": workloads}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, summary in workloads.items():
        ops = summary["metrics"]["ref_ops_per_s"]
        print(f"{workload}: ref_ops_per_s median {ops['median']:.4g} "
              f"[{ops['q1']:.4g}, {ops['q3']:.4g}]")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
