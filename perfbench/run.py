"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-info --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing else. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Every figure, the provenance and the list of raised ops go
to ``.bench_results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402  (needs ROOT on the path)

# One single-threaded process: cap BLAS threads before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds; at least three rounds run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import axdesign from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "axdesign" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'axdesign'} not found; run from a source checkout")
    sys.path.insert(0, str(src))
    import axdesign

    if Path(axdesign.__file__).resolve().parent != (src / "axdesign").resolve():
        sys.exit(f"error: imported axdesign from {axdesign.__file__}, not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")
    _import_program()
    from perfbench import harness

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    # Reports echo input paths, so the path depends only on workload and
    # seed: runs with the same seed then produce the same bytes.
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        line, record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   ROOT, work, results, smoke=args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, value in record.get("figures", {}).items():
        print(f"  {key} = {value}")
    for problem in record["problems"]:
        print(f"  wrong: {problem}")
    for failure in record["raised"]:
        print(f"  raised: {failure}")
    for metric, entry in line["metrics"].items():
        print(f"{metric} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
