"""Rounds, timing, correctness bookkeeping and metrics.

One process, one client, closed loop: each op starts when the previous one
has returned. A *round* runs every op of the workload once. The first round
is a warm-up: it fills lazy imports and caches and records each output's
digest. Timed rounds must reproduce those digests byte for byte. After the
last round every distinct output is checked against its oracle, so checks
cost the measured rounds nothing.

Untraced runs (``--trace 0``) time at least ``MIN_ROUNDS`` rounds and keep
going until ``seconds`` have passed. Between ops they time a fixed
calibration kernel (see ``HostSpeed``) and report the latencies both as
measured and scaled to a reference host speed; ``BENCHMARK.json`` gates the
scaled ones. Set-up samples are spread over the run. Traced runs (``--trace 1``) alternate an
untraced and a traced round, at least ``MIN_PAIRS`` times and until
``seconds`` have passed, and report the per-layer metrics of the traced
rounds plus the difference in round time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import workloads
from .tracing import Tracer

__all__ = ["run", "SetupTimer", "HostSpeed", "provenance", "E2E_UNITS", "LAYER_UNITS"]

MIN_ROUNDS = 3
MIN_PAIRS = 2
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # op_tail_ms is a latency with at least this many timed ops above it

# Host speed is re-measured after at least this many seconds of op time.
CALIBRATION_PERIOD_S = 0.25
# A typical time of the calibration kernel (best of two) on the 2-vCPU cloud
# host the benchmark was tuned on. At that speed the scaled (ref_) figures
# equal wall time; elsewhere they are wall time at that speed.
REFERENCE_KERNEL_S = 0.010

E2E_UNITS = {
    "setup_s": "s",
    "ref_ops_per_s": "ops/s",
    "ref_op_p50_ms": "ms",
    "ref_op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

LAYER_UNITS = {
    "distributions.generator_calls": "count",
    "distributions.generator_s": "s",
    "distributions.draw_calls": "count",
    "distributions.draw_s": "s",
    "distributions.values_drawn": "count",
    "distributions.ns_per_value": "ns",
    "propagation.sample_self_s": "s",
    "propagation.table_bytes_max": "bytes",
    "propagation.csv_s": "s",
    "propagation.csv_rows": "count",
    "tank.self_s": "s",
    "tank.us_per_cycle": "us",
    "tank.cycles": "count",
    "info.self_s": "s",
    "info.rows_scored": "count",
    "info.chain_links": "count",
    "coupling.classify_s": "s",
    "coupling.classify_max_s": "s",
    "coupling.classify_calls": "count",
    "coupling.failures": "count",
    "model.parse_s": "s",
    "model.validate_s": "s",
    "report.doc_s": "s",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics that must repeat exactly between traced rounds.
EXACT_LAYER_METRICS = tuple(name for name, unit in LAYER_UNITS.items()
                            if unit in ("count", "bytes"))


@dataclass
class OpRecord:
    latency: float
    status: str  # ok | wrong | raised | changed
    digest: str
    message: str | None = None
    ref_latency: float | None = None  # latency scaled to the reference host speed


_KERNEL_TABLE = np.random.default_rng(0).standard_normal((20_000, 8))
_KERNEL_MIX = np.random.default_rng(1).standard_normal((8, 8))
_KERNEL_DOC = {"frs": [{"id": f"FR{i}", "nominal": 1.5 * i, "tol": [0.1, 0.2],
                        "tags": ["band", "linear"]} for i in range(20)]}


class _KernelPart:
    def __init__(self, gain: float, offset: float):
        self.gain, self.offset = gain, offset

    def value(self, x: float, *, shift: float = 0.0) -> float:
        return self.gain * x + self.offset + shift


def _calibration_kernel() -> float:
    """Fixed work that uses the host the way the workloads do: interpreted
    Python like the CLI's (JSON, string formatting, small objects and
    keyword calls), then numpy draws, a matmul, an in-band reduction and a
    sort on a 1.3 MB table. Returns its wall time."""
    start = perf_counter()
    for _ in range(8):
        doc = json.loads(json.dumps(_KERNEL_DOC, indent=2))
        "\n".join(f"{fr['id']}: {fr['nominal']:.6g} {fr['tol']}" for fr in doc["frs"])
        parts = [_KernelPart(float(i), 2.0) for i in range(200)]
        sum(part.value(3.0, shift=1.0) for part in parts)
    draws = np.random.Generator(np.random.Philox(7)).standard_normal(_KERNEL_TABLE.shape)
    draws = draws @ _KERNEL_MIX + _KERNEL_TABLE
    ((draws > -1.0) & (draws < 1.0)).all(axis=1).sum()
    np.sort(draws[:, 0])
    return perf_counter() - start


class HostSpeed:
    """Scales op latencies to a reference host speed.

    Other tenants of a shared host slow everything this process runs, by up
    to 70 % and for seconds to minutes at a time, and CPU time slows with
    wall time. The benchmark therefore times a fixed calibration kernel
    whenever ``CALIBRATION_PERIOD_S`` of op time has passed, and at the start
    and end of every round. Each op's latency is multiplied by
    ``REFERENCE_KERNEL_S`` over the mean of the kernel times just before and
    just after the stretch of ops it belongs to. The kernel runs no program
    code, so a change to the program moves the scaled latencies as much as
    the measured ones.
    """

    def __init__(self):
        _calibration_kernel()  # warm
        self.last = self._measure()
        self.kernel_s: list[float] = [self.last]
        self._pending: list[int] = []  # op positions since the last measurement
        self._busy = 0.0
        self._scales: dict[int, float] = {}

    @staticmethod
    def _measure() -> float:
        return min(_calibration_kernel(), _calibration_kernel())

    def op_done(self, position: int, latency: float) -> None:
        self._pending.append(position)
        self._busy += latency
        if self._busy >= CALIBRATION_PERIOD_S:
            self._flush()

    def _flush(self) -> float:
        now = self._measure()
        scale = REFERENCE_KERNEL_S / (0.5 * (self.last + now))
        for position in self._pending:
            self._scales[position] = scale
        self.kernel_s.append(now)
        self.last, self._pending, self._busy = now, [], 0.0
        return scale

    def time_call(self, fn) -> tuple[float, float]:
        """Runs ``fn`` between two measurements, outside any round; returns
        its wall time and that time scaled to the reference speed."""
        assert not self._pending, "time_call inside a round"
        start = perf_counter()
        fn()
        wall = perf_counter() - start
        return wall, wall * self._flush()

    def end_round(self) -> dict[int, float]:
        """Scale of every op position in the round that just ended."""
        if self._pending:
            self._flush()
        scales, self._scales = self._scales, {}
        return scales


def _canonical(output) -> bytes:
    if isinstance(output, workloads.CliRun):
        text = f"{output.code}\0{output.stdout}\0{output.stderr}\0{output.csv}"
    else:
        text = repr(output)
    return text.encode("utf-8")


def _describe(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" in {frames[-1].name}" if frames else ""
    return f"raised {type(exc).__name__}{where}"


class Runner:
    """Runs rounds of one workload's ops and judges every output."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.reference: list[str] | None = None
        self._verdicts: list[dict[str, str | None]] = [{} for _ in ops]
        self._unchecked: dict[tuple[int, str], object] = {}

    def round(self, tracer: Tracer | None = None,
              host: HostSpeed | None = None) -> list[OpRecord]:
        gc.collect()
        timed = []
        if tracer is not None:
            tracer.install()
        try:
            for index, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.op = index
                start = perf_counter()
                try:
                    raw, error = op.call(), None
                except Exception as exc:  # an op that raises is a failed op, not a failed run
                    latency = perf_counter() - start
                    raw, error = None, _describe(exc)
                    del exc
                else:
                    latency = perf_counter() - start
                timed.append((latency, raw, error))
                if host is not None:
                    host.op_done(index, latency)
        finally:
            if tracer is not None:
                tracer.remove()
        records = [self._digest(i, *entry) for i, entry in enumerate(timed)]
        if host is not None:
            for position, scale in host.end_round().items():
                records[position].ref_latency = records[position].latency * scale
        if self.reference is None:
            self.reference = [r.digest for r in records]
        return records

    def _digest(self, index: int, latency: float, raw, error: str | None) -> OpRecord:
        op = self.ops[index]
        if error is not None:
            record = OpRecord(latency, "raised", error, error)
        else:
            output = op.collect(raw) if op.collect is not None else raw
            digest = hashlib.sha256(_canonical(output)).hexdigest()
            if digest not in self._verdicts[index]:
                self._unchecked.setdefault((index, digest), output)
            record = OpRecord(latency, "unchecked", digest)
        if self.reference is not None and record.digest != self.reference[index]:
            record.status = "changed"
            record.message = "output differs from the warm-up round's for the same inputs"
        return record

    def check_outputs(self, records: list[OpRecord]) -> None:
        """Check each distinct output once and mark ``records`` (whole rounds,
        in op order) ok or wrong. Runs after the timed rounds, so the checks
        add neither time nor memory to what is measured."""
        for (index, digest), output in self._unchecked.items():
            self._verdicts[index][digest] = self._check(self.ops[index], output)
        self._unchecked.clear()
        for position, record in enumerate(records):
            if record.status == "unchecked":
                message = self._verdicts[position % len(self.ops)][record.digest]
                record.status = "ok" if message is None else "wrong"
                record.message = message

    @staticmethod
    def _check(op: workloads.Op, output) -> str | None:
        try:
            op.check(output)
        except workloads.Mismatch as exc:
            return str(exc)
        except Exception as exc:  # a check that cannot read the output rejects it
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None


class SetupTimer:
    """Times of a fresh ``python -c 'import axdesign.cli'``, taken one at a
    time so that a run can spread them over its length. Each is measured in
    wall time and scaled to the reference host speed like the op latencies;
    the metric is the median of the scaled times."""

    def __init__(self, root: Path, host: HostSpeed):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._cmd = [sys.executable, "-c", "import axdesign.cli"]
        self._quiet = {"env": env, "cwd": root, "check": True, "stdout": subprocess.DEVNULL}
        self._host = host
        subprocess.run(self._cmd, **self._quiet)  # writes bytecode caches
        self.times: list[float] = []
        self.ref_times: list[float] = []

    def sample(self) -> float:
        """Takes one sample; returns the wall time it cost, calibration included."""
        start = perf_counter()
        wall, scaled = self._host.time_call(lambda: subprocess.run(self._cmd, **self._quiet))
        self.times.append(wall)
        self.ref_times.append(scaled)
        return perf_counter() - start


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path) -> dict:
    import scipy

    src = root / "src" / "axdesign"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_commit": _git_commit(root),
        "src_axdesign_lines": lines,
    }


def _round_time(records: list[OpRecord]) -> float:
    return sum(r.latency for r in records)


def _timings(latency: np.ndarray, ok: np.ndarray) -> tuple[float, float, float, float]:
    """(ops per second, p50 ms, tail ms, seconds of a typical round) of a
    rounds x ops latency matrix; ``ok`` is each op's share of passed rounds.

    Throughput divides the ops that passed their check by a typical round's
    time: each op's median latency over the rounds, added up. A failed op
    adds time but no work. The tail is each round's k-th slowest op, median
    over rounds: every run, whatever its number of rounds, has at least
    TAIL_BEYOND timed ops above it.
    """
    seconds = float(np.median(latency, axis=0).sum())
    tail = float(np.median(np.sort(latency, axis=1)[:, -_tail_rank()]))
    return float(ok.sum() / seconds), float(np.median(latency)) * 1e3, tail * 1e3, seconds


def _tail_rank() -> int:
    return -(-TAIL_BEYOND // MIN_ROUNDS) + 1


def e2e_metrics(rounds: list[list[OpRecord]], ops: list[workloads.Op],
                peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of the timed rounds, and further figures printed
    beside them (wall-time figures, work rates, error rate, tail percentile).

    The gated timings use latencies scaled to the reference host speed (see
    ``HostSpeed``); the same figures from measured wall time are printed
    beside them without the ``ref_`` prefix.
    """
    latency = np.array([[r.latency for r in rnd] for rnd in rounds])  # rounds x ops
    ref_latency = np.array([[r.ref_latency for r in rnd] for rnd in rounds])
    passed = np.array([[r.status == "ok" for r in rnd] for rnd in rounds])
    ok = passed.mean(axis=0)  # per op: share of rounds in which it passed
    attempted = latency.size
    failed = int(attempted - passed.sum())
    ref_ops_per_s, ref_p50, ref_tail, ref_seconds = _timings(ref_latency, ok)
    ops_per_s, p50, tail, seconds = _timings(latency, ok)
    k = _tail_rank()
    tail_pct = 100.0 * (len(ops) - k) / (len(ops) - 1)
    metrics = {
        "ref_ops_per_s": ref_ops_per_s,
        "ref_op_p50_ms": ref_p50,
        "ref_op_tail_ms": ref_tail,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }
    extra = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "error_rate": failed / attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": (k - 1) * len(rounds),
        "ops_timed": attempted,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
    }
    rows = np.array([op.rows for op in ops]) * ok
    cycles = np.array([op.cycles for op in ops]) * ok
    if rows.any():
        extra["ref_mc_samples_per_s"] = float(rows.sum() / ref_seconds)
        extra["mc_samples_per_s"] = float(rows.sum() / seconds)
    if cycles.any():
        extra["ref_sim_cycles_per_s"] = float(cycles.sum() / ref_seconds)
        extra["sim_cycles_per_s"] = float(cycles.sum() / seconds)
    return metrics, extra


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of the tracer's current round."""
    agg, counts = tracer.agg, tracer.counts

    def field(name, i):
        return agg[name][i] if name in agg else 0

    def calls(name):
        return field(name, 0)

    def total(name):
        return field(name, 1) * 1e-9

    def self_s(name):
        return field(name, 2) * 1e-9

    values = counts["distributions.values_drawn"]
    cycles = counts["tank.cycles"]
    return {
        "distributions.generator_calls": calls("distributions.generator"),
        "distributions.generator_s": total("distributions.generator"),
        "distributions.draw_calls": calls("distributions.draw"),
        "distributions.draw_s": total("distributions.draw"),
        "distributions.values_drawn": values,
        "distributions.ns_per_value": field("distributions.draw", 1) / values if values else 0.0,
        "propagation.sample_self_s": self_s("propagation.sample"),
        "propagation.table_bytes_max": counts["propagation.table_bytes_max"],
        "propagation.csv_s": total("propagation.csv"),
        "propagation.csv_rows": counts["propagation.csv_rows"],
        "tank.self_s": self_s("tank.simulate"),
        "tank.us_per_cycle": field("tank.simulate", 1) * 1e-3 / cycles if cycles else 0.0,
        "tank.cycles": cycles,
        "info.self_s": sum(self_s(n) for n in ("info.analytic", "info.joint", "info.chain",
                                               "info.samples")),
        "info.rows_scored": counts["info.rows_scored"],
        "info.chain_links": counts["info.chain_links"],
        "coupling.classify_s": total("coupling.classify"),
        "coupling.classify_max_s": field("coupling.classify", 3) * 1e-9,
        "coupling.classify_calls": calls("coupling.classify"),
        "coupling.failures": field("coupling.classify", 4),
        "model.parse_s": total("model.parse"),
        "model.validate_s": total("model.validate"),
        "report.doc_s": total("report.doc"),
        "report.render_s": total("report.render"),
        "report.bytes": counts["report.bytes"],
        "cli.self_s": self_s("cli.main"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        work: Path, results: Path, smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "smoke": smoke, "provenance": provenance(root)}
    metrics: dict = {}
    host = None if trace else HostSpeed()
    setup = None if trace else SetupTimer(root, host)

    ops = workloads.build(workload, seed, work, root, smoke)
    runner = Runner(ops)
    warmup = runner.round()
    record["warmup_s"] = _round_time(warmup)
    timed: list[list[OpRecord]] = []
    problems: list[str] = []

    if not trace:
        setup.sample()
        started = perf_counter()
        # One set-up sample per stretch of the run, so that their median
        # sees the host as the timed rounds do; their time is not run time.
        setup_every = seconds / (SETUP_REPEATS - 1)
        while len(timed) < MIN_ROUNDS or perf_counter() - started < seconds:
            timed.append(runner.round(host=host))
            elapsed = perf_counter() - started
            if len(setup.times) < SETUP_REPEATS and elapsed >= setup_every * len(setup.times):
                started += setup.sample()
        while len(setup.times) < SETUP_REPEATS:
            setup.sample()
        metrics["setup_s"] = statistics.median(setup.ref_times)
        record["setup_runs_s"] = {"wall": setup.times, "ref": setup.ref_times}
        record["calibration_kernel_s"] = host.kernel_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check_outputs([r for rnd in [warmup] + timed for r in rnd])
        e2e, extra = e2e_metrics(timed, ops, peak_rss_mb)
        metrics.update(e2e)
        record["figures"] = {"setup_wall_s": statistics.median(setup.times), **extra}
    else:
        tracer = Tracer()
        started = perf_counter()
        plain_times, traced_times, per_round = [], [], []
        while len(per_round) < MIN_PAIRS or perf_counter() - started < seconds:
            plain = runner.round()
            tracer.reset_round(len(per_round))
            traced = runner.round(tracer)
            timed += [plain, traced]
            plain_times.append(_round_time(plain))
            traced_times.append(_round_time(traced))
            per_round.append(layer_metrics(tracer))
        runner.check_outputs([r for rnd in [warmup] + timed for r in rnd])
        for name in LAYER_UNITS:
            if name == "trace.overhead_s":
                continue
            values = [layer[name] for layer in per_round]
            if name in EXACT_LAYER_METRICS:
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced rounds: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        record["traced_output_matches_untraced"] = all(
            r.digest == ref for rnd in timed[1::2] for r, ref in zip(rnd, runner.reference))
        metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                       - statistics.median(plain_times))
        record["round_s"] = {"untraced": plain_times, "traced": traced_times}
        spans_path = results / f"{workload}-seed{seed}.spans.tsv"
        record["spans"] = {"path": str(spans_path.relative_to(root)),
                           "count": tracer.write_spans(spans_path)}

    records = [r for rnd in timed for r in rnd]
    for op, rec in zip(ops, warmup):
        if rec.status == "wrong":
            problems.append(f"{op.label}: {rec.message}")
    for index, rec in enumerate(records):
        if rec.status in ("wrong", "changed"):
            problems.append(f"{ops[index % len(ops)].label}: {rec.message}")
    failures = sorted({f"{ops[i % len(ops)].label}: {r.message}"
                       for i, r in enumerate(records) if r.status == "raised"})
    record["problems"] = sorted(set(problems))
    record["raised"] = failures
    record["digests"] = {op.label: digest for op, digest in zip(ops, runner.reference)}
    record["latencies_ms"] = [[1e3 * r.latency for r in rnd] for rnd in timed]
    record["op_median_ms"] = {
        op.label: 1e3 * statistics.median(rnd[i].latency for rnd in timed)
        for i, op in enumerate(ops)}
    units = LAYER_UNITS if trace else E2E_UNITS
    line = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r.status != "ok" for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = line
    return line, record
