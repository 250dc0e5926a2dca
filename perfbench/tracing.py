"""Spans around the calls into each axdesign layer, recorded from outside.

Nothing under ``src/`` knows about tracing. :class:`Tracer` replaces the
attributes through which one layer calls the next (``axdesign.cli.classify``,
``axdesign.tank.draw_from``, ``RngState.generator``, ...) with wrappers that
record a span per call and restores the originals on :meth:`Tracer.remove`.
Spans live in flat integer arrays in memory and are written out once, at the
end of the run, by :meth:`Tracer.write_spans`.

A span's self time is its duration minus the time covered by its child
spans; both are accumulated per span name as calls complete, so the
per-layer metrics need no pass over the span list.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

import axdesign.cli as cli
import axdesign.coupling as coupling
import axdesign.distributions as distributions
import axdesign.propagation as propagation
import axdesign.tank as tank

__all__ = ["Tracer", "call_sites"]


def _rows(report) -> int:
    return report.mc.n_samples if report.mc is not None else 0


def _count_render(counts, args, result):
    counts["report.bytes"] += len(result)


def _count_info(counts, args, result):
    counts["info.rows_scored"] += _rows(result)


def _count_chain(counts, args, result):
    counts["info.rows_scored"] += _rows(result)
    counts["info.chain_links"] += len(result.per_fr)


def _count_table(counts, args, result):
    values = getattr(result, "values", result)
    rows, cols = values.shape
    # Computed from the returned shape, not measured memory.
    counts["propagation.table_bytes_max"] = max(
        counts["propagation.table_bytes_max"], rows * cols * 8)


def _count_csv(counts, args, result):
    counts["propagation.csv_rows"] += args[0].n


def _count_cycles(counts, args, result):
    counts["tank.cycles"] += len(result)


def _count_values(counts, args, result):
    counts["distributions.values_drawn"] += len(result)


def call_sites():
    """(owner, attribute, span name, counter) for every wrapped call site.

    The owner is the module or class through which the caller looks the
    callee up, so a wrapper placed there sees every call of that edge.
    """
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_spec", "model.parse", None),
        (cli, "validate_spec", "model.validate", None),
        (cli, "classify", "coupling.classify", None),
        (coupling, "classify", "coupling.classify", None),
        (cli, "spec_echo", "report.doc", None),
        (cli, "classification_doc", "report.doc", None),
        (cli, "info_doc", "report.doc", None),
        (cli, "render_json", "report.render", _count_render),
        (cli, "render_text", "report.render", _count_render),
        (cli, "fr_information", "info.analytic", None),
        (cli, "system_information_independent", "info.analytic", None),
        (cli, "system_information_joint", "info.joint", _count_info),
        (cli, "conditional_chain_information", "info.chain", _count_chain),
        (cli, "system_information_from_samples", "info.samples", _count_info),
        (cli, "simulate_tank", "propagation.sample", _count_table),
        (propagation.LinearModel, "sample_frs", "propagation.sample", _count_table),
        (propagation.ScenarioModel, "sample_frs", "propagation.sample", _count_table),
        (propagation.SampleSet, "to_csv", "propagation.csv", _count_csv),
        (propagation, "simulate", "tank.simulate", _count_cycles),
        (propagation, "draw_from", "distributions.draw", _count_values),
        (tank, "draw_from", "distributions.draw", _count_values),
        (distributions.RngState, "generator", "distributions.generator", None),
    ]


class Tracer:
    """Records spans (id, parent, round, op, name, start, end) in memory and
    per-name aggregates for the current round."""

    _COLUMNS = ("span", "parent", "round", "op", "name", "start_ns", "end_ns")

    def __init__(self):
        self.names: list[str] = []
        self.spans = {col: array("q") for col in self._COLUMNS}
        self.round = -1
        self.op = -1
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._saved: list[tuple] = []
        self.reset_round(0)

    def reset_round(self, round_index: int) -> None:
        """Start a new round: aggregates restart, spans keep accumulating."""
        self.round = round_index
        # name -> [calls, total ns, self ns, max ns, raised]
        self.agg: dict[str, list[int]] = {}
        self.counts: Counter = Counter()

    def _record(self, name_id, span_id, parent, start, end, child_ns, ok):
        spans = self.spans
        spans["span"].append(span_id)
        spans["parent"].append(parent)
        spans["round"].append(self.round)
        spans["op"].append(self.op)
        spans["name"].append(name_id)
        spans["start_ns"].append(start)
        spans["end_ns"].append(end)
        dur = end - start
        entry = self.agg.get(self.names[name_id])
        if entry is None:
            entry = self.agg[self.names[name_id]] = [0, 0, 0, 0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_ns
        entry[3] = max(entry[3], dur)
        entry[4] += 0 if ok else 1

    def wrap(self, name: str, fn, counter=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer._record(name_id, span_id, parent, start, end, frame[1], ok)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every call site; :meth:`remove` puts the originals back."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in call_sites():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> int:
        """Write all spans as tab-separated text; returns the span count."""
        cols = [self.spans[c] for c in self._COLUMNS]
        name_col = self.spans["name"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\t".join(self._COLUMNS) + "\n")
            for i in range(len(name_col)):
                row = [str(col[i]) for col in cols]
                row[4] = self.names[name_col[i]]
                handle.write("\t".join(row) + "\n")
        return len(name_col)
