"""Timing and span recording for the benchmark's calls into cleanpair.

Every call the benchmark makes into a cleanpair module goes through
``Recorder.call(layer, name)``.  The call is always timed, with
``time.perf_counter`` less any time the reference sampler spent inside
it (``clock``); with tracing on it is also kept as a span
(name, layer, start, end, parent, op id) in memory.  Spans are written
out only when the run ends.

Spans come from the benchmark's own files, so a layer's span covers the
whole call, including any lower layer the call reaches inside cleanpair.
Each stage of a workload is one op: a root span (layer ``perfbench``)
whose children are the calls of that stage.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

BENCH_LAYER = "perfbench"


class CallTimer:
    """Handle yielded by ``Recorder.call``; ``elapsed`` is set on exit."""

    __slots__ = ("elapsed",)

    def __init__(self):
        self.elapsed = 0.0


class Recorder:
    def __init__(self, trace: bool, clock=time.perf_counter):
        self.trace = trace
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent, op, layer, name, start, end)
        self._stack: list[int] = []
        self._op = 0
        self._depth = 0
        self._stage_program_s = 0.0

    @contextmanager
    def stage(self, name: str):
        """One op: a root span; yields a timer whose ``elapsed`` is the time
        spent inside cleanpair calls of this stage (checks excluded)."""
        self._op += 1
        self._stage_program_s = 0.0
        timer = CallTimer()
        with self._span(BENCH_LAYER, name):
            yield timer
        timer.elapsed = self._stage_program_s

    @contextmanager
    def call(self, layer: str, name: str, counted: bool = True):
        """Time one call into ``layer``.  Unless ``counted`` is false (a call
        made only to check an output), its time adds to the stage's."""
        timer = CallTimer()
        self._depth += 1
        start = self.clock()
        try:
            with self._span(layer, name):
                yield timer
        finally:
            timer.elapsed = self.clock() - start
            self._depth -= 1
            if self._depth == 0 and counted:
                self._stage_program_s += timer.elapsed

    @contextmanager
    def _span(self, layer: str, name: str):
        if not self.trace:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self._op, layer, name, start, end)

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child_s = [0.0] * len(self.spans)
        for _, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = {}
        for span_id, _, _, layer, _, start, end in self.spans:
            out[layer] = out.get(layer, 0.0) + (end - start) - child_s[span_id]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, layer, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def span_cost_s(samples: int = 2000) -> tuple[float, float]:
    """Seconds per ``call`` with tracing off and on, measured on empty
    calls; the difference is what tracing adds to every recorded call."""
    costs = []
    for trace in (False, True):
        rec = Recorder(trace)
        with rec.stage("calibrate"):
            start = time.perf_counter()
            for _ in range(samples):
                with rec.call(BENCH_LAYER, "empty"):
                    pass
            costs.append((time.perf_counter() - start) / samples)
    return costs[0], costs[1]
