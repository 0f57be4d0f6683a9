"""Spans recorded from the benchmark's own files around calls into
each layer: ``{name, start, end, parent, rep}`` kept in memory, written
as one Chrome trace at exit.  A layer's self time is its span minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.rep = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Record a finished span (also used to lift public result
        fields -- ``setup_seconds``, ``trace.events`` -- into spans)."""
        with self._lock:
            self.spans.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "rep": self.rep,
                    "tid": threading.get_ident(),
                }
            )
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        idx = self.add(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    # ------------------------------------------------------------------

    def _covered(self, parent: dict, children: list[dict]) -> float:
        """Length of the union of ``children`` clipped to ``parent``."""
        ivals = sorted(
            (max(c["start"], parent["start"]), min(c["end"], parent["end"]))
            for c in children
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def table(self) -> list[dict]:
        """Per span name: calls, total and self seconds, and the share
        of the parent name's total this name accounts for."""
        kids: dict[int, list[dict]] = defaultdict(list)
        for sp in self.spans:
            if sp["parent"] is not None:
                kids[sp["parent"]].append(sp)
        agg: dict[str, dict] = {}
        for i, sp in enumerate(self.spans):
            dur = sp["end"] - sp["start"]
            parent = self.spans[sp["parent"]]["name"] if sp["parent"] is not None else ""
            row = agg.setdefault(
                sp["name"],
                {"name": sp["name"], "parent": parent, "calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - self._covered(sp, kids[i])
        for row in agg.values():
            parent_total = agg[row["parent"]]["total_s"] if row["parent"] in agg else 0.0
            row["share_of_parent"] = row["total_s"] / parent_total if parent_total else 1.0
        return list(agg.values())

    def coverage(self, name: str) -> float:
        """Fraction of all ``name`` spans covered by their children."""
        row = next((r for r in self.table() if r["name"] == name), None)
        if row is None or row["total_s"] == 0.0:
            return 0.0
        return 1.0 - row["self_s"] / row["total_s"]

    def write_chrome_trace(self, path) -> None:
        t0 = min((sp["start"] for sp in self.spans), default=0.0)
        tids = {tid: i for i, tid in enumerate(sorted({sp["tid"] for sp in self.spans}))}
        events = [
            {
                "name": sp["name"],
                "ph": "X",
                "ts": (sp["start"] - t0) * 1e6,
                "dur": (sp["end"] - sp["start"]) * 1e6,
                "pid": 1,
                "tid": tids[sp["tid"]],
                "args": {"rep": sp["rep"], "parent": sp["parent"]},
            }
            for sp in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def span(recorder: SpanRecorder | None, name: str):
    """``recorder.span(name)``, or nothing at all in the span-free pass."""
    return recorder.span(name) if recorder is not None else nullcontext()
