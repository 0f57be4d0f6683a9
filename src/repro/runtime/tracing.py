"""Execution tracing: per-task events and per-kernel aggregation.

Mirrors the PaRSEC instrumentation used in the paper's companion
analysis work (ProTools'19): start/stop timestamps, kernel class,
flops, and the worker that ran the task.  Traces export to
the Chrome trace-event JSON format (view in ``chrome://tracing`` or
Perfetto), the modern equivalent of PaRSEC's .prof visualization.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One executed task."""

    klass: str
    params: tuple[int, ...]
    start: float
    end: float
    flops: float = 0.0
    worker: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    """An append-only log of task executions.

    ``record`` is thread-safe: the parallel execution engine's workers
    and the serving subsystem's worker pool append concurrently to one
    trace.
    """

    events: list[TraceEvent] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def worker_lanes(self) -> dict[int, int]:
        """Events per worker lane, keyed by worker id (sorted).

        One key per lane that executed at least one task — the rows a
        Chrome-trace render of this trace will show.
        """
        lanes: dict[int, int] = defaultdict(int)
        for e in self.events:
            lanes[e.worker] += 1
        return dict(sorted(lanes.items()))

    @property
    def makespan(self) -> float:
        """Span from the first task start to the last task end."""
        if not self.events:
            return 0.0
        return max(e.end for e in self.events) - min(e.start for e in self.events)

    def time_by_class(self) -> dict[str, float]:
        """Total busy time per task class."""
        agg: dict[str, float] = defaultdict(float)
        for e in self.events:
            agg[e.klass] += e.duration
        return dict(agg)

    def total_flops(self) -> float:
        return sum(e.flops for e in self.events)

    def busy_time(self) -> float:
        return sum(e.duration for e in self.events)

    def to_chrome_trace(
        self,
        process_name: str | None = None,
        thread_names: dict[int, str] | None = None,
        label_worker_lanes: bool = False,
    ) -> str:
        """Serialize as Chrome trace-event JSON (complete events).

        All events share one process row (pid 0) and workers map to
        thread ids; durations are microseconds, as the format requires.
        ``process_name`` and ``thread_names`` (worker id -> label) emit
        metadata events so consumers other than the factorization
        engine — e.g. the serving subsystem's solver workers — appear
        with readable lane names in ``chrome://tracing`` / Perfetto.
        ``label_worker_lanes=True``
        derives default ``worker-N`` labels for every lane present in
        the trace (parallel-engine runs), without having to know the
        worker count up front.
        """
        if label_worker_lanes:
            derived = {w: f"worker-{w}" for w in self.worker_lanes()}
            derived.update(thread_names or {})
            thread_names = derived
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": label}}
            for tid, label in (thread_names or {}).items()
        ]
        if process_name is not None:
            meta.insert(
                0, {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": process_name}}
            )
        events = meta + [
            {
                "name": f"{e.klass}{e.params}",
                "cat": e.klass,
                "ph": "X",
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
                "pid": 0,
                "tid": e.worker,
                "args": {"flops": e.flops},
            }
            for e in self.events
        ]
        return json.dumps({"traceEvents": events}, indent=None)

    def save_chrome_trace(self, path, **kwargs) -> None:
        """Write :meth:`to_chrome_trace` output to ``path``."""
        with open(path, "w") as f:
            f.write(self.to_chrome_trace(**kwargs))
