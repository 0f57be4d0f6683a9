"""Execution tracing: per-task events and per-kernel aggregation.

Mirrors the PaRSEC instrumentation used in the paper's companion
analysis work (ProTools'19): start/stop timestamps, kernel class,
flops, and the process/worker that ran the task.  Traces export to
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
    #: OS process id the event was executed in; 0 = the recording
    #: process (what both executors leave).  An event taken over from
    #: another process carries its pid, so the Chrome export can give
    #: every process its own lane group.
    pid: int = 0

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

    def __len__(self) -> int:
        return len(self.events)

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

    def count_by_class(self) -> dict[str, int]:
        agg: dict[str, int] = defaultdict(int)
        for e in self.events:
            agg[e.klass] += 1
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

        Workers map to thread ids; durations are microseconds, as the
        format requires.  ``process_name`` and ``thread_names`` (worker
        id -> label) emit metadata events so consumers other than the
        factorization engine — e.g. the serving subsystem's solver
        workers — appear with readable lane names in
        ``chrome://tracing`` / Perfetto.  ``label_worker_lanes=True``
        derives default ``worker-N`` labels for every lane present in
        the trace (parallel-engine runs), without having to know the
        worker count up front.
        """
        if label_worker_lanes:
            derived = {w: f"worker-{w}" for w in self.worker_lanes()}
            derived.update(thread_names or {})
            thread_names = derived
        # Lane topology: the executors leave every event at pid 0 (one
        # process row, workers as threads); events stamped with another
        # process's pid get a row group per process in chrome://tracing.
        lanes = sorted({(e.pid, e.worker) for e in self.events})
        pids = sorted({pid for pid, _ in lanes}) or [0]
        meta: list[dict] = []
        for pid in pids:
            if pid == 0:
                if process_name is not None:
                    label = process_name
                else:
                    continue
            else:
                base = f" ({process_name})" if process_name is not None else ""
                label = f"worker pid {pid}{base}"
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": label},
                }
            )
        for tid, label in (thread_names or {}).items():
            # pid 0 labels every named lane (labels may name lanes
            # that ran no tasks); nonzero pids label only lanes seen.
            targets = [p for p in pids if p != 0 and (p, tid) in lanes]
            if 0 in pids or not lanes:
                targets.insert(0, 0)
            for pid in targets:
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": label},
                    }
                )
        events = meta + [
            {
                "name": f"{e.klass}{e.params}",
                "cat": e.klass,
                "ph": "X",
                "ts": e.start * 1e6,
                "dur": e.duration * 1e6,
                "pid": e.pid,
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
