"""Serving metrics: latency percentiles, hit rates, batch shapes.

Counters and reservoirs are updated from client and worker threads
under one lock and snapshot to a plain dict (JSON-safe) on
demand.  Every timed service phase is also recorded as a
:class:`repro.runtime.tracing.TraceEvent`, so a serving run exports to
the same Chrome trace timeline as a factorization run — one
instrumentation story across the whole stack.
"""

from __future__ import annotations

import json
import threading
from collections import Counter

from repro.runtime.tracing import Trace, TraceEvent

__all__ = ["ServiceMetrics", "percentile"]


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100]) of samples.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    >>> percentile([5.0], 99)
    5.0
    """
    if not samples:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    s = sorted(samples)
    pos = (len(s) - 1) * (p / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


class ServiceMetrics:
    """Aggregated serving statistics plus a task-level trace."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.trace = Trace()
        self._counters: Counter[str] = Counter()
        self._latencies: dict[str, list[float]] = {}
        self._batch_sizes: list[int] = []
        self._bytes_resident = 0
        #: deadline slack (deadline minus completion time, seconds) per
        #: request kind at the moment the result was delivered —
        #: negative samples mean work finished past its deadline, the
        #: exact thing admission control exists to prevent.
        self._slack: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # recording (called by the service internals)
    # ------------------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] += delta

    def record_latency(self, kind: str, seconds: float) -> None:
        with self._lock:
            self._latencies.setdefault(kind, []).append(float(seconds))

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._batch_sizes.append(int(size))

    def record_slack(self, kind: str, seconds: float) -> None:
        """Record remaining deadline slack at completion time."""
        with self._lock:
            self._slack.setdefault(kind, []).append(float(seconds))

    def set_bytes_resident(self, nbytes: int) -> None:
        with self._lock:
            self._bytes_resident = int(nbytes)

    def merge_counters(self, counters, prefix: str = "") -> None:
        """Fold another metrics snapshot's counters into this one.

        The fleet aggregates per-shard counter snapshots (shipped in
        heartbeats and drain replies) into its own metrics under a
        ``prefix`` (e.g. ``"shard_"``), so cache hit rates and shed
        counts across the whole fleet read from one place.  Merging is
        additive; call it with each shard's *delta* or final snapshot,
        not repeatedly with cumulative ones.
        """
        with self._lock:
            for name, value in dict(counters).items():
                self._counters[f"{prefix}{name}"] += int(value)

    def record_event(
        self,
        klass: str,
        params: tuple[int, ...],
        start: float,
        end: float,
        worker: int = 0,
        flops: float = 0.0,
    ) -> None:
        """Log one timed phase into the Chrome-exportable trace."""
        with self._lock:
            self.trace.record(
                TraceEvent(
                    klass=klass,
                    params=params,
                    start=start,
                    end=end,
                    flops=flops,
                    worker=worker,
                )
            )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def mean_latency(self, kind: str) -> float:
        """Mean recorded latency for ``kind`` (0.0 with no samples).

        Admission control uses this as its service-time estimate when
        computing a ``Retry-After`` hint for shed requests.
        """
        with self._lock:
            samples = self._latencies.get(kind)
            return (sum(samples) / len(samples)) if samples else 0.0

    def to_dict(self) -> dict:
        """JSON-safe snapshot of every counter, gauge and percentile."""
        with self._lock:
            counters = dict(self._counters)
            latencies = {k: list(v) for k, v in self._latencies.items()}
            slack = {k: list(v) for k, v in self._slack.items()}
            batches = list(self._batch_sizes)
            resident = self._bytes_resident
        hits = counters.get("cache_hits", 0) + counters.get("cache_disk_hits", 0)
        lookups = hits + counters.get("cache_misses", 0)
        out: dict = {
            "counters": counters,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "bytes_resident": resident,
            "batch": {
                "count": len(batches),
                "max": max(batches) if batches else 0,
                "mean": (sum(batches) / len(batches)) if batches else 0.0,
            },
            "latency_seconds": {},
        }
        for kind, samples in latencies.items():
            out["latency_seconds"][kind] = {
                "count": len(samples),
                "mean": sum(samples) / len(samples),
                "p50": percentile(samples, 50),
                "p90": percentile(samples, 90),
                "p99": percentile(samples, 99),
                "max": max(samples),
            }
        if slack:
            out["deadline_slack_seconds"] = {}
            for kind, samples in slack.items():
                out["deadline_slack_seconds"][kind] = {
                    "count": len(samples),
                    "mean": sum(samples) / len(samples),
                    "p1": percentile(samples, 1),
                    "p10": percentile(samples, 10),
                    "p50": percentile(samples, 50),
                    "min": min(samples),
                    # completions past their deadline: must stay 0 —
                    # expired work is shed, never executed
                    "late": sum(1 for s in samples if s < 0.0),
                }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save_chrome_trace(self, path, **kwargs) -> None:
        """Export the serving timeline via :mod:`repro.runtime.tracing`."""
        self.trace.save_chrome_trace(path, **kwargs)
