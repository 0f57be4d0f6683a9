"""Tests for the serving metrics layer and its tracing hook."""

import json

import pytest

from repro.service import ServiceMetrics, percentile


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSnapshot:
    def test_counters_and_hit_rate(self):
        m = ServiceMetrics()
        m.count("cache_hits", 3)
        m.count("cache_misses")
        d = m.to_dict()
        assert d["counters"]["cache_hits"] == 3
        assert d["cache_hit_rate"] == pytest.approx(0.75)

    def test_disk_hits_count_as_hits(self):
        m = ServiceMetrics()
        m.count("cache_disk_hits", 1)
        m.count("cache_misses", 1)
        assert m.to_dict()["cache_hit_rate"] == pytest.approx(0.5)

    def test_latency_percentiles(self):
        m = ServiceMetrics()
        for v in [0.010, 0.020, 0.030, 0.100]:
            m.record_latency("solve", v)
        lat = m.to_dict()["latency_seconds"]["solve"]
        assert lat["count"] == 4
        assert lat["p50"] == pytest.approx(0.025)
        assert lat["max"] == pytest.approx(0.100)

    def test_batch_stats_and_gauge(self):
        m = ServiceMetrics()
        m.record_batch(4)
        m.record_batch(8)
        m.set_bytes_resident(12345)
        d = m.to_dict()
        assert d["batch"] == {"count": 2, "max": 8, "mean": 6.0}
        assert d["bytes_resident"] == 12345

    def test_json_round_trip(self):
        m = ServiceMetrics()
        m.count("submitted", 5)
        m.record_latency("solve", 0.01)
        parsed = json.loads(m.to_json())
        assert parsed["counters"]["submitted"] == 5


class TestTracingHook:
    def test_events_land_in_runtime_trace(self):
        m = ServiceMetrics()
        m.record_event("SOLVE", (4, 4), 0.0, 0.5, worker=2, flops=100.0)
        assert len(m.trace.events) == 1
        assert m.trace.events[0].klass == "SOLVE"
        assert m.trace.time_by_class() == {"SOLVE": pytest.approx(0.5)}

    def test_chrome_export_with_thread_names(self, tmp_path):
        m = ServiceMetrics()
        m.record_event("BUILD", (180,), 0.0, 1.0, worker=1)
        path = tmp_path / "trace.json"
        m.save_chrome_trace(
            path,
            process_name="repro.service",
            thread_names={0: "dispatcher", 1: "solve-worker-0"},
        )
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {"repro.service", "dispatcher", "solve-worker-0"} == {
            e["args"]["name"] for e in metas
        }
        spans = [e for e in events if e["ph"] == "X"]
        assert spans[0]["name"].startswith("BUILD")
        assert spans[0]["tid"] == 1


class TestDeadlineSlack:
    def test_slack_summary_counts_late_completions(self):
        m = ServiceMetrics()
        for s in (1.2, 0.4, 0.8):
            m.record_slack("solve", s)
        m.record_slack("solve", -0.1)
        d = m.to_dict()["deadline_slack_seconds"]["solve"]
        assert d["count"] == 4
        assert d["late"] == 1  # the negative sample: finished past its deadline
        assert d["min"] == pytest.approx(-0.1)

    def test_no_slack_section_without_samples(self):
        assert "deadline_slack_seconds" not in ServiceMetrics().to_dict()

    def test_mean_latency_for_retry_after_hints(self):
        m = ServiceMetrics()
        assert m.mean_latency("solve") == 0.0
        m.record_latency("solve", 0.2)
        m.record_latency("solve", 0.4)
        assert m.mean_latency("solve") == pytest.approx(0.3)
