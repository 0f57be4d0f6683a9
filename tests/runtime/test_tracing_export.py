"""Tests for trace aggregation and Chrome trace-event export."""

import json

import pytest

from repro.runtime.tracing import Trace, TraceEvent


@pytest.fixture()
def trace():
    t = Trace()
    t.record(TraceEvent("POTRF", (0,), 0.0, 0.5, flops=100.0, worker=0))
    t.record(TraceEvent("TRSM", (1, 0), 0.5, 1.0, flops=50.0, worker=1))
    return t


class TestChromeExport:
    def test_valid_json_schema(self, trace):
        data = json.loads(trace.to_chrome_trace())
        events = data["traceEvents"]
        assert len(events) == 2
        e = events[0]
        assert e["ph"] == "X"
        assert e["name"] == "POTRF(0,)"
        assert e["ts"] == 0.0
        assert e["dur"] == pytest.approx(0.5e6)  # microseconds
        assert e["tid"] == 0
        assert e["args"]["flops"] == 100.0

    def test_save_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.json"
        trace.save_chrome_trace(path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 2

    def test_empty_trace(self):
        data = json.loads(Trace().to_chrome_trace())
        assert data["traceEvents"] == []

    def test_workers_map_to_tids(self, trace):
        data = json.loads(trace.to_chrome_trace())
        assert {e["tid"] for e in data["traceEvents"]} == {0, 1}

    def test_foreign_pids_get_their_own_process_rows(self):
        """Events stamped with another process's pid form one row group
        per process, and lanes are labelled only where they ran."""
        t = Trace()
        t.record(TraceEvent("POTRF", (0,), 0.0, 0.5, worker=0, pid=71))
        t.record(TraceEvent("TRSM", (1, 0), 0.5, 1.0, worker=1, pid=72))
        events = json.loads(
            t.to_chrome_trace(process_name="run", label_worker_lanes=True)
        )["traceEvents"]
        rows = {e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"}
        assert rows == {71: "worker pid 71 (run)", 72: "worker pid 72 (run)"}
        lanes = {(e["pid"], e["tid"]) for e in events if e["name"] == "thread_name"}
        assert lanes == {(71, 0), (72, 1)}
        assert {e["pid"] for e in events if e["ph"] == "X"} == {71, 72}
