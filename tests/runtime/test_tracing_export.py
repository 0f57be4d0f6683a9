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

    def test_factorize_cli_export_is_pinned(self, trace):
        """What ``repro factorize --trace`` writes for a 2-worker run:
        one process row, one ``worker-N`` lane per worker."""
        assert trace.to_chrome_trace(
            process_name="repro.factorize", label_worker_lanes=True
        ) == (
            '{"traceEvents": ['
            '{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "repro.factorize"}}, '
            '{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "worker-0"}}, '
            '{"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "worker-1"}}, '
            '{"name": "POTRF(0,)", "cat": "POTRF", "ph": "X", "ts": 0.0, "dur": 500000.0, '
            '"pid": 0, "tid": 0, "args": {"flops": 100.0}}, '
            '{"name": "TRSM(1, 0)", "cat": "TRSM", "ph": "X", "ts": 500000.0, "dur": 500000.0, '
            '"pid": 0, "tid": 1, "args": {"flops": 50.0}}]}'
        )
