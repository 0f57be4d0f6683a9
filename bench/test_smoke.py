"""Smoke test of the benchmark harness: ``pytest bench/`` (kept out of
the tier-1 ``testpaths``).  Runs every workload at ``--quick`` size in
both passes and checks the output against ``BENCHMARK.json``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in CONTRACT[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_quick_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seconds", "1",
         "--workload", workload, "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
        if not trace:
            assert got["value"] > 0.0, f"{m['name']} must never be 0"
        # every metric is printed by name with its unit
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and bench/ the
    command must fail without printing a result."""
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", CONTRACT["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
