"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.linalg.serialization import SUFFIX


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.machine == "shaheen"
        assert args.nodes == 512
        assert args.config == "hicma"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Shaheen II" in out and "Fugaku" in out

    def test_factorize_small(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "factorize",
                "--viruses", "2",
                "--points-per-virus", "200",
                "--tile-size", "100",
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "residual" in out
        assert "svd-fallback=0 " in out  # b = 100 tiles run gesdd itself
        # valid Chrome trace JSON: worker-lane metadata + duration events
        data = json.loads(trace.read_text())
        assert data["traceEvents"]
        durations = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert durations
        assert {"name", "ph", "ts", "dur"} <= set(durations[0])
        lane_names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "worker-0" in lane_names

    def test_factorize_no_trim(self, capsys):
        rc = main(
            ["factorize", "--viruses", "2", "--points-per-virus", "150",
             "--tile-size", "100", "--no-trim"]
        )
        assert rc == 0
        assert "full DAG" in capsys.readouterr().out

    def test_simulate(self, capsys):
        rc = main(
            ["simulate", "--matrix-size", "1.49e6", "--nodes", "64",
             "--machine", "fugaku", "--config", "lorapo"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Lorapo" in out and "Fugaku" in out
        assert "cp efficiency" in out

    def test_deform(self, capsys):
        rc = main(["deform", "--points", "300"])
        assert rc == 0
        assert "boundary error" in capsys.readouterr().out

    def test_tune(self, capsys):
        rc = main(
            ["tune", "--matrix-size", "5e5", "--nodes", "16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "<-- best" in out

    def test_serve(self, capsys, tmp_path):
        trace = tmp_path / "serve_trace.json"
        rc = main(
            ["serve", "--viruses", "2", "--points-per-virus", "120",
             "--tile-size", "60", "--requests", "12", "--operators", "1",
             "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit-rate" in out and "latency[solve]" in out
        data = json.loads(trace.read_text())
        names = {e["args"]["name"] for e in data["traceEvents"]
                 if e["ph"] == "M"}
        assert "repro.service" in names and "solve-worker-0" in names
        assert "dispatcher" not in names  # workers pull; nothing dispatches

    @pytest.mark.timeout(180)
    def test_serve_fleet(self, capsys, tmp_path):
        rc = main(
            ["serve-fleet", "--viruses", "2", "--points-per-virus", "100",
             "--tile-size", "50", "--operators", "1", "--requests", "8",
             "--shards", "2", "--workers-per-shard", "1",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet up: 2 shard(s)" in out
        assert "completed=8 failed=0" in out
        assert "shard-0" in out and "shard-1" in out

    @pytest.mark.timeout(180)
    def test_serve_fleet_kill_shard_recovers(self, capsys, tmp_path):
        rc = main(
            ["serve-fleet", "--viruses", "2", "--points-per-virus", "100",
             "--tile-size", "50", "--operators", "2", "--requests", "12",
             "--shards", "2", "--workers-per-shard", "1", "--kill-shard", "0",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos: SIGKILLed shard-0" in out
        assert "failover: killed shard-0" in out
        assert "mismatches=0" in out


class TestCheckpointFlags:
    ARGS = ["factorize", "--viruses", "2", "--points-per-virus", "120",
            "--tile-size", "60"]

    def test_checkpoint_dir_writes_and_reports(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        rc = main(self.ARGS + ["--checkpoint-dir", str(ck),
                               "--checkpoint-every", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoints:" in out
        assert list(ck.glob(f"ckpt-*{SUFFIX}"))

    def test_resume_requires_checkpoint_dir(self, capsys):
        rc = main(self.ARGS + ["--resume"])
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_empty_dir_starts_from_scratch(self, capsys, tmp_path):
        rc = main(self.ARGS + ["--checkpoint-dir", str(tmp_path / "none"),
                               "--resume"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "starting from scratch" in out
        assert "residual" in out

    def test_resume_replays_only_unfinished(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        main(self.ARGS + ["--checkpoint-dir", str(ck),
                          "--checkpoint-every", "1"])
        capsys.readouterr()
        rc = main(self.ARGS + ["--checkpoint-dir", str(ck), "--resume"])
        assert rc == 0
        out = capsys.readouterr().out
        # cadence 1 checkpointed every task: the resume replays nothing
        assert "0 written" not in out.split("checkpoints:")[0]
        assert "tasks resumed" in out

    def test_save_factor_roundtrips(self, capsys, tmp_path):
        from repro.linalg.serialization import load_tlr

        path = tmp_path / "factor.tlr"
        rc = main(self.ARGS + ["--save-factor", str(path)])
        assert rc == 0
        assert "factor written" in capsys.readouterr().out
        assert load_tlr(path).n == 240

    def test_verify_tiles_flag_accepted(self, capsys):
        rc = main(self.ARGS + ["--verify-tiles"])
        assert rc == 0
        assert "residual" in capsys.readouterr().out


class TestFaultInjectionFlags:
    def test_factorize_with_injected_faults_recovers(self, capsys):
        rc = main(
            ["factorize", "--viruses", "4", "--points-per-virus", "60",
             "--tile-size", "30", "--inject-faults", "all:0.2",
             "--fault-seed", "42", "--max-retries", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "task retries" in out
        assert "residual" in out

    def test_factorize_fail_fast_names_task(self, capsys):
        rc = main(
            ["factorize", "--viruses", "4", "--points-per-virus", "60",
             "--tile-size", "30", "--inject-faults", "POTRF:1.0",
             "--max-retries", "0"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "POTRF(0)" in err and "failed after 1 attempt" in err

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        with pytest.raises(ValueError, match="unknown fault kind"):
            main(
                ["factorize", "--viruses", "2", "--points-per-virus", "60",
                 "--tile-size", "30", "--inject-faults", "all:meltdown:0.1"]
            )
