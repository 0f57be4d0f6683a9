"""Checkpoint machinery: ledger, sealed checkpoint files, recovery fallback.

The persistence-layer half of the checkpoint/restart story — what ends
up on disk, how corruption is detected at load, and how the loader
falls back — separate from the engine-integration tests in
``tests/core/test_checkpoint_resume.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.integrity import TileIntegrityError, tile_checksum
from repro.linalg.serialization import SUFFIX, read, write
from repro.linalg.tile import DenseTile
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.checkpoint import (
    CheckpointManager,
    ChecksumLedger,
    graph_signature,
    load_checkpoint,
)
from tests.tilefile import layout, write_npz


def spd_tlr(n=128, tile=32, accuracy=1e-10, seed=3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 8.0, n)) @ q.T
    return TLRMatrix.from_dense((a + a.T) / 2, tile, accuracy=accuracy)


class TestChecksumLedger:
    def test_record_and_match(self):
        ledger = ChecksumLedger()
        tile = DenseTile(np.eye(4))
        ledger.record((0, 0), tile)
        assert ledger.matches((0, 0), DenseTile(np.eye(4)))
        assert not ledger.matches((0, 0), DenseTile(2 * np.eye(4)))

    def test_unknown_key_passes(self):
        """No recorded checksum means nothing to verify against."""
        assert ChecksumLedger().matches((5, 5), DenseTile(np.eye(2)))

    def test_seed_covers_every_tile(self):
        a = spd_tlr()
        ledger = ChecksumLedger()
        ledger.seed(a)
        assert set(ledger.keys()) == {key for key, _ in a}
        for key, tile in a:
            assert ledger.expected(key) == tile_checksum(tile)


class TestCheckpointFiles:
    @pytest.fixture()
    def written(self, tmp_path):
        """A real checkpointed factorization: (directory, result)."""
        mgr = CheckpointManager(tmp_path, every_tasks=5, keep=10)
        result = tlr_cholesky(spd_tlr(), checkpoint=mgr)
        assert result.checkpoints_written > 0
        return tmp_path, result

    def test_manifest_and_payload_pair_per_checkpoint(self, written):
        """One sealed file per generation, nothing beside it."""
        directory, result = written
        files = sorted(directory.glob(f"ckpt-*{SUFFIX}"))
        assert len(files) == result.checkpoints_written
        assert sorted(directory.iterdir()) == files

    def test_no_stray_temp_files(self, written):
        directory, _ = written
        assert not list(directory.glob(".*.tmp"))

    def test_load_returns_newest(self, written):
        directory, _ = written
        ck = load_checkpoint(directory)
        seqs = sorted(
            int(p.stem.split("-")[1]) for p in directory.glob(f"ckpt-*{SUFFIX}")
        )
        assert ck is not None and ck.seq == seqs[-1]

    def test_checkpoint_tiles_carry_valid_checksums(self, written):
        directory, _ = written
        ck = load_checkpoint(directory)
        for key, tile in ck.tiles.items():
            assert tile_checksum(tile) == ck.checksums[key]

    def test_empty_directory_loads_none(self, tmp_path):
        assert load_checkpoint(tmp_path) is None
        assert load_checkpoint(tmp_path / "does-not-exist") is None

    def test_torn_payload_quarantined_and_falls_back(self, written):
        """Truncating the newest checkpoint must fall back to the
        previous one and quarantine the torn file."""
        directory, _ = written
        files = sorted(directory.glob(f"ckpt-*{SUFFIX}"))
        newest = files[-1]
        newest.write_bytes(newest.read_bytes()[:100])
        ck = load_checkpoint(directory)
        assert ck is not None
        assert ck.seq == int(files[-2].stem.split("-")[1])
        assert (directory / (newest.name + ".corrupt")).exists()

    def test_flipped_payload_bit_detected(self, written):
        directory, _ = written
        files = sorted(directory.glob(f"ckpt-*{SUFFIX}"))
        payload = files[-1]
        raw = bytearray(payload.read_bytes())
        at, length = layout(payload)["payloads"][-1]
        raw[at + length // 2] ^= 0x10
        payload.write_bytes(bytes(raw))
        ck = load_checkpoint(directory)
        # newest quarantined, fell back
        assert ck is None or ck.seq < int(files[-1].stem.split("-")[1])

    def test_unreadable_manifest_quarantined(self, written):
        directory, _ = written
        files = sorted(directory.glob(f"ckpt-*{SUFFIX}"))
        raw = bytearray(files[-1].read_bytes())
        at, length = layout(files[-1])["index"]
        raw[at:at + length] = b"{not json".ljust(length)
        files[-1].write_bytes(bytes(raw))
        ck = load_checkpoint(directory)
        assert ck is not None  # fell back to an older one
        assert (directory / (files[-1].name + ".corrupt")).exists()

    def test_explicit_manifest_path_raises_on_corruption(self, written):
        """A *specific* checkpoint must fail loudly, not silently restart."""
        directory, _ = written
        files = sorted(directory.glob(f"ckpt-*{SUFFIX}"))
        files[-1].write_bytes(b"garbage")
        with pytest.raises(ValueError):
            load_checkpoint(files[-1])

    def test_format_5_checkpoint_is_refused(self, written):
        """A checkpoint of format 5 (an ``.npz`` container) is refused
        by its version when named, and is not a candidate in a scan."""
        directory, _ = written
        old = directory / "ckpt-999999.npz"
        write_npz(old, meta=np.frombuffer(b'{"seq": 999999}', np.uint8))
        with pytest.raises(TileIntegrityError, match="version 1-5"):
            load_checkpoint(old)
        ck = load_checkpoint(directory)
        assert ck is not None and ck.seq < 999999 and old.exists()

    def test_tile_corrupted_after_retirement_is_refused(self, tmp_path):
        """The file carries the digest recorded when the task retired,
        not one taken at flush time: a tile corrupted in memory in
        between is written, but never loaded back."""
        data = spd_tlr()
        graph = tlr_cholesky(spd_tlr()).graph
        task = next(t for t in graph.tasks if t.klass == "POTRF")
        mgr = CheckpointManager(tmp_path, every_tasks=100)
        mgr.bind(graph, data)
        mgr.task_retired(task, data)
        block = data.tile(*task.writes[0]).data
        block[0, 0] = np.nextafter(block[0, 0], np.inf)  # a bit flip in RAM
        path = mgr.flush(data, force=True)
        with pytest.raises(TileIntegrityError, match="checksum mismatch"):
            load_checkpoint(path)
        assert load_checkpoint(tmp_path) is None  # quarantined, no fallback

    def test_keep_prunes_old_generations(self, tmp_path):
        mgr = CheckpointManager(tmp_path, every_tasks=3, keep=2)
        tlr_cholesky(spd_tlr(), checkpoint=mgr)
        assert len(list(tmp_path.glob(f"ckpt-*{SUFFIX}"))) <= 2
        # and the survivors still load
        assert load_checkpoint(tmp_path) is not None


class TestLastDueCheckpoint:
    def test_final_retirement_during_a_write_is_still_checkpointed(self, tmp_path):
        """Two workers, cadence 1: the first checkpoint's write is held
        open until every task has retired (an engine publishes a task's
        successors before it flushes, so the other worker can finish
        the run alone).  Every later retirement, the last one included,
        then found a writer busy and skipped its flush: only the run's
        epilogue can write the checkpoint that covers them."""
        total = len(tlr_cholesky(spd_tlr()).graph)
        mgr = CheckpointManager(tmp_path, every_tasks=1, keep=100)
        real_write, all_retired = mgr._write, threading.Event()

        def held_first_write(seq, completed, *rest):
            if seq == 1:
                give_up = time.monotonic() + 60.0
                while len(mgr.completed_uids) < total and time.monotonic() < give_up:
                    time.sleep(0.005)
                if len(mgr.completed_uids) == total:
                    all_retired.set()
            return real_write(seq, completed, *rest)

        mgr._write = held_first_write
        result = tlr_cholesky(spd_tlr(), checkpoint=mgr, engine="threads", workers=2)
        assert all_retired.is_set() and len(result.graph) == total
        # the held one (a single task) and the epilogue's: nothing between
        assert mgr.checkpoints_written == 2
        assert len(load_checkpoint(tmp_path).completed) == total

    def test_flush_refused_during_a_write_stays_due(self, tmp_path):
        """The manager's half of it, thread by thread: a retirement
        that lands while another worker writes is told "not due" and
        its flush is refused — but the checkpoint stays due, and the
        next unforced flush (the epilogue's) writes all of it."""
        data = spd_tlr()
        graph = tlr_cholesky(spd_tlr()).graph
        first, last = list(graph.tasks)[:2]
        mgr = CheckpointManager(tmp_path, every_tasks=1)
        mgr.bind(graph, data)
        real_write = mgr._write
        writing, release = threading.Event(), threading.Event()

        def held_write(*args):
            writing.set()
            assert release.wait(60.0)
            return real_write(*args)

        mgr._write = held_write
        assert mgr.task_retired(first, data)
        writer = threading.Thread(target=mgr.flush, args=(data,))
        writer.start()
        assert writing.wait(60.0)
        assert not mgr.task_retired(last, data)  # due, but a writer is busy
        assert mgr.flush(data) is None
        release.set()
        writer.join(60.0)
        assert load_checkpoint(tmp_path).completed == frozenset({first.uid})
        assert mgr.flush(data) is not None  # what the run's epilogue does
        assert load_checkpoint(tmp_path).completed == mgr.completed_uids


class TestManagerValidation:
    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every_tasks=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every_tasks=None, every_seconds=None)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every_seconds=-1.0, every_tasks=None)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_graph_signature_mismatch_refuses_resume(self, tmp_path):
        from repro.core.trimming import ptg_cholesky_tasks
        from repro.runtime.dag import build_graph

        a = spd_tlr()
        tlr_cholesky(a.copy(), checkpoint=CheckpointManager(tmp_path, every_tasks=5))
        # a different factorization (different size -> different graph)
        with pytest.raises(ValueError, match="refusing to resume"):
            tlr_cholesky(spd_tlr(n=96, tile=32), resume_from=tmp_path)
        # the same operator, but a checkpoint written against the
        # per-(m, n, k) right-looking graph: also a different
        # factorization, and nothing of it is overlaid
        old_graph = build_graph(ptg_cholesky_tasks(a.n_tiles))
        assert any(len(t.params) == 3 for t in old_graph.tasks)
        ckpt = load_checkpoint(tmp_path).path
        sealed = read(ckpt)
        record = dict(sealed.meta, graph_signature=graph_signature(old_graph))
        write(ckpt, {g: t.items() for g, t in sealed.groups.items()}, record)
        fresh = a.copy()
        with pytest.raises(ValueError, match="refusing to resume"):
            tlr_cholesky(fresh, resume_from=ckpt)
        assert all(x is y for (_, x), (_, y) in zip(fresh, a)), "tiles were overlaid"

    def test_graph_signature_stability(self):
        from repro.core.trimming import cholesky_tasks
        from repro.runtime.dag import build_graph

        g1 = build_graph(cholesky_tasks(4))
        g2 = build_graph(cholesky_tasks(4))
        g3 = build_graph(cholesky_tasks(5))
        assert graph_signature(g1) == graph_signature(g2)
        assert graph_signature(g1) != graph_signature(g3)

    def test_graph_signature_is_pinned(self):
        """A checkpoint written before tasks were built in one pass names
        the same graph, so it still resumes."""
        from repro.core.analysis import analyze_ranks
        from repro.core.trimming import cholesky_tasks
        from repro.runtime.dag import build_graph

        ranks = np.array([[50, 0, 0, 0], [5, 50, 0, 0], [0, 7, 50, 0], [3, 4, 0, 50]])
        full = build_graph(cholesky_tasks(4))
        trimmed = build_graph(cholesky_tasks(4, analyze_ranks(ranks, 4)))
        assert graph_signature(full) == "345e1d40cc8972b2ba669edfaad425c4"
        assert graph_signature(trimmed) == "fa92ec60e9bdf5df2233906cbbff547e"

    def test_sequence_numbers_continue_across_managers(self, tmp_path):
        mgr = CheckpointManager(tmp_path, every_tasks=5)
        tlr_cholesky(spd_tlr(), checkpoint=mgr)
        first = max(
            int(p.stem.split("-")[1]) for p in tmp_path.glob(f"ckpt-*{SUFFIX}")
        )
        # a new manager (a restarted process) must not overwrite
        mgr2 = CheckpointManager(tmp_path, every_tasks=5)
        tlr_cholesky(spd_tlr(), checkpoint=mgr2, resume_from=tmp_path)
        newest = max(
            int(p.stem.split("-")[1]) for p in tmp_path.glob(f"ckpt-*{SUFFIX}")
        )
        assert newest >= first

    def test_stats_shape(self, tmp_path):
        mgr = CheckpointManager(tmp_path, every_tasks=5)
        tlr_cholesky(spd_tlr(), checkpoint=mgr)
        stats = mgr.stats()
        assert stats["checkpoints_written"] > 0
        assert stats["completed_tasks"] > 0
        assert stats["tiles_healed"] == 0
