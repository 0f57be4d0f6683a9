"""The supervisor's policy as the fleet drives it: a shard is armed
when it is attached (the grace period) and again by every heartbeat.
Injectable clock and processes."""

import pytest

from repro.runtime.supervisor import ProcessSupervisor


def attach(sup, key, proc):
    """What ``FleetService._spawn`` does; a later ``sup.arm(key)`` is a beat."""
    sup.attach(key, proc)
    sup.arm(key)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class FakeProcess:
    """Stands in for multiprocessing.Process in supervisor unit tests."""

    def __init__(self, pid=4242):
        self.pid = pid
        self.exitcode = None
        self.killed = False

    def join(self, timeout=None):
        if self.killed and self.exitcode is None:
            self.exitcode = -9


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture(autouse=True)
def no_real_kill(monkeypatch):
    """SIGKILL lands on the FakeProcess, never on a real pid."""

    def fake_kill(proc):
        proc.killed = True
        proc.join()

    monkeypatch.setattr(ProcessSupervisor, "kill", staticmethod(fake_kill))


class TestLiveness:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            ProcessSupervisor(timeout=0.0)
        with pytest.raises(ValueError, match="max_respawns"):
            ProcessSupervisor(max_respawns=-1)

    def test_quiet_fleet_reports_nothing(self, clock):
        sup = ProcessSupervisor(timeout=1.0, clock=clock)
        attach(sup, "shard-0", FakeProcess())
        assert sup.poll() == []

    def test_attach_grants_a_grace_period(self, clock):
        """A new process has one full timeout to produce its first beat
        (fork + cache recovery legitimately precede it)."""
        sup = ProcessSupervisor(timeout=1.0, clock=clock)
        attach(sup, "shard-0", FakeProcess())
        clock.advance(0.9)
        assert sup.poll() == []
        clock.advance(0.2)
        failures = sup.poll()
        assert len(failures) == 1 and failures[0].hung

    def test_beats_keep_the_shard_alive(self, clock):
        sup = ProcessSupervisor(timeout=1.0, clock=clock)
        attach(sup, "shard-0", FakeProcess())
        for _ in range(5):
            clock.advance(0.8)
            sup.arm("shard-0")
            assert sup.poll() == []

    def test_stale_beat_is_killed_and_reported_hung(self, clock):
        sup = ProcessSupervisor(timeout=1.0, clock=clock)
        proc = FakeProcess(pid=7)
        attach(sup, "shard-0", proc)
        sup.arm("shard-0")
        clock.advance(1.5)
        failures = sup.poll()
        assert len(failures) == 1
        f = failures[0]
        assert f.key == "shard-0" and f.hung and f.pid == 7
        assert f.age == pytest.approx(1.5)
        assert proc.killed and f.exitcode == -9
        assert sup.hung_killed == 1

    def test_dead_process_reported_without_kill(self, clock):
        sup = ProcessSupervisor(timeout=10.0, clock=clock)
        proc = FakeProcess(pid=8)
        proc.exitcode = -9
        attach(sup, "shard-0", proc)
        failures = sup.poll()
        assert len(failures) == 1
        assert not failures[0].hung and failures[0].exitcode == -9
        assert not proc.killed  # already dead, no SIGKILL needed
        assert sup.poll() == []  # the corpse is forgotten, not re-reported

    def test_never_armed_process_does_not_hang(self, clock):
        sup = ProcessSupervisor(timeout=1.0, clock=clock)
        sup.attach("shard-0", FakeProcess())
        clock.advance(100.0)
        assert sup.poll() == []

    def test_no_staleness_detection_when_disabled(self, clock):
        sup = ProcessSupervisor(timeout=None, clock=clock)
        attach(sup, "shard-0", FakeProcess())
        clock.advance(1e6)
        assert sup.poll() == []

    def test_dead_shard_not_double_reported_as_hung(self, clock):
        sup = ProcessSupervisor(timeout=1.0, clock=clock)
        proc = FakeProcess()
        proc.exitcode = 1
        attach(sup, "shard-0", proc)
        clock.advance(5.0)  # both stale AND dead
        failures = sup.poll()
        assert len(failures) == 1 and not failures[0].hung


class TestRespawnBudget:
    def test_budget_metering(self, clock):
        sup = ProcessSupervisor(max_respawns=2, clock=clock)
        assert sup.can_respawn()
        sup.record_respawn()
        sup.record_respawn()
        assert not sup.can_respawn()
        assert sup.report()["respawns"] == 2

    def test_zero_budget_disables_recovery(self, clock):
        assert not ProcessSupervisor(max_respawns=0, clock=clock).can_respawn()
