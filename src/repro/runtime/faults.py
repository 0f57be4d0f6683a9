"""Deterministic fault injection and per-task retry/rollback.

Production task runtimes cannot assume every kernel invocation
succeeds: transient allocator hiccups, flaky accelerators and hung
workers are routine at serving scale.  This module provides the three
pieces the execution engines need to recover *locally* (the
asynchronous-runtime lesson: a failed task is re-run against its
rolled-back inputs, not the whole factorization):

``FaultPlan`` / ``FaultInjector``
    A seeded, deterministic description of which task invocations
    fail, how (transient exception, injected delay, corrupted tile
    write), and at what rate.  Decisions are pure functions of
    ``(seed, rule, task, attempt)`` — independent of thread timing,
    scheduler policy and worker count — so an injected run is exactly
    reproducible.

``RetryPolicy``
    Capped exponential backoff over a tuple of transient exception
    types.  The engines snapshot the tiles a task writes before every
    attempt (the DAG declares them), roll back on a transient failure
    and re-run, so a retried run is bitwise identical to a fault-free
    one.  Exhausted retries surface as :class:`TaskFailedError`.

``snapshot_writes`` / ``restore_writes``
    The rollback primitive.  Tile kernels never mutate operand arrays
    in place (they build new tiles and ``set_tile`` them), so a
    snapshot is a dict of tile *references* — O(writes) bookkeeping,
    no copies.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from repro.runtime.task import Task

__all__ = [
    "FAULT_KINDS",
    "TransientKernelError",
    "TileCorruptionError",
    "InjectedCrashError",
    "TaskFailedError",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "snapshot_writes",
    "restore_writes",
]

#: Supported injected failure modes.
FAULT_KINDS = ("transient", "delay", "corrupt", "crash", "bitflip")


class TransientKernelError(RuntimeError):
    """A kernel failure that is expected to succeed on re-execution.

    The fault injector raises it for both injected transient faults
    and (after the fact) injected corrupted writes; real kernels may
    raise it for genuinely retryable conditions.
    """


class TileCorruptionError(TransientKernelError):
    """A tile failed checksum verification at a kernel read.

    Subclassing :class:`TransientKernelError` routes detection through
    the engines' existing retry/rollback path: a corrupted *write*
    heals on re-execution, and an unhealable at-rest corruption
    exhausts the budget and surfaces as :class:`TaskFailedError` — in
    no case does the corrupt value flow onward silently.
    """


class InjectedCrashError(RuntimeError):
    """Process death injected mid-factorization (soft form).

    Deliberately *not* a :class:`TransientKernelError`: a crash is not
    retryable in-process, so it bypasses the retry policy, fails the
    engine fast, and unit tests can catch it where a real SIGKILL
    (``hard_crash=True``) would leave only the on-disk checkpoints.
    """


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget (or had none).

    Carries the task identity, the number of attempts made, and the
    underlying cause so callers can log, alert, or re-queue precisely.
    """

    def __init__(self, task: Task, attempts: int, cause: BaseException) -> None:
        self.task = str(task)
        self.klass = task.klass
        self.params = tuple(task.params)
        self.attempts = int(attempts)
        self.cause = cause
        super().__init__(
            f"task {task} failed after {attempts} attempt(s): {cause}"
        )

    def __reduce__(self):
        # __init__ takes a Task but the instance keeps only its string
        # form, so the default exception reduce (cls, self.args) cannot
        # reconstruct one.  Exceptions cross process pipes (shards,
        # ranks), so pickling must round-trip with `.cause` intact.
        return (
            _rebuild_task_failed,
            (self.task, self.klass, self.params, self.attempts, self.cause),
        )


def _rebuild_task_failed(task, klass, params, attempts, cause):
    exc = TaskFailedError.__new__(TaskFailedError)
    exc.task = task
    exc.klass = klass
    exc.params = tuple(params)
    exc.attempts = attempts
    exc.cause = cause
    RuntimeError.__init__(
        exc, f"task {task} failed after {attempts} attempt(s): {cause}"
    )
    return exc


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fault ``kind`` at ``rate`` for task ``klass``.

    ``klass`` is an upper-cased task-class name or ``"*"`` for every
    class; ``rate`` is the per-attempt injection probability in
    ``[0, 1]``; ``delay_seconds`` only applies to ``kind="delay"``.
    """

    klass: str
    kind: str
    rate: float
    delay_seconds: float = 0.001

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay_seconds < 0.0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def matches(self, task: Task) -> bool:
        return self.klass == "*" or self.klass == task.klass.upper()


def _fraction(key: str) -> float:
    """Deterministic uniform draw in [0, 1) from a string key.

    Uses BLAKE2b rather than ``hash()`` so decisions are stable across
    processes and interpreter runs (``PYTHONHASHSEED`` salts ``hash``).
    """
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s.

    ``decide(task, attempt)`` is a pure function: the same plan makes
    the same per-attempt decisions regardless of execution order, so
    serial and parallel runs see identical fault sequences.
    """

    rules: tuple[FaultRule, ...]
    seed: int = 0

    def decide(self, task: Task, attempt: int) -> tuple[FaultRule, ...]:
        """The rules that fire for this (task, attempt) invocation."""
        hit = []
        for rule in self.rules:
            if not rule.matches(task):
                continue
            key = (
                f"{self.seed}|{rule.klass}|{rule.kind}|"
                f"{task.klass}|{task.params}|{attempt}"
            )
            if _fraction(key) < rule.rate:
                hit.append(rule)
        return tuple(hit)

    @classmethod
    def parse(
        cls, spec: str, seed: int = 0, delay_seconds: float = 0.001
    ) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        The spec is a comma-separated list of ``CLASS:RATE`` (a
        transient fault) or ``CLASS:KIND:RATE`` entries, where
        ``CLASS`` is a task-class name or ``all``/``*``::

            all:0.1                     # 10% transient faults everywhere
            GEMM:0.2,TRSM:delay:0.05    # per-class, mixed kinds
        """
        rules = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if len(fields) == 2:
                klass, kind, rate = fields[0], "transient", fields[1]
            elif len(fields) == 3:
                klass, kind, rate = fields
            else:
                raise ValueError(
                    f"bad fault spec entry {part!r}; expected "
                    "CLASS:RATE or CLASS:KIND:RATE"
                )
            klass = klass.strip().upper()
            if klass == "ALL":
                klass = "*"
            rules.append(
                FaultRule(
                    klass=klass,
                    kind=kind.strip().lower(),
                    rate=float(rate),
                    delay_seconds=delay_seconds,
                )
            )
        if not rules:
            raise ValueError(f"fault spec {spec!r} contains no rules")
        return cls(rules=tuple(rules), seed=seed)


class FaultInjector:
    """Wraps kernel dispatch, applying a :class:`FaultPlan`.

    Thread-safe: the engines call :meth:`invoke` concurrently from
    worker threads.  ``counters`` tallies injected faults by kind and
    by ``kind:CLASS`` for observability and tests.

    Injection points:

    * ``delay`` — sleeps before the kernel runs (models a slow task);
    * ``transient`` — raises :class:`TransientKernelError` *instead of*
      running the kernel (models failure at dispatch);
    * ``corrupt`` — runs the kernel, overwrites one of the task's
      output tiles with NaNs, then raises
      :class:`TransientKernelError` (models a detected corrupted
      write) — exercising the engines' rollback path for real;
    * ``crash`` — the process dies at dispatch: with
      ``hard_crash=True`` the interpreter exits immediately via
      ``os._exit(137)`` (SIGKILL semantics — no cleanup, no atexit,
      torn temp files stay behind), otherwise
      :class:`InjectedCrashError` propagates uncaught through the
      engine (soft form for in-process tests) — either way, recovery
      is only possible through the checkpoint/restart layer;
    * ``bitflip`` — runs the kernel, then *silently* flips one bit of
      one element in a tile the task read (at-rest corruption of an
      already-produced tile: a memory bit flip).  Nothing is raised —
      without checksum verification (``REPRO_VERIFY_TILES=1``) the
      corruption flows undetected into the factor.
    """

    def __init__(self, plan: FaultPlan, hard_crash: bool = False) -> None:
        self.plan = plan
        self.hard_crash = bool(hard_crash)
        self.counters: Counter[str] = Counter()
        self._lock = threading.Lock()

    def _count(self, kind: str, klass: str) -> None:
        with self._lock:
            self.counters[kind] += 1
            self.counters[f"{kind}:{klass}"] += 1
            self.counters["total"] += 1

    def invoke(
        self,
        kernel: Callable[[Task, object], None],
        task: Task,
        data: object,
        attempt: int = 0,
    ) -> None:
        faults = self.plan.decide(task, attempt)
        for rule in faults:
            if rule.kind == "delay":
                self._count("delay", task.klass)
                time.sleep(rule.delay_seconds)
        for rule in faults:
            if rule.kind == "crash":
                self._count("crash", task.klass)
                if self.hard_crash:
                    import os

                    os._exit(137)  # SIGKILL semantics: no cleanup at all
                raise InjectedCrashError(
                    f"injected process crash at {task} (attempt {attempt})"
                )
        for rule in faults:
            if rule.kind == "transient":
                self._count("transient", task.klass)
                raise TransientKernelError(
                    f"injected transient fault in {task} (attempt {attempt})"
                )
        kernel(task, data)
        for rule in faults:
            if rule.kind == "corrupt" and self._corrupt_one_write(task, data):
                self._count("corrupt", task.klass)
                raise TransientKernelError(
                    f"injected corrupted write in {task} (attempt {attempt})"
                )
        for rule in faults:
            # deliberately silent on success: the whole point of the
            # bitflip kind is that only checksum verification sees it
            if rule.kind == "bitflip" and self._bitflip_one_read(
                task, data, attempt
            ):
                self._count("bitflip", task.klass)

    @staticmethod
    def _corrupt_one_write(task: Task, data: object) -> bool:
        """NaN-fill the task's first output tile (if the store has tiles)."""
        writes = task.writes
        if not writes or not hasattr(data, "tile") or not hasattr(data, "set_tile"):
            return False
        import numpy as np

        from repro.linalg.tile import DenseTile

        m, k = writes[0]
        shape = data.tile(m, k).shape
        data.set_tile(m, k, DenseTile(np.full(shape, np.nan)))
        return True

    def _bitflip_one_read(self, task: Task, data: object, attempt: int) -> bool:
        """Flip one bit in one element of a tile the task only reads.

        Pure-read tiles are already-finalized outputs of earlier tasks
        (their checksums, if a ledger is active, were recorded when
        they were produced), so flipping a bit here models at-rest
        corruption: a later reader's pre-kernel verification — or the
        end-of-run sweep — is the only defense.  The perturbed tile is
        *republished* via ``set_tile`` (a fresh array in the victim's
        own memory order — a bit flip does not transpose storage, and
        checksums are layout-blind while BLAS rounding is not),
        honoring the kernels' no-in-place-mutation convention;
        deterministic in ``(seed, task, attempt)`` like every other
        decision.  Returns whether a tile was flipped.
        """
        if not hasattr(data, "tile") or not hasattr(data, "set_tile"):
            return False
        written = set(task.writes)
        read_only = sorted(set(task.reads) - written)
        if not read_only:
            return False
        import numpy as np

        from repro.linalg.lowrank import LowRankFactor
        from repro.linalg.tile import DenseTile, LowRankTile

        salt = f"{self.plan.seed}|bitflip|{task.klass}|{task.params}|{attempt}"
        m, k = read_only[
            int(_fraction(salt + "|tile") * len(read_only)) % len(read_only)
        ]
        tile = data.tile(m, k)
        if isinstance(tile, LowRankTile):
            u = tile.u.copy(order="K")
            flat = u.ravel(order="K").view(np.uint64)  # a view of the copy
            flat[int(_fraction(salt + "|elem") * flat.size) % flat.size] ^= (
                np.uint64(1) << np.uint64(40)
            )
            data.set_tile(
                m, k, LowRankTile(LowRankFactor(u, tile.v.copy(order="K")))
            )
        elif isinstance(tile, DenseTile):
            d = tile.data.copy(order="K")
            flat = d.ravel(order="K").view(np.uint64)
            flat[int(_fraction(salt + "|elem") * flat.size) % flat.size] ^= (
                np.uint64(1) << np.uint64(40)
            )
            data.set_tile(m, k, DenseTile(d))
        else:  # null tiles store no payload to corrupt
            return False
        return True


# ----------------------------------------------------------------------
# retry policy + rollback
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff over transient kernel failures.

    ``max_retries`` is the number of *re*-executions after the first
    attempt (0 disables retry: a transient failure immediately becomes
    :class:`TaskFailedError`).  ``retry_on`` is the tuple of exception
    types treated as transient; anything else propagates unchanged,
    preserving the engines' fail-fast behavior for real bugs.
    """

    max_retries: int = 3
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 0.1
    retry_on: tuple[type[BaseException], ...] = (TransientKernelError,)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0.0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before re-running after failed attempt ``attempt``."""
        if self.backoff_seconds <= 0.0:
            return 0.0
        return min(
            self.backoff_seconds * self.backoff_multiplier**attempt,
            self.max_backoff_seconds,
        )


def snapshot_writes(task: Task, data: object) -> dict | None:
    """References to the tiles ``task`` writes, keyed by tile index.

    Returns ``None`` for data stores without tile accessors (rollback
    is then unavailable; retry still works for kernels that fail
    before publishing output).  Tiles are immutable by convention —
    kernels build new tiles rather than mutating operands — so
    references are a complete snapshot.
    """
    tile = getattr(data, "tile", None)
    set_tile = getattr(data, "set_tile", None)
    if tile is None or set_tile is None:
        return None
    return {key: tile(*key) for key in set(task.writes)}


def restore_writes(task: Task, data: object, snapshot: dict | None) -> None:
    """Roll the tiles ``task`` writes back to their snapshot state."""
    if not snapshot:
        return
    for (m, k), t in snapshot.items():
        data.set_tile(m, k, t)
