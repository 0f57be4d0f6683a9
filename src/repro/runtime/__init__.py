"""PaRSEC-like task runtime substrate.

Tasks are instances of parameterized task classes (the PTG model of
Section IV-A); dependencies are inferred from declared data accesses;
an execution engine runs the graph under a pluggable scheduler while a
tracer records per-task timing/flops.  Distributed execution is
modeled by the discrete-event simulator in :mod:`repro.machine`.
"""

from repro.runtime.task import AccessMode, DataAccess, Task
from repro.runtime.dag import TaskGraph, build_graph
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointManager,
    ChecksumLedger,
    graph_signature,
    load_checkpoint,
)
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrashError,
    RetryPolicy,
    TaskFailedError,
    TileCorruptionError,
    TransientKernelError,
)
from repro.runtime.scheduler import (
    FIFOScheduler,
    LIFOScheduler,
    PriorityScheduler,
    Scheduler,
)
from repro.runtime.engine import ExecutionEngine
from repro.runtime.parallel import (
    ParallelExecutionEngine,
    engine_for,
    resolve_workers,
)
from repro.runtime.tracing import Trace, TraceEvent

__all__ = [
    "AccessMode",
    "DataAccess",
    "Task",
    "TaskGraph",
    "build_graph",
    "Scheduler",
    "FIFOScheduler",
    "LIFOScheduler",
    "PriorityScheduler",
    "ExecutionEngine",
    "ParallelExecutionEngine",
    "engine_for",
    "resolve_workers",
    "Checkpoint",
    "CheckpointManager",
    "ChecksumLedger",
    "graph_signature",
    "load_checkpoint",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedCrashError",
    "RetryPolicy",
    "TaskFailedError",
    "TileCorruptionError",
    "TransientKernelError",
    "Trace",
    "TraceEvent",
]
