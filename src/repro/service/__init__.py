"""Fault-tolerant prediction service.

The pipeline as a long-running, multi-tenant daemon: an asyncio job
engine that accepts compile / simulate / predict jobs over HTTP (or by
direct :meth:`~repro.service.engine.JobEngine.submit` calls), dedupes
in-flight work by job kind and artifact-cache key, and executes through
the harness's one execution core on a supervised worker pool — health
checks, automatic respawn, poison-job quarantine, and a circuit breaker
that sheds load as explicit typed degraded responses instead of hanging.

The invariant (enforced by the chaos drill in CI and
``tests/test_service_chaos_drill.py``): **every accepted job terminates
in a typed state, and nothing the service does can corrupt the shared
artifact store** — cache writes are single-writer lease-guarded
(:mod:`repro.harness.locking`) and results stay byte-identical to a
serial run.

Entry points::

    python -m repro.service serve --port 8357    # run the daemon
    python -m repro.service smoke                # CI chaos drill

See docs/robustness.md for the supervision / breaker / lease model.
"""

from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.engine import (
    JobEngine, ServiceConfig, ServiceOrder, build_payload, execute_order,
)
from repro.service.http import ServiceHTTP
from repro.service.jobs import (
    JobKind, JobRecord, JobRequest, JobState, TERMINAL_STATES,
)
from repro.service.supervisor import WorkerSlot, WorkerSupervisor

__all__ = [
    "BreakerState", "CircuitBreaker",
    "JobEngine", "ServiceConfig", "ServiceOrder", "build_payload",
    "execute_order",
    "ServiceHTTP",
    "JobKind", "JobRecord", "JobRequest", "JobState", "TERMINAL_STATES",
    "WorkerSlot", "WorkerSupervisor",
]
