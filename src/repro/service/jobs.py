"""Job model for the prediction service.

A :class:`JobRequest` names one unit of pipeline work — compile a
benchmark, simulate a (benchmark, dataset) pair, or run the full
predict pipeline (compile + simulate + branch-prediction summary).  The
engine wraps each accepted request in a :class:`JobRecord` that tracks
its life cycle and, crucially, always terminates in a **typed**
terminal state: ``done`` with a payload, or one of the degraded states
(``failed`` / ``rejected`` / ``quarantined``) carrying the structured
:class:`~repro.errors.ReproError` dict.  A job can be slow; it can
never be lost or stuck.

Jobs are deduplicated by their kind plus the content key the artifact
cache stores their result under (source text, pass spec, effective
limits, version — see :meth:`repro.service.engine.JobEngine._key_for`),
so two tenants asking for the same work share one execution *and* one
cache entry.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.telemetry.tracing import TraceContext, TraceSpan, timeline

__all__ = ["JobKind", "JobState", "JobRequest", "JobRecord",
           "TERMINAL_STATES"]


class JobKind(enum.Enum):
    """What the job asks the pipeline to do."""

    COMPILE = "compile"      #: compile + classify branches (static only)
    SIMULATE = "simulate"    #: compile + profiled execution
    PREDICT = "predict"      #: simulate + heuristic prediction summary

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class JobState(enum.Enum):
    """Life cycle of one accepted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"                    #: healthy result payload
    FAILED = "failed"                #: typed pipeline failure (degraded)
    REJECTED = "rejected"            #: load shed: breaker open / queue full
    QUARANTINED = "quarantined"      #: poison job: crashed too many workers

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: states a record can finish in (its ``done`` event fires exactly once)
TERMINAL_STATES = frozenset({
    JobState.DONE, JobState.FAILED, JobState.REJECTED,
    JobState.QUARANTINED,
})


@dataclass(frozen=True)
class JobRequest:
    """One unit of requested work (immutable, hashable, dedupe-keyable)."""

    kind: JobKind
    benchmark: str
    dataset: str = "ref"
    optimize: bool = True
    #: per-run instruction budget override (``None``: engine default)
    fuel_budget: int | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        """Parse an untrusted request body; raises :class:`ReproError`
        (phase ``service``) on anything malformed."""
        if not isinstance(data, dict):
            raise ReproError("job request must be a JSON object",
                             phase="service")
        try:
            kind = JobKind(str(data.get("kind", "predict")))
        except ValueError:
            raise ReproError(
                f"unknown job kind {data.get('kind')!r} (expected one of "
                f"{', '.join(k.value for k in JobKind)})", phase="service")
        benchmark = data.get("benchmark")
        if not benchmark or not isinstance(benchmark, str):
            raise ReproError("job request needs a 'benchmark' name",
                             phase="service")
        dataset = data.get("dataset", "ref")
        if not isinstance(dataset, str):
            raise ReproError("'dataset' must be a string", phase="service")
        fuel = data.get("fuel_budget")
        if fuel is not None and (not isinstance(fuel, int) or fuel <= 0):
            raise ReproError("'fuel_budget' must be a positive integer",
                             phase="service")
        return cls(kind=kind, benchmark=benchmark, dataset=dataset,
                   optimize=bool(data.get("optimize", True)),
                   fuel_budget=fuel)

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "benchmark": self.benchmark,
                "dataset": self.dataset, "optimize": self.optimize,
                "fuel_budget": self.fuel_budget}


@dataclass
class JobRecord:
    """One accepted job's life cycle, result, and provenance."""

    id: str
    request: JobRequest
    key: str                           #: kind + content key ("" if unkeyable)
    state: JobState = JobState.QUEUED
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0                  #: execution attempts dispatched
    crashes: int = 0                   #: worker deaths this job caused
    retried: bool = False              #: a transient-fuel retry happened
    cache_hit: bool = False            #: payload came from the shared store
    deduped_into: str | None = None    #: id of the in-flight primary job
    #: distributed-trace identity minted at ingress (None for jobs
    #: submitted through a path that opted out of tracing)
    trace: TraceContext | None = None
    #: stitched wall-clock spans across every tier this job touched
    trace_spans: list[TraceSpan] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def finish(self, state: JobState, *, result: dict | None = None,
               error: ReproError | None = None) -> None:
        """Transition to a terminal state exactly once (idempotent —
        late results for an already-terminal record are dropped)."""
        if self.finished:
            return
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state} is not terminal")
        self.state = state
        self.result = result
        if error is not None:
            self.error = error.to_dict()
        self.finished_at = time.time()

    def to_dict(self) -> dict:
        """The wire form (HTTP responses, CLI output)."""
        out = {
            "id": self.id,
            "state": self.state.value,
            "request": self.request.to_dict(),
            "key": self.key,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "retried": self.retried,
            "cache_hit": self.cache_hit,
        }
        if self.trace is not None:
            out["trace_id"] = self.trace.trace_id
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.deduped_into is not None:
            out["deduped_into"] = self.deduped_into
        return out

    def trace_dict(self) -> dict:
        """The ``GET /jobs/<id>/trace`` body: the job's stitched span
        timeline plus segment accounting (``queue_wait_s + dispatch_s +
        exec_s ≈ total_s``).  Empty-but-well-formed for untraced jobs.
        """
        if self.trace is None:
            return {"trace_id": None, "tiers": [], "segments": {},
                    "spans": [], "job": self.id, "state": self.state.value}
        end = self.finished_at if self.finished_at is not None else time.time()
        out = timeline(self.trace.trace_id, self.trace_spans,
                       total_s=end - self.created_at)
        out["job"] = self.id
        out["state"] = self.state.value
        return out
