"""Persistent content-addressed artifact cache for the harness.

Every (benchmark, dataset) result in this reproduction is a pure function
of its inputs: the BLC source text, the optimizer pipeline spec, the
execution limits, and the repro version.  :class:`ArtifactCache` exploits
that purity to make repeated table/graph/CLI invocations near-instant: it
stores compiled executables (with their branch classification), edge
profiles, and *deterministic* failures on disk, keyed by the SHA-256 of a
canonical JSON encoding of every input that can change the result.

Key recipe (see docs/performance.md for the full derivation):

``compile`` entries
    ``sha256(schema, repro version, "compile", benchmark name, source
    text, optimize flag, pass-pipeline spec)`` — the pass spec is the
    resolved tuple of registered pass names, so registering a new default
    pass invalidates every compile entry, exactly as it must.

``run`` entries
    ``sha256(schema, repro version, "run", compile key, dataset name,
    effective input vector, effective fuel budget, memory cap, retry fuel
    factor, resolved engine name)`` — the *effective* values after
    chaos/operator overrides, so a fault injected via ``limit_fuel`` can
    never alias a healthy entry, and Tier-0/Tier-1 artifacts never alias
    each other (the engine name is resolved *after* the
    ``REPRO_CHAOS_FORCE_TIER0`` / ``REPRO_SIM_ENGINE`` seams).

``sequences`` entries
    ``sha256(schema, repro version, "sequences", run key, every
    prediction map as sorted (address, taken) pairs)`` — the Graphs 4-11
    analyzers of one run.  Only successes are stored.

Integrity: each entry file is ``magic || sha256(body) || body`` where the
body is a pickled envelope ``{schema, version, key, kind, payload}``.  A
read that fails **any** check — magic, digest, unpickle, schema, version,
key echo — is treated as a miss: the entry is evicted (unlinked) and
recomputed, never trusted.  Writes go through a temp file + ``os.replace``
so a crashed writer can at worst leave a temp file, never a torn entry.

Wall-clock-dependent failures (:class:`~repro.errors.SimulationTimeout`)
are **never** cached: they are not reproducible functions of the key.
Fuel-limit failures are deterministic and are negative-cached.

Multi-tenant safety (see docs/robustness.md "The shared store"): an
entry is a pure function of its key, so two processes that miss the
same key compute the same bytes, and whichever ``os.replace`` lands last
publishes a complete entry either way — concurrent writers need no
coordination.  A crashed writer's only debris, an orphaned ``*.tmp``
file, is reclaimed by the startup sweep (:meth:`ArtifactCache.sweep`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any

from repro import telemetry as _telemetry
from repro._version import __version__

__all__ = ["ArtifactCache", "CACHE_SCHEMA", "compile_key", "run_key",
           "sequence_key", "default_pass_spec", "DEFAULT_SWEEP_AGE_S"]

#: bump on any change to the entry envelope or payload layout
CACHE_SCHEMA = 1

#: file magic: identifies v1 repro artifact-cache entries
_MAGIC = b"RPAC1\n"
_DIGEST_BYTES = 32  # sha256

#: only temp files this stale are swept: a live writer's seconds-old
#: temp file must never be yanked out from under it
DEFAULT_SWEEP_AGE_S = 300.0


def default_pass_spec(optimize: bool) -> tuple[str, ...]:
    """The resolved optimizer pipeline the suite compiles with.

    ``-O1`` is the registered default pipeline; ``-O0`` is the empty
    pipeline.  Resolving to concrete pass names (rather than the literal
    "-O1") means cache keys change when the default pipeline gains,
    loses, or reorders a pass.
    """
    if not optimize:
        return ()
    from repro.bcc.opt import pipeline_spec
    return tuple(pipeline_spec(None))


def _digest(material: Any) -> str:
    """SHA-256 over a canonical (sorted-keys, compact) JSON encoding."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compile_key(benchmark: str, source: str, optimize: bool,
                pass_spec: tuple[str, ...] | None = None,
                version: str = __version__) -> str:
    """Content key for one compiled (executable, analysis) artifact."""
    if pass_spec is None:
        pass_spec = default_pass_spec(optimize)
    return _digest({
        "schema": CACHE_SCHEMA,
        "version": version,
        "kind": "compile",
        "benchmark": benchmark,
        "source": source,
        "optimize": bool(optimize),
        "passes": list(pass_spec),
    })


def run_key(compile_digest: str, dataset: str, inputs: tuple,
            fuel_budget: int, max_memory_bytes: int | None,
            retry_fuel_factor: int,
            version: str = __version__,
            engine: str = "tier1") -> str:
    """Content key for one profiled execution (or deterministic failure).

    *inputs* / *fuel_budget* / *max_memory_bytes* are the **effective**
    values after operator and chaos overrides.  The wall-clock deadline
    is deliberately excluded: it cannot change a deterministic result,
    and results it *does* change (timeouts) are never cached.

    *engine* is the **resolved** execution-engine name (``"tier0"`` /
    ``"tier1"`` — callers resolve chaos/env overrides first, see
    :func:`repro.sim.resolve_engine_name`).  The tiers are verified
    byte-identical, but the fingerprint keeps their artifacts from ever
    aliasing: a Tier-0 entry is never served as evidence about Tier-1
    (and a differential run can never be satisfied from one tier's
    cache).
    """
    return _digest({
        "schema": CACHE_SCHEMA,
        "version": version,
        "kind": "run",
        "compile": compile_digest,
        "dataset": dataset,
        "inputs": list(inputs),
        "fuel": int(fuel_budget),
        "memory": max_memory_bytes,
        "retry_fuel_factor": int(retry_fuel_factor),
        "engine": engine,
    })


def sequence_key(run_digest: str,
                 predictions: dict[str, dict[int, bool]],
                 version: str = __version__) -> str:
    """Content key for one run's sequence-length analyzers (Graphs 4-11).

    *run_digest* is the :func:`run_key` of the profiled run, so the
    compile key, effective inputs and limits, and resolved engine all
    carry over.  Every prediction map is hashed bit for bit: a
    heuristic change can never be served a stale distribution.
    """
    return _digest({
        "schema": CACHE_SCHEMA,
        "version": version,
        "kind": "sequences",
        "run": run_digest,
        "predictions": {label: [[address, bool(taken)] for address, taken
                                in sorted(preds.items())]
                        for label, preds in predictions.items()},
    })


class ArtifactCache:
    """On-disk content-addressed store of pipeline artifacts.

    Parameters
    ----------
    root:
        Cache directory (created on demand).  Entries live under
        ``root/objects/<key[:2]>/<key[2:]>.pkl``.
    version:
        Repro version echoed into every entry envelope; entries recorded
        by a different version are evicted on read (stale-version
        defense in depth — the version is also part of every key).

    Instance counters (``hits`` / ``misses`` / ``corrupt`` / ``stores``)
    are always maintained; the same events are also published to the
    active telemetry sink as ``harness.artifact_cache.*`` counters.
    """

    def __init__(self, root: str | os.PathLike,
                 version: str = __version__) -> None:
        self.root = Path(root)
        self.version = version
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.tmp_swept = 0
        if self.root.is_dir():
            self.sweep()

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key[2:]}.pkl"

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.objects_dir.is_dir():
            return 0
        return sum(1 for _ in self.objects_dir.glob("*/*.pkl"))

    # -- read ----------------------------------------------------------------

    def get(self, key: str, kind: str) -> Any | None:
        """The payload stored under *key*, or ``None`` on miss.

        Any integrity failure (truncated file, digest mismatch, pickle
        error, schema/version/kind/key mismatch) evicts the entry and
        reports a miss — a corrupted cache can cost time, never
        correctness.
        """
        tm = _telemetry.get()
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            tm.counter("harness.artifact_cache.miss").inc()
            return None
        payload = self._decode(blob, key, kind)
        if payload is None:
            self._evict(path)
            self.corrupt += 1
            self.misses += 1
            tm.counter("harness.artifact_cache.corrupt").inc()
            tm.counter("harness.artifact_cache.miss").inc()
            return None
        self.hits += 1
        tm.counter("harness.artifact_cache.hit").inc()
        return payload

    def _decode(self, blob: bytes, key: str, kind: str) -> Any | None:
        """Envelope → payload, or ``None`` on any integrity failure."""
        header = len(_MAGIC) + _DIGEST_BYTES
        if len(blob) < header or not blob.startswith(_MAGIC):
            return None
        digest = blob[len(_MAGIC):header]
        body = blob[header:]
        if hashlib.sha256(body).digest() != digest:
            return None
        try:
            envelope = pickle.loads(body)
        except Exception:
            return None
        if not isinstance(envelope, dict):
            return None
        if (envelope.get("schema") != CACHE_SCHEMA
                or envelope.get("version") != self.version
                or envelope.get("key") != key
                or envelope.get("kind") != kind
                or "payload" not in envelope):
            return None
        return envelope["payload"]

    @staticmethod
    def _evict(path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()

    # -- write ---------------------------------------------------------------

    def put(self, key: str, kind: str, payload: Any) -> bool:
        """Store *payload* under *key* atomically; returns success.

        The entry is written to a temp file in its shard directory and
        published with ``os.replace``, so a reader sees either no entry
        or a complete one.  Two writers racing on one key write the same
        bytes (the key is the content's address), and the last rename
        wins harmlessly.

        A failed store (unpicklable payload, full disk) is counted and
        swallowed — the cache is an accelerator, never a failure source.
        """
        tm = _telemetry.get()
        try:
            body = pickle.dumps({
                "schema": CACHE_SCHEMA,
                "version": self.version,
                "key": key,
                "kind": kind,
                "payload": payload,
            }, protocol=pickle.HIGHEST_PROTOCOL)
            blob = _MAGIC + hashlib.sha256(body).digest() + body
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except Exception:
            tm.counter("harness.artifact_cache.store_failed").inc()
            return False
        self.stores += 1
        tm.counter("harness.artifact_cache.store").inc()
        return True

    # -- maintenance ---------------------------------------------------------

    def sweep(self, max_age_s: float = DEFAULT_SWEEP_AGE_S) -> int:
        """Crash-recovery sweep: remove orphaned ``*.tmp`` files (left by
        writers killed between ``mkstemp`` and ``os.replace``); returns
        the number removed.

        Only temp files older than *max_age_s* are removed, so a sweep
        can never race a live writer's seconds-old temp file.  Runs
        automatically on construction against an existing store (the
        *startup sweep*) and is re-runnable any time; the count surfaces
        as the ``harness.artifact_cache.tmp_swept`` telemetry counter and
        in :meth:`stats`.
        """
        removed = 0
        now = time.time()
        if self.objects_dir.is_dir():
            for path in self.objects_dir.glob("*/*.tmp"):
                with contextlib.suppress(OSError):
                    if now - path.stat().st_mtime > max_age_s:
                        path.unlink()
                        removed += 1
        self.tmp_swept += removed
        if removed:
            _telemetry.get().counter(
                "harness.artifact_cache.tmp_swept").inc(removed)
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        if self.objects_dir.is_dir():
            for path in self.objects_dir.glob("*/*.pkl"):
                self._evict(path)
                removed += 1
        return removed

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "stores": self.stores,
                "tmp_swept": self.tmp_swept, "entries": len(self)}
