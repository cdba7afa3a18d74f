"""CLI for the prediction service: ``serve`` and the ``smoke`` drill.

``serve`` runs the daemon::

    PYTHONPATH=src python -m repro.service serve --port 8357 \\
        --cache-dir .repro-cache

``smoke`` is the CI chaos drill: it starts a real engine + HTTP
listener in-process, injects worker-crash / slow-worker chaos, pushes
the mini benchmark suite (plus duplicates, to exercise dedupe) through
the HTTP front end, and then asserts the service contract:

* every job reached a terminal state (nothing lost, nothing hung);
* every non-``done`` outcome carries a typed, coded error body;
* the Prometheus endpoint scrapes and reports the job counters;
* every successful payload is **byte-identical** to a chaos-free
  serial execution of the same request (no corruption, no partial
  results served from the shared store);
* one done predict job's ``/jobs/<id>/trace`` timeline spans every tier
  (ingress → queue → worker → cache) and its segment accounting
  (``queue_wait + dispatch + exec``) adds up to the end-to-end latency;
* the injected worker crash leaves a black box: the quarantined
  record's error carries a flight-recorder dump naming the failing
  job's trace.

Exit status 0 only when every assertion holds — wired into the CI
``service-smoke`` job.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile

from repro import telemetry as _telemetry
from repro.harness.parallel import (
    CHAOS_SLOW_WORKER_ENV, CHAOS_WORKER_CRASH_ENV,
)
from repro.service.engine import (
    JobEngine, ServiceConfig, build_payload, execute_order,
)
from repro.service.http import ServiceHTTP
from repro.service.jobs import JobKind, JobRequest
from repro.telemetry.core import Telemetry

#: the drill's workload: every job kind over the fast mini suite
_MINI_SUITE = ("queens", "fields", "gauss")
_CHAOS_ENVS = (CHAOS_WORKER_CRASH_ENV, CHAOS_SLOW_WORKER_ENV)


# -- tiny asyncio HTTP client (same loop as the server) -----------------------

async def _http(host: str, port: int, method: str, path: str,
                body: dict | None = None,
                headers: dict[str, str] | None = None):
    """One request/response round-trip; returns (status, parsed body)."""
    reader, writer = await asyncio.open_connection(host, port)
    data = json.dumps(body).encode() if body is not None else b""
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    writer.write(
        (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
         f"Content-Type: application/json\r\n"
         f"Content-Length: {len(data)}\r\n{extra}"
         f"Connection: close\r\n\r\n").encode() + data)
    await writer.drain()
    # read by Content-Length, never to EOF: a worker process forked
    # while this connection is open inherits the socket and would hold
    # EOF back until it exits
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = await reader.read(4096)
        if not chunk:
            break
        head += chunk
    head, _, payload = head.partition(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if len(payload) < length:
        payload += await reader.readexactly(length - len(payload))
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    status = int(head.split()[1])
    text = payload.decode(errors="replace")
    if text.lstrip().startswith(("{", "[")):
        return status, json.loads(text)
    return status, text


# -- serve --------------------------------------------------------------------

async def _serve(args) -> int:
    config = ServiceConfig(
        workers=args.workers, cache_dir=args.cache_dir,
        deadline_s=args.deadline, queue_limit=args.queue_limit,
        engine=args.engine)
    engine = JobEngine(config)
    await engine.start()
    http = ServiceHTTP(engine, host=args.host, port=args.port)
    await http.start()
    print(f"repro.service listening on {http.address} "
          f"({args.workers} workers, cache={args.cache_dir or 'off'})",
          flush=True)
    try:
        await asyncio.Event().wait()  # until interrupted
    finally:
        await http.stop()
        await engine.stop()
    return 0


# -- smoke (chaos drill) ------------------------------------------------------

def _serial_reference(engine: JobEngine, request: JobRequest,
                      cache_dir: str) -> dict | None:
    """Chaos-free in-process execution of *request* (the ground truth):
    the engine's own order, over a store of its own."""
    order = engine._order_for(request)
    order.shard.cache_dir = cache_dir
    result = execute_order(order)
    return build_payload(request, result) if result.ok else None


async def _smoke(args) -> int:
    # arm the chaos seams BEFORE any worker can fork
    if args.chaos_crash:
        os.environ[CHAOS_WORKER_CRASH_ENV] = args.chaos_crash
    if args.chaos_slow:
        os.environ[CHAOS_SLOW_WORKER_ENV] = args.chaos_slow

    config = ServiceConfig(
        workers=args.workers, cache_dir=args.cache_dir,
        deadline_s=args.deadline, health_interval_s=0,
        crash_retries=1, quarantine_threshold=2,
        engine=args.engine)
    engine = JobEngine(config)
    await engine.start()
    http = ServiceHTTP(engine)
    await http.start()
    print(f"smoke: service up at {http.address}, chaos="
          f"{ {k: os.environ[k] for k in _CHAOS_ENVS if k in os.environ} }",
          flush=True)

    requests = [JobRequest(kind=kind, benchmark=bench, dataset=args.dataset)
                for bench in _MINI_SUITE
                for kind in (JobKind.COMPILE, JobKind.PREDICT)]
    # duplicates ride along to exercise in-flight dedupe
    requests += [JobRequest(kind=JobKind.PREDICT, benchmark=bench,
                            dataset=args.dataset)
                 for bench in _MINI_SUITE]

    async def _submit(request: JobRequest):
        body = dict(request.to_dict(), wait=True,
                    wait_timeout_s=args.deadline * 4)
        return await _http(http.host, http.port, "POST", "/jobs", body)

    responses = await asyncio.gather(*(_submit(r) for r in requests))
    stats_status, stats = await _http(http.host, http.port, "GET", "/stats")
    metrics_status, metrics = await _http(http.host, http.port,
                                          "GET", "/metrics")

    # fetch the distributed trace of one successfully executed predict
    # job (a primary, not a dedupe follower — followers only carry the
    # ingress span of their own trace)
    trace_body = None
    for request, (_, record) in zip(requests, responses):
        if (isinstance(record, dict) and record.get("state") == "done"
                and record["request"]["kind"] == "predict"
                and "deduped_into" not in record):
            trace_status, trace_body = await _http(
                http.host, http.port, "GET",
                f"/jobs/{record['id']}/trace")
            if trace_status != 200:
                trace_body = None
            break
    await http.stop()
    await engine.stop()

    failures: list[str] = []
    if trace_body is None:
        failures.append("no done predict job yielded a /trace timeline")
    else:
        tiers = set(trace_body.get("tiers", []))
        missing = {"ingress", "queue", "worker", "cache"} - tiers
        if missing:
            failures.append(f"trace is missing tiers {sorted(missing)} "
                            f"(got {sorted(tiers)})")
        seg = trace_body.get("segments", {})
        total = seg.get("total_s", 0.0)
        accounted = seg.get("accounted_s", 0.0)
        if abs(total - accounted) > max(0.15, 0.25 * total):
            failures.append(
                f"trace segments unaccounted: queue_wait+dispatch+exec"
                f"={accounted:.3f}s vs end-to-end {total:.3f}s")
        print(f"trace: {trace_body.get('trace_id')} "
              f"tiers={sorted(tiers)} spans={len(trace_body.get('spans', []))} "
              f"accounted={accounted:.3f}s total={total:.3f}s", flush=True)

    # the injected worker crash must leave a black box: the quarantined
    # record's error carries the flight-recorder ring, and the ring
    # names the failing job's own trace
    if args.chaos_crash:
        crashed = [record for _, (_, record) in zip(requests, responses)
                   if isinstance(record, dict)
                   and record.get("state") == "quarantined"]
        if not crashed:
            failures.append("chaos-crash armed but nothing quarantined")
        else:
            record = crashed[0]
            events = record.get("error", {}).get("flight", [])
            if not events:
                failures.append("quarantined record has no flight-recorder "
                                "dump on its error")
            elif not any(e.get("trace_id") == record.get("trace_id")
                         for e in events):
                failures.append("flight dump never mentions the failing "
                                "job's trace_id")
            else:
                print(f"flight: crash black box has {len(events)} events "
                      f"incl. trace {record.get('trace_id')}", flush=True)
    done: list[tuple[JobRequest, dict]] = []
    for request, (status, record) in zip(requests, responses):
        label = f"{request.kind}/{request.benchmark}"
        if not isinstance(record, dict) or "state" not in record:
            failures.append(f"{label}: unparseable response ({status})")
            continue
        state = record["state"]
        if state in ("queued", "running"):
            failures.append(f"{label}: job never reached a terminal state")
        elif state == "done":
            done.append((request, record["result"]))
        elif not record.get("error", {}).get("code"):
            failures.append(f"{label}: degraded state {state!r} without "
                            f"a typed error body")
        else:
            print(f"smoke: {label} degraded (typed): "
                  f"{state} [{record['error']['code']}]", flush=True)

    if stats_status != 200:
        failures.append(f"/stats returned {stats_status}")
    if metrics_status != 200:
        failures.append(f"/metrics returned {metrics_status}")
    elif "repro_service_jobs_submitted_total" not in str(metrics):
        failures.append("/metrics is missing service job counters")

    # byte-identity: replay every successful request chaos-free, serially
    for env in _CHAOS_ENVS:
        os.environ.pop(env, None)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-ref-") as ref_dir:
        for request, payload in done:
            reference = _serial_reference(engine, request, ref_dir)
            if reference is None:
                failures.append(
                    f"{request.kind}/{request.benchmark}: serial reference "
                    f"failed but service reported done")
            elif (json.dumps(payload, sort_keys=True)
                    != json.dumps(reference, sort_keys=True)):
                failures.append(
                    f"{request.kind}/{request.benchmark}: payload deviates "
                    f"from the chaos-free serial run")

    print(json.dumps({
        "jobs": len(requests), "done": len(done),
        "degraded": len(requests) - len(done) - len(failures),
        "stats": stats if isinstance(stats, dict) else None,
        "failures": failures,
    }, indent=2, default=str), flush=True)
    if failures:
        print(f"smoke: FAILED ({len(failures)} violations)", file=sys.stderr)
        return 1
    print("smoke: OK — every job terminal+typed, payloads byte-identical "
          "to serial", flush=True)
    return 0


# -- entry --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="fault-tolerant branch-prediction service")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the HTTP daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8357)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--deadline", type=float, default=60.0)
    serve.add_argument("--cache-dir", default=None)
    serve.add_argument("--engine", default=None,
                       choices=("tier0", "tier1"),
                       help="simulator engine for every job (default: "
                            "resolve via REPRO_CHAOS_FORCE_TIER0 / "
                            "REPRO_SIM_ENGINE, else tier1)")

    smoke = sub.add_parser("smoke", help="CI chaos drill")
    smoke.add_argument("--workers", type=int, default=2)
    smoke.add_argument("--dataset", default="small")
    smoke.add_argument("--deadline", type=float, default=60.0)
    smoke.add_argument("--cache-dir", default=None,
                       help="shared store root (default: fresh temp dir)")
    smoke.add_argument("--chaos-crash", default="fields",
                       metavar="BENCH", help="worker-crash chaos target "
                       "('' disables)")
    smoke.add_argument("--chaos-slow", default="queens:0.2",
                       metavar="BENCH:SECONDS")
    smoke.add_argument("--engine", default=None,
                       choices=("tier0", "tier1"),
                       help="simulator engine for the drill (CI also runs "
                            "the smoke once under REPRO_CHAOS_FORCE_TIER0, "
                            "which overrides this)")

    args = parser.parse_args(argv)
    _telemetry.install(Telemetry(enabled=True))
    if args.command == "serve":
        try:
            return asyncio.run(_serve(args))
        except KeyboardInterrupt:
            return 0
    if args.cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
            args.cache_dir = tmp
            return asyncio.run(_smoke(args))
    return asyncio.run(_smoke(args))


if __name__ == "__main__":
    sys.exit(main())
