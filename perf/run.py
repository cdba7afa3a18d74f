"""The repo's benchmark: ``python -m repro.harness`` and the corpus
characterizer, end to end and layer by layer.

Usage::

    python3 perf/run.py [--workloads W,..] [--seed N] [--repeat N]
                        [--seconds S] [--trace 0|1] [-o results.json]

Each iteration of a workload runs in a fresh child process
(``perf/child.py``).  Per workload the benchmark runs set-up probes, then
untraced iterations until both ``--repeat`` iterations and ``--seconds``
seconds are done, then (``--trace 1``) one traced iteration.  It prints
every end-to-end metric with its unit, sample count, median and
quartiles, checks every output against the goldens, and prints one JSON
object as its last line of output: the end-to-end metrics, or with
``--trace 1`` the per-layer ones (named ``<workload>:<metric>`` when more
than one workload ran).  It exits 1 when an output is wrong or a run
fails.  Workloads, metrics and bounds are described in
``BENCHMARK.json`` and ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import layer_metrics

ROOT = Path(__file__).resolve().parents[1]
PERF = ROOT / "perf"
SRC = ROOT / "src"
GOLDEN = PERF / "golden" / "report.json"
#: corpus-64 at this seed must reproduce the committed characterization
CORPUS_GOLDEN_SEED = 7
CORPUS_GOLDEN = ROOT / "corpus" / "mini" / "characterization.json"
WORKLOADS = ("report-cold", "report-warm", "corpus-64", "report-jobs2")
#: blank-line separated blocks of the default report, in print order
SECTIONS = ("table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "graph1", "graphs2_3", "graphs4_11", "graph12",
            "graph13")
#: set-up probes per workload; the untraced children add their own
SETUP_PROBES = 4
#: a single iteration never legitimately takes this long
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    """A child exited non-zero, timed out, or wrote no result."""


def section_digests(text: str) -> dict[str, str]:
    """sha256 of each block of the default report (empty when the block
    count is not the default report's)."""
    blocks = text.strip("\n").split("\n\n")
    if len(blocks) != len(SECTIONS):
        return {}
    return {name: hashlib.sha256(block.encode()).hexdigest()
            for name, block in zip(SECTIONS, blocks)}


def corpus_invariants(text: str) -> bool:
    """Facts every characterization must satisfy, whatever the seed: the
    perfect static predictor misses no more than the Ball-Larus chain,
    and each cluster's rule attribution sums to its dynamic count."""
    try:
        payload = json.loads(text)
        clusters = payload["clusters"].values()
        return (payload["schema"] == "repro.gen.characterize/v1"
                and all(c["perfect_misses"] <= c["heuristic_misses"]
                        <= c["dynamic"]
                        and sum(c["attribution"].values()) == c["dynamic"]
                        and c["executed_branches"] <= c["static_branches"]
                        for c in clusters))
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


class Checker:
    """Golden checks for one workload; returns section -> ok per output."""

    def __init__(self, workload: str, seed: int, update_golden: bool):
        self.workload = workload
        self.seed = seed
        self.update_golden = update_golden and workload != "corpus-64"
        self.sections = (("characterization",) if workload == "corpus-64"
                         else SECTIONS)
        self.reference: str | None = None
        self.golden: dict[str, str] | None = None

    def __call__(self, text: str) -> dict[str, bool]:
        if self.workload == "corpus-64":
            if self.seed == CORPUS_GOLDEN_SEED:
                ok = text == CORPUS_GOLDEN.read_text(encoding="utf-8")
            else:
                # no golden at this seed: every output of the run must
                # agree and be internally consistent
                if self.reference is None:
                    self.reference = text
                ok = corpus_invariants(text) and text == self.reference
            return {"characterization": ok}
        digests = section_digests(text)
        if self.update_golden and digests:
            GOLDEN.parent.mkdir(exist_ok=True)
            GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
            self.update_golden = False
        if self.golden is None:
            self.golden = json.loads(GOLDEN.read_text())
        return {name: digests.get(name) == self.golden[name]
                for name in self.sections}


def spawn(spec: dict, scratch: Path) -> dict:
    """Run one child to completion; returns its result plus ``spawned``."""
    files = Path(tempfile.mkdtemp(prefix="child-", dir=scratch))
    result_path = files / "result.json"
    log_path = files / "log.txt"
    spec = dict(spec, src=str(SRC), result=str(result_path))
    # REPRO_CACHE_DIR, REPRO_SIM_ENGINE and the chaos seams would change
    # what a workload measures
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(PERF / "child.py"), json.dumps(spec)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
            start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                # the whole session: pool workers of --jobs die too
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{spec['workload']} child exited with "
                          f"{'timeout' if code is None else code}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["spawned"] = spawned
    return result


def warm_cache(out_dir: Path, iteration) -> Path:
    """The artifact cache report-warm reads.

    An untimed warm-up run fills it once per source tree; later runs in
    the same checkout reuse it, since a second warm-up would store the
    same content-addressed entries again.  The marker file is written
    only after a warm-up succeeds, so an interrupted fill is redone.
    """
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    cache = out_dir / f"warm-{digest.hexdigest()[:16]}"
    marker = cache / "filled"
    if not marker.exists():
        for stale in out_dir.glob("warm-*"):
            shutil.rmtree(stale, ignore_errors=True)
        cache.mkdir()
        result = iteration(cache_dir=str(cache))
        if result is not None and result["code"] == 0:
            marker.touch()
    return cache


def summarize(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def measure(workload: str, args, scratch: Path) -> dict:
    """Every sample, check and (when traced) layer total of one workload."""
    check = Checker(workload, args.seed, args.update_golden)
    base = {"workload": workload, "seed": args.seed}
    samples: dict[str, list[float]] = {"run_s": [], "setup_s": [],
                                       "peak_rss_mb": []}
    record = {"attempted": 0, "failed": 0, "errors": []}
    record["sections"] = {name: 0 for name in check.sections}
    # (benchmark, dataset) outcomes per report; known once a child ran
    operations = 1

    def outcome(result: dict | None) -> None:
        """Count the operations of one report: its (benchmark, dataset)
        outcomes and golden sections; a failed run fails all of them."""
        nonlocal operations
        if result is not None:
            operations = result["operations"]
        total = operations + len(check.sections)
        record["attempted"] += total
        if result is None or result["code"] != 0:
            record["failed"] += total
            return
        for name, ok in check(result["output"]).items():
            if not ok:
                record["sections"][name] += 1
                record["failed"] += 1

    def iteration(**extra) -> dict | None:
        try:
            result = spawn(dict(base, **extra), scratch)
        except ChildFailed as exc:
            record["errors"].append(str(exc))
            print(exc, file=sys.stderr)
            outcome(None)
            return None
        if "done" in result:
            outcome(result)
        if "trace" not in extra:
            samples["setup_s"].append(result["ready"] - result["spawned"])
        return result

    if workload == "report-warm":
        base["cache_dir"] = str(warm_cache(scratch.parent, iteration))
    for _ in range(SETUP_PROBES):
        iteration(setup_only=True)
    start = time.monotonic()
    while (len(samples["run_s"]) < args.repeat
           or time.monotonic() - start < args.seconds):
        result = iteration()
        if result is None:
            break
        samples["run_s"].append(result["done"] - result["ready"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
    if args.trace and samples["run_s"]:
        trace_path = scratch.parent / f"trace-{workload}.json"
        result = iteration(trace=str(trace_path))
        if result is not None:
            record["trace_file"] = trace_path.name
            record["layers"] = layer_metrics(
                result["tracer"], result["done"] - result["ready"],
                statistics.median(samples["run_s"]))
    record["samples"] = samples
    record["summary"] = {name: summarize(values)
                         for name, values in samples.items() if values}
    record["ops_failed_frac"] = record["failed"] / max(record["attempted"], 1)
    return record


def _git_sha() -> str | None:
    """HEAD of the checkout's own git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perf/run.py",
        description="Benchmark the reproduction end to end and per layer.")
    parser.add_argument("--workloads", "--workload",
                        default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=CORPUS_GOLDEN_SEED,
                        help="corpus-64 generator seed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="minimum untraced iterations per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="minimum untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced iteration per workload and "
                             "report the per-layer metrics")
    parser.add_argument("-o", "--output", type=Path,
                        default=ROOT / ".perf_out" / "results.json",
                        help="results JSON (samples, checks, layers); "
                             "traces are written beside it")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite perf/golden/report.json from this "
                             "run's report output")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or not workloads or args.repeat < 1:
        parser.error(f"bad workloads {unknown or workloads} or --repeat")
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    args.output.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.output.parent))
    try:
        records = {w: measure(w, args, scratch) for w in workloads}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = {
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "platform": platform.platform(), "git_sha": _git_sha()},
        "config": {"seed": args.seed, "repeat": args.repeat,
                   "seconds": args.seconds, "trace": args.trace},
        "workloads": records,
    }
    args.output.write_text(json.dumps(results, indent=1) + "\n")

    metrics = {}
    for workload, record in records.items():
        prefix = f"{workload}:" if len(records) > 1 else ""
        for m in spec["end_to_end"]:
            s = record["summary"].get(m["name"])
            if s is None:
                continue
            print(f"{workload:13s} {m['name']:12s} {s['median']:10.4f} "
                  f"{m['unit']:3s} n={s['n']} q1={s['q1']:.4f} "
                  f"q3={s['q3']:.4f}")
            if not args.trace:
                metrics[prefix + m["name"]] = {"value": s["median"],
                                               "unit": m["unit"]}
        bad = sorted(n for n, fails in record["sections"].items() if fails)
        print(f"{workload:13s} ops_failed_frac {record['ops_failed_frac']:.4f}"
              f" ({record['failed']}/{record['attempted']}); golden "
              f"{'FAILED: ' + ', '.join(bad) if bad else 'ok'}")
        if not args.trace:
            continue
        for m in spec["per_layer"]:
            layer = record.get("layers", {}).get(m["name"])
            if layer is not None:
                print(f"{workload:13s}   {m['name']:22s} "
                      f"{layer['value']:.6g} {layer['unit']}")
                metrics[prefix + m["name"]] = layer
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    expected = len(records) * len(spec["per_layer" if args.trace
                                       else "end_to_end"])
    correct = failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
