"""One iteration of a perf workload, in a fresh process.

``python3 perf/child.py SPEC`` where SPEC is a JSON object:

    workload    report-cold | report-warm | report-jobs2 | corpus-64
    seed        corpus seed (corpus-64 only; the report suite is fixed)
    src         directory holding the ``repro`` package
    result      path of the JSON result this process writes
    setup_only  stop once the inputs are ready (a set-up probe)
    cache_dir   artifact cache directory (report-warm)
    trace       path for a Chrome trace.json; tracing is on when set

The result records ``ready`` and ``done`` on ``time.monotonic()``, which
the parent shares and reads just before spawning this process; the report
text; the number of (benchmark, dataset) operations it covers; the
process's own peak RSS (pool workers excluded); and, when traced, the
tracer's totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

CORPUS_COUNT = 64


def _report(argv):
    from repro.bench.suite import suite
    from repro.harness.__main__ import main

    def setup(stack, seed):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            return code, out.getvalue()

        return run, sum(len(b.datasets) for b in suite())

    return setup


def _corpus():
    # called through the module, so that a tracer installed after this
    # import still sees the calls
    import repro.gen as gen

    def setup(stack, seed):
        programs = gen.generate_corpus(seed, CORPUS_COUNT)
        stack.enter_context(gen.register_corpus(programs, replace=True))

        def run():
            report = gen.characterize(programs, gen.corpus_runner(programs),
                                      evidence=True)
            return 0, report.dumps()

        return run, len(programs)

    return setup


def _workload(spec):
    """Import what the workload needs and return its ``setup(stack,
    seed)``, which makes the inputs and returns ``(run, operations)``."""
    name = spec["workload"]
    if name == "report-cold":
        return _report([])
    if name == "report-warm":
        return _report(["--cache", spec["cache_dir"]])
    if name == "report-jobs2":
        return _report(["--jobs", "2"])
    if name == "corpus-64":
        return _corpus()
    raise SystemExit(f"unknown workload {name!r}")


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    setup = _workload(spec)
    tracer = None
    if spec.get("trace"):
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    result: dict = {}
    with contextlib.ExitStack() as stack:
        run, result["operations"] = setup(stack, spec["seed"])
        result["ready"] = time.monotonic()
        if not spec.get("setup_only"):
            if tracer is not None:
                tracer.covered_s = 0.0  # coverage counts the run only
            result["code"], result["output"] = run()
            result["done"] = time.monotonic()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["tracer"] = tracer.totals()
        Path(spec["trace"]).write_text(json.dumps(tracer.chrome_trace()))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
