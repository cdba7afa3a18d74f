"""Self-test of the benchmark's tracer: ``pytest perf -q``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import repro.harness.__main__ as harness_main  # noqa: E402
from layers import (  # noqa: E402
    METRICS, TARGETS, Tracer, resolve, layer_metrics,
)


def _bindings() -> dict:
    """Identity of every attribute of every loaded ``repro`` module, and of
    every class attribute the tracer wraps."""
    seen = {}
    for _, where, _ in TARGETS:
        owner, attr = resolve(where)
        if isinstance(owner, type):
            seen[(where, attr)] = id(owner.__dict__[attr])
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = id(value)
    return seen


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import repro.core.orders as orders
    import repro.harness.graphs as graphs
    import repro.harness.tables as tables
    from repro.sim.machine import Machine

    original = orders.subset_experiment
    run = Machine.__dict__["run"]
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = orders.subset_experiment
        assert wrapped is not original
        assert graphs.subset_experiment is wrapped
        assert tables.subset_experiment is wrapped
        assert harness_main.table4 is tables.table4
        assert tables.table4.__wrapped__ is not None
        assert Machine.__dict__["run"] is not run
    finally:
        tracer.uninstall()
    assert orders.subset_experiment is original
    assert Machine.__dict__["run"] is run
    assert _bindings() == before


def test_self_time_of_nested_calls():
    # clock reads: epoch, outer start, inner start, inner end, outer end,
    # then a second top-level call of inner
    ticks = iter([0.0, 10.0, 11.0, 13.0, 16.0, 20.0, 20.5])
    tracer = Tracer(clock=lambda: next(ticks))

    def count(counts, args, result):
        counts["n"] += 1

    inner = tracer.wrap(lambda: "x", "inner", note=count)
    outer = tracer.wrap(lambda: inner() * 2, "outer")
    assert outer() == "xx"
    assert inner() == "x"
    assert tracer.self_s == {"outer": 4.0, "inner": 2.5}
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.counts == {"n": 2}
    assert tracer.covered_s == 6.5
    assert [(layer, depth) for _, layer, _, _, depth in tracer.spans] == [
        ("inner", 1), ("outer", 0), ("inner", 0)]
    metrics = layer_metrics(tracer.totals(), run_s=13.0, untraced_run_s=10.0)
    assert metrics["trace.coverage"]["value"] == 0.5
    assert abs(metrics["trace.overhead"]["value"] - 0.3) < 1e-12


def test_traced_output_is_byte_identical_to_untraced():
    argv = ["--benchmarks", "queens,fields", "--tables", "1,2,3",
            "--graphs", "13"]

    def report() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert harness_main.main(argv) == 0
        return out.getvalue()

    untraced = report()
    tracer = Tracer()
    tracer.install()
    try:
        traced = report()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls["harness.glue"] == 4  # table1-3 and graph13
    assert tracer.calls["sim.profile"] > 0


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in METRICS.items()}
