"""Per-layer tracing of ``repro`` from outside the package.

A :class:`Tracer` wraps public functions and methods of each layer
(nothing under ``src/`` is edited).  Every wrapped call adds its *self
time* -- its duration minus the time spent in nested wrapped calls -- and
one call to its layer, and is kept as a span for a Chrome ``trace.json``.
A function is wrapped on every ``repro`` module attribute bound to the
same function object (``repro.harness.graphs.subset_experiment`` as well
as ``repro.core.orders.subset_experiment``), so import style does not
decide whether a call is seen; methods and properties are wrapped on
their class.  :func:`layer_metrics` turns the totals into the per-layer
metrics named in ``BENCHMARK.json``.

Only the process that installs the tracer is traced: pool workers forked
by ``--jobs`` inherit the wrappers, but their totals die with them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter


def _note_instructions(counts, args, executable):
    counts["isa.instructions"] += len(executable.instructions)


def _note_cache_get(counts, args, payload):
    counts["cache.gets"] += 1
    counts["cache.hits"] += payload is not None


def _note_shards(counts, args, results):
    counts["parallel.shards"] += len(args[1])


def _note_fresh_run(counts, args, run):
    counts["runner.fresh_runs"] += 1


def _note_sim_run(counts, args, status):
    counts["sim.instructions"] += status.instr_count


def _note_events(counts, args, result):
    counts["sim.deliver_calls"] += 1
    counts["sim.deliver_events"] += len(args[1])


def _note_trials(counts, args, result):
    counts["orders.subset_trials"] += result.n_trials


def _machine_layer(args):
    """``Machine.run`` time is split by what the run feeds: a sequence
    analyzer (the Graphs 4-11 re-simulations) or an edge profile."""
    from repro.sim.trace import SequenceAnalyzer
    if any(isinstance(ob, SequenceAnalyzer) for ob in args[0].observers):
        return "sim.seq"
    return "sim.profile"


_TABLES = [f"repro.harness.tables:Table{n}.render" for n in range(1, 8)]
_GRAPHS = [f"repro.harness.graphs:{cls}.describe"
           for cls in ("Graph1", "Graphs2And3", "SequenceGraphs", "Graph13")]
_GLUE = ([f"repro.harness.tables:table{n}" for n in range(1, 8)]
         + [f"repro.harness.graphs:{fn}"
            for fn in ("graph1", "graphs2_3", "graphs4_11", "graph13")])
_CURVES = [f"repro.sim.trace:SequenceAnalyzer.{name}"
           for name in ("cumulative_instructions", "cumulative_breaks",
                        "miss_rate", "ipbc_average", "dividing_length")]

#: (layer, "module:qualname", note) -- *layer* is a name or a function of
#: the call's positional arguments; *note(counts, args, result)* adds the
#: layer's work counts after a call returns.
TARGETS = (
    [("bcc.parse", "repro.bcc.parser:parse", None),
     ("bcc.sema", "repro.bcc.sema:analyze", None),
     ("bcc.irgen", "repro.bcc.irgen:generate_ir", None),
     ("bcc.opt", "repro.bcc.opt:optimize_program", None),
     ("bcc.codegen", "repro.bcc.codegen:generate_assembly", None),
     ("isa.assemble", "repro.isa.assembler:assemble", _note_instructions),
     ("core.classify", "repro.core.classify:classify_branches", None),
     ("analysis.evidence",
      "repro.analysis.branches:analyze_branch_evidence", None),
     ("cache.get", "repro.harness.cache:ArtifactCache.get", _note_cache_get),
     ("cache.put", "repro.harness.cache:ArtifactCache.put", None),
     ("parallel.execute", "repro.harness.parallel:ParallelEngine.execute",
      _note_shards),
     ("runner", "repro.harness.runner:SuiteRunner.outcome", None),
     ("runner", "repro.harness.runner:SuiteRunner.compiled", None),
     ("runner", "repro.harness.runner:SuiteRunner._execute",
      _note_fresh_run),
     (_machine_layer, "repro.sim.machine:Machine.run", _note_sim_run),
     ("sim.deliver_profile", "repro.sim.profile:EdgeProfile.on_events",
      _note_events),
     ("sim.deliver_seq", "repro.sim.trace:SequenceAnalyzer.on_events",
      _note_events),
     ("core.heuristics", "repro.core.heuristics:applicable_heuristics", None),
     ("core.predict", "repro.core.predictors:StaticPredictor.predictions",
      None),
     ("core.predict", "repro.core.predictors:StaticPredictor.prediction_map",
      None),
     ("core.evaluate", "repro.core.evaluation:evaluate_predictions", None),
     ("core.evaluate", "repro.core.evaluation:evaluate_predictor", None),
     ("core.evaluate", "repro.core.evaluation:big_branches", None),
     ("orders.build", "repro.core.orders:build_order_data", None),
     ("orders.matrix", "repro.core.orders:miss_rate_matrix", None),
     ("orders.subset", "repro.core.orders:subset_experiment", _note_trials),
     ("orders.pairwise", "repro.core.orders:pairwise_order", None),
     ("seq.experiment", "repro.core.sequences:sequence_experiment", None),
     ("render", "repro.harness.report:TextTable.render", None),
     ("gen.generate", "repro.gen.corpus:generate_corpus", None),
     ("gen.characterize", "repro.gen.characterize:characterize", None)]
    + [("seq.curves", where, None) for where in _CURVES]
    + [("render", where, None) for where in _TABLES + _GRAPHS]
    + [("harness.glue", where, None) for where in _GLUE]
)


def resolve(where: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, qualname = where.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _is_repro(module) -> bool:
    name = getattr(module, "__name__", "")
    return name == "repro" or name.startswith("repro.")


class Tracer:
    """Self time, call counts, work counts and spans of wrapped calls.

    *clock* is the time source (seconds); tests pass a fake one.
    """

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.epoch = clock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: time spent inside outermost wrapped calls
        self.covered_s = 0.0
        #: (qualname, layer, start, duration, depth) per wrapped call
        self.spans: list[tuple[str, str, float, float, int]] = []
        # one child-time accumulator per active wrapped call
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer, note=None, name: str | None = None):
        """*fn* wrapped so its calls are accounted to *layer*."""
        clock = self.clock
        stack = self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        spans = self.spans
        choose = layer if callable(layer) else None
        name = name or getattr(fn, "__qualname__", repr(fn))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = choose(args) if choose is not None else layer
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - child[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered_s += elapsed
                spans.append((name, key, start, elapsed, len(stack)))
            if note is not None:
                note(counts, args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        functions: dict[int, tuple[object, object]] = {}
        for layer, where, note in targets:
            owner, attr = resolve(where)
            qualname = where.split(":")[1]
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(
                        self.wrap(original.fget, layer, note, qualname),
                        original.fset, original.fdel, original.__doc__)
                else:
                    wrapped = self.wrap(original, layer, note, qualname)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
            else:
                original = getattr(owner, attr)
                functions[id(original)] = (
                    original, self.wrap(original, layer, note, qualname))
        for module in list(sys.modules.values()):
            if not _is_repro(module):
                continue
            for name, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._undo.append((module, name, value))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """The accumulated numbers, JSON-ready (see :func:`layer_metrics`)."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "covered_s": self.covered_s}

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (``trace.json``)."""
        pid = os.getpid()
        events = [{"name": name, "cat": layer, "ph": "X", "pid": pid,
                   "tid": 0, "ts": round((start - self.epoch) * 1e6, 3),
                   "dur": round(elapsed * 1e6, 3), "args": {"depth": depth}}
                  for name, layer, start, elapsed, depth in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metric -> (unit, source, key): the self time ("self") or call
#: count ("calls") of a layer, a work count noted by a wrapper ("count"),
#: or a value :func:`layer_metrics` derives from several totals
METRICS = {
    "bcc.parse_s": ("s", "self", "bcc.parse"),
    "bcc.parse_calls": ("count", "calls", "bcc.parse"),
    "bcc.sema_s": ("s", "self", "bcc.sema"),
    "bcc.irgen_s": ("s", "self", "bcc.irgen"),
    "bcc.opt_s": ("s", "self", "bcc.opt"),
    "bcc.codegen_s": ("s", "self", "bcc.codegen"),
    "isa.assemble_s": ("s", "self", "isa.assemble"),
    "isa.instructions": ("count", "count", "isa.instructions"),
    "core.classify_s": ("s", "self", "core.classify"),
    "analysis.evidence_s": ("s", "self", "analysis.evidence"),
    "cache.get_s": ("s", "self", "cache.get"),
    "cache.put_s": ("s", "self", "cache.put"),
    "cache.hit_ratio": ("ratio", "derived", None),
    "parallel.execute_s": ("s", "self", "parallel.execute"),
    "parallel.shards": ("count", "count", "parallel.shards"),
    "runner.self_s": ("s", "self", "runner"),
    "runner.fresh_runs": ("count", "count", "runner.fresh_runs"),
    "sim.profile_s": ("s", "self", "sim.profile"),
    "sim.profile_runs": ("count", "calls", "sim.profile"),
    "sim.seq_s": ("s", "self", "sim.seq"),
    "sim.seq_runs": ("count", "calls", "sim.seq"),
    "sim.instructions": ("count", "count", "sim.instructions"),
    "sim.minstr_per_s": ("Minstr/s", "derived", None),
    "sim.deliver_profile_s": ("s", "self", "sim.deliver_profile"),
    "sim.deliver_seq_s": ("s", "self", "sim.deliver_seq"),
    "sim.deliver_calls": ("count", "count", "sim.deliver_calls"),
    "sim.deliver_events": ("count", "count", "sim.deliver_events"),
    "core.heuristics_s": ("s", "self", "core.heuristics"),
    "core.heuristics_calls": ("count", "calls", "core.heuristics"),
    "core.predict_s": ("s", "self", "core.predict"),
    "core.evaluate_s": ("s", "self", "core.evaluate"),
    "orders.build_s": ("s", "self", "orders.build"),
    "orders.matrix_s": ("s", "self", "orders.matrix"),
    "orders.matrix_calls": ("count", "calls", "orders.matrix"),
    "orders.subset_s": ("s", "self", "orders.subset"),
    "orders.subset_calls": ("count", "calls", "orders.subset"),
    "orders.subset_trials": ("count", "count", "orders.subset_trials"),
    "orders.pairwise_s": ("s", "self", "orders.pairwise"),
    "seq.experiment_s": ("s", "self", "seq.experiment"),
    "seq.curves_s": ("s", "self", "seq.curves"),
    "render.s": ("s", "self", "render"),
    "harness.glue_s": ("s", "self", "harness.glue"),
    "gen.generate_s": ("s", "self", "gen.generate"),
    "gen.characterize_s": ("s", "self", "gen.characterize"),
    "trace.coverage": ("ratio", "derived", None),
    "trace.overhead": ("ratio", "derived", None),
}

#: counts that must repeat exactly between two runs of one program
EXACT_COUNTS = ("sim.instructions", "isa.instructions",
                "orders.subset_trials", "bcc.parse_calls",
                "sim.profile_runs", "sim.seq_runs")


def layer_metrics(totals: dict, run_s: float,
                  untraced_run_s: float | None = None) -> dict[str, dict]:
    """Every per-layer metric, as ``{name: {"value": v, "unit": u}}``.

    *totals* is :meth:`Tracer.totals`; *run_s* is the traced run's wall
    time (the denominator of ``trace.coverage``, so ``covered_s`` must be
    counted over the same interval); *untraced_run_s* is the untraced
    median that ``trace.overhead`` compares it with.
    """
    self_s = defaultdict(float, totals["self_s"])
    counts = defaultdict(int, totals["counts"])
    sources = {"self": self_s, "calls": defaultdict(int, totals["calls"]),
               "count": counts}
    values = {name: sources[source][key]
              for name, (_, source, key) in METRICS.items()
              if source != "derived"}
    values["cache.hit_ratio"] = _ratio(counts["cache.hits"],
                                       counts["cache.gets"])
    values["sim.minstr_per_s"] = _ratio(
        counts["sim.instructions"] / 1e6,
        self_s["sim.profile"] + self_s["sim.seq"])
    values["trace.coverage"] = _ratio(totals["covered_s"], run_s)
    values["trace.overhead"] = (run_s / untraced_run_s - 1
                                if untraced_run_s else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in METRICS.items()}
