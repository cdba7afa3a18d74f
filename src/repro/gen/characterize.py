"""Branch-predictability characterization over a generated corpus.

Because the generator knows which template emitted every procedure, each
machine branch maps to an *exact* cluster label (branch -> containing
procedure -> template).  Characterization runs the whole corpus through
the harness (optionally parallel + artifact-cached), scores the paper's
full heuristic chain against the perfect static predictor per cluster,
and reports where each Ball-Larus rule wins or breaks down:

* ``loop.exact`` / ``loop.interval`` — loop-dominated clusters the loop
  predictor should crush (and SCEV should count);
* ``loop.data`` — data-dependent trips: loop predictor still good, SCEV
  deliberately blind;
* ``branch.bias`` — biased data branches: heuristics only win if some
  rule fires, Default is a coin flip against the bias;
* ``branch.balanced`` — the adversarial cluster: *no* static predictor
  should beat ~50% here, and a cluster miss rate well below the perfect
  rate + noise indicates leakage in the experiment;
* ``guard.pointer`` / ``store.guard`` / ``call.*`` / ``fp.compare`` —
  each a home game for one heuristic (Point, Store, Call/Return,
  Opcode), measuring that rule's real coverage and payoff.

All aggregation is integer-count based and iteration orders are sorted,
so the rendered table and the JSON payload are byte-identical across
serial/parallel execution and repeat runs of the same corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.predictors import HeuristicPredictor
from repro.gen.grammar import GenProgram
from repro.harness.report import TextTable
from repro.harness.runner import SuiteRunner

__all__ = [
    "CHARACTERIZE_SCHEMA", "ClusterStats", "Characterization",
    "characterize", "evidence_counts",
]

CHARACTERIZE_SCHEMA = "repro.gen.characterize/v1"


@dataclass
class ClusterStats:
    """Aggregated branch statistics for one ground-truth cluster."""

    label: str
    programs: int = 0            #: programs contributing >= 1 branch
    static_branches: int = 0     #: conditional branches in cluster procs
    executed_branches: int = 0   #: of those, executed at least once
    loop_branches: int = 0       #: classified loop branches (static)
    dynamic: int = 0             #: total dynamic executions
    heuristic_misses: int = 0    #: paper-chain (BL) mispredictions
    perfect_misses: int = 0      #: perfect static predictor mispredictions
    #: dynamic executions per deciding rule (heuristic name,
    #: "LoopPredictor", or "Default")
    attribution: dict[str, int] = field(default_factory=dict)
    #: statically decided branch facts per evidence source
    #: ("sccp"/"range"/"scev"); populated only with evidence=True
    evidence: dict[str, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return self.heuristic_misses / self.dynamic if self.dynamic else 0.0

    @property
    def perfect_rate(self) -> float:
        return self.perfect_misses / self.dynamic if self.dynamic else 0.0

    def top_deciders(self, n: int = 2) -> str:
        """The n heaviest deciding rules, as ``"Name pct%"`` pairs."""
        if not self.dynamic:
            return ""
        ranked = sorted(self.attribution.items(),
                        key=lambda kv: (-kv[1], kv[0]))[:n]
        return ", ".join(f"{name} {100 * count / self.dynamic:.0f}%"
                         for name, count in ranked)


@dataclass
class Characterization:
    """The full per-cluster report for one corpus + dataset."""

    dataset: str
    programs: int
    clusters: dict[str, ClusterStats]
    with_evidence: bool = False

    def render(self) -> str:
        columns = ["cluster", "progs", "branches", "exec", "loop",
                   "dynamic", "BL miss%", "perfect%", "deciders"]
        if self.with_evidence:
            columns.append("decided(sccp/range/scev)")
        table = TextTable(
            columns,
            title=f"Corpus characterization: Ball-Larus chain vs perfect "
                  f"static, by ground-truth cluster "
                  f"({self.programs} programs, dataset {self.dataset})")
        totals = ClusterStats("ALL")
        for label in sorted(self.clusters):
            c = self.clusters[label]
            row = [label, c.programs, c.static_branches,
                   c.executed_branches, c.loop_branches, c.dynamic,
                   f"{100 * c.miss_rate:.2f}",
                   f"{100 * c.perfect_rate:.2f}", c.top_deciders()]
            if self.with_evidence:
                row.append(f"{c.evidence.get('sccp', 0)}/"
                           f"{c.evidence.get('range', 0)}/"
                           f"{c.evidence.get('scev', 0)}")
            table.add_row(*row)
            totals.static_branches += c.static_branches
            totals.executed_branches += c.executed_branches
            totals.loop_branches += c.loop_branches
            totals.dynamic += c.dynamic
            totals.heuristic_misses += c.heuristic_misses
            totals.perfect_misses += c.perfect_misses
            for source, count in c.evidence.items():
                totals.evidence[source] = \
                    totals.evidence.get(source, 0) + count
        table.add_separator()
        row = ["ALL", self.programs, totals.static_branches,
               totals.executed_branches, totals.loop_branches,
               totals.dynamic, f"{100 * totals.miss_rate:.2f}",
               f"{100 * totals.perfect_rate:.2f}", ""]
        if self.with_evidence:
            row.append(f"{totals.evidence.get('sccp', 0)}/"
                       f"{totals.evidence.get('range', 0)}/"
                       f"{totals.evidence.get('scev', 0)}")
        table.add_row(*row)
        return table.render()

    def to_json(self) -> dict:
        """Stable payload for goldens: sorted keys, integer counts,
        rates rounded at serialization time only."""
        return {
            "schema": CHARACTERIZE_SCHEMA,
            "dataset": self.dataset,
            "programs": self.programs,
            "clusters": {
                label: {
                    "programs": c.programs,
                    "static_branches": c.static_branches,
                    "executed_branches": c.executed_branches,
                    "loop_branches": c.loop_branches,
                    "dynamic": c.dynamic,
                    "heuristic_misses": c.heuristic_misses,
                    "perfect_misses": c.perfect_misses,
                    "miss_rate": round(c.miss_rate, 6),
                    "perfect_rate": round(c.perfect_rate, 6),
                    "attribution": dict(sorted(c.attribution.items())),
                    "evidence": dict(sorted(c.evidence.items())),
                }
                for label, c in sorted(self.clusters.items())
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def characterize(programs: list[GenProgram], runner: SuiteRunner,
                 dataset: str = "ref",
                 evidence: bool = False) -> Characterization:
    """Run the corpus and aggregate per-cluster predictability.

    *runner* must cover exactly these programs (see
    :func:`repro.gen.corpus.corpus_runner`); with ``parallelism > 1``
    the shards prefetch through the process pool and the serial
    aggregation below replays the memo caches, so results are identical
    to a serial run by construction.
    """
    if runner.parallelism > 1:
        runner.prefetch([(name, dataset) for name in runner.benchmark_names])
    clusters: dict[str, ClusterStats] = {}
    for gp in programs:
        run = runner.run(gp.name, dataset)
        predictor = HeuristicPredictor(run.analysis)
        predictions = predictor.predictions()
        touched: set[str] = set()
        for addr, branch in sorted(run.analysis.branches.items()):
            label = gp.label_of(branch.procedure.name)
            if label == "runtime":
                continue  # library code repeats across every program
            stats = clusters.setdefault(label, ClusterStats(label))
            touched.add(label)
            stats.static_branches += 1
            if branch.is_loop_branch:
                stats.loop_branches += 1
            count = run.profile.execution_count(addr)
            if count == 0:
                continue
            stats.executed_branches += 1
            stats.dynamic += count
            if predictions[addr].as_bool:
                stats.heuristic_misses += run.profile.not_taken_count(addr)
            else:
                stats.heuristic_misses += run.profile.taken_count(addr)
            stats.perfect_misses += run.profile.perfect_miss_count(addr)
            decider = predictor.attribution.get(addr, "Default")
            stats.attribution[decider] = \
                stats.attribution.get(decider, 0) + count
        for label in touched:
            clusters[label].programs += 1
    if evidence:
        for label, counts in evidence_counts(programs).items():
            clusters.setdefault(label, ClusterStats(label)).evidence = counts
    return Characterization(dataset=dataset, programs=len(programs),
                            clusters=clusters, with_evidence=evidence)


def evidence_counts(programs: list[GenProgram]) -> dict[str, dict[str, int]]:
    """Statically decided branch facts per cluster, by evidence source.

    Compiles each program fold-free (so decided branches survive into
    the IR), classifies its branches (which seeds the interprocedural
    ranges), and attributes every decided fact to its procedure's
    ground-truth cluster — the static side of the characterization:
    where SCCP, value ranges, and SCEV actually decide generated
    branches.
    """
    from repro.analysis.branches import analyze_branch_evidence
    from repro.bcc.driver import compile_to_ir
    from repro.harness.evidence import NO_FOLD_PASSES

    out: dict[str, dict[str, int]] = {}
    for gp in programs:
        program = compile_to_ir(gp.source, filename=f"{gp.name}.blc",
                                passes=NO_FOLD_PASSES)
        for fact in analyze_branch_evidence(program).decided_facts():
            label = gp.label_of(fact.function)
            if label == "runtime":
                continue
            counts = out.setdefault(label, {})
            counts[fact.source] = counts.get(fact.source, 0) + 1
    return out
