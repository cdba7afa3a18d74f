"""The Graphs 4-11 log pass against the per-event algorithm it replaced.

:meth:`SequenceAnalyzer.analyze` computes a predictor's sequence-length
distribution from a recorded :class:`SequenceLog` in one vectorized pass.
:class:`_oracle` below is the online, event-by-event analyzer the
simulator used before, kept verbatim: every field the pass produces must
equal the oracle's, on generated event streams (conditional and indirect
events, run markers with zero iterations, empty templates, and templates
the map mispredicts everywhere or nowhere), and on real runs — the mini
suite under both tiers (tier 1) and every ``SEQUENCE_BENCHMARKS`` member
(tier 2).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.suite import get
from repro.core.classify import classify_branches
from repro.core.predictors import HeuristicPredictor
from repro.core.sequences import sequence_predictions
from repro.harness import SEQUENCE_BENCHMARKS
from repro.isa.instructions import Instruction, OPCODES_BY_NAME
from repro.sim import EdgeProfile, Machine, Observer
from repro.sim.trace import (
    BUCKET_WIDTH, NUM_BUCKETS, SequenceAnalyzer, SequenceLog,
    sequence_analyzers,
)

from conftest import MINI_SUITE

_OVERFLOW = NUM_BUCKETS - 1

#: every field the pass computes (and the analyzer pickles)
FIELDS = ("seq_counts", "seq_instr_sums", "n_breaks", "n_branches",
          "n_mispredicts", "total_instructions", "_last_break_count")


class _oracle(Observer):
    """The per-event sequence analyzer the log pass replaced, verbatim."""

    def __init__(self, predictions: dict[int, bool],
                 include_trailing: bool = True) -> None:
        self.predictions = predictions
        self.include_trailing = include_trailing
        self.seq_counts = [0] * NUM_BUCKETS
        self.seq_instr_sums = [0] * NUM_BUCKETS
        self.n_breaks = 0
        self.n_branches = 0
        self.n_mispredicts = 0
        self.total_instructions = 0
        self._last_break_count = 0

    # -- observer hooks -----------------------------------------------------------

    def on_branch(self, inst: Instruction, taken: bool, instr_count: int) -> None:
        self.n_branches += 1
        if self.predictions[inst.address] != taken:
            self.n_mispredicts += 1
            self._record_break(instr_count)

    def on_indirect(self, inst: Instruction, instr_count: int) -> None:
        self._record_break(instr_count)

    def on_events(self, events) -> None:
        # batched fast path: same aggregation as the per-event hooks.  A
        # run marker stands for `iters` identical loop iterations; when the
        # predictor agrees with every event in the template (the common
        # case — the loop's hot direction), the whole run contributes no
        # breaks and aggregates in O(template).  Otherwise each iteration
        # breaks at the same offsets and is replayed break-by-break.
        predictions = self.predictions
        record = self._record_break
        n = 0
        misses = 0
        for ev in events:
            inst = ev[0]
            if inst is None:
                _, tmpl, b0, iters, ln = ev
                if iters <= 0 or not tmpl:
                    continue
                n += len(tmpl) * iters
                missed = [off for binst, taken, off in tmpl
                          if predictions[binst.address] != taken]
                if not missed:
                    continue
                misses += len(missed) * iters
                for i in range(iters):
                    cb = b0 + i * ln
                    for off in missed:
                        record(cb + off)
                continue
            taken = ev[1]
            if taken is None:
                record(ev[2])
                continue
            n += 1
            if predictions[inst.address] != taken:
                misses += 1
                record(ev[2])
        self.n_branches += n
        self.n_mispredicts += misses

    def on_finish(self, instr_count: int) -> None:
        self.total_instructions = instr_count
        if self.include_trailing and instr_count > self._last_break_count:
            self._record_break(instr_count)

    def _record_break(self, instr_count: int) -> None:
        length = instr_count - self._last_break_count
        self._last_break_count = instr_count
        self.n_breaks += 1
        bucket = min(length // BUCKET_WIDTH, _OVERFLOW)
        self.seq_counts[bucket] += 1
        self.seq_instr_sums[bucket] += length


def fields(analyzer) -> dict:
    return {name: getattr(analyzer, name) for name in FIELDS}


# -- generated streams ----------------------------------------------------------

ADDRESSES = tuple(0x400000 + 4 * i for i in range(6))
BRANCHES = {a: Instruction(op=OPCODES_BY_NAME["beq"], rs=8, rt=0, address=a)
            for a in ADDRESSES}
INDIRECT = Instruction(op=OPCODES_BY_NAME["jr"], rs=9, address=0x400100)

#: gaps between events: mostly short, sometimes past the overflow bucket
gaps = st.integers(1, 40) | st.integers(9_000, 30_000)


@st.composite
def streams(draw):
    """(predictions, batches, instructions at exit): one run's events in
    execution order, cut into flush batches."""
    predictions = {a: draw(st.booleans()) for a in ADDRESSES}
    count = draw(st.integers(0, 30))
    events = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(("branch", "indirect", "run")))
        if kind == "branch":
            count += draw(gaps)
            events.append((BRANCHES[draw(st.sampled_from(ADDRESSES))],
                           draw(st.booleans()), count))
        elif kind == "indirect":
            count += draw(gaps)
            events.append((INDIRECT, None, count))
        else:
            stride = draw(st.integers(1, 60))
            offsets = sorted(draw(st.sets(st.integers(1, stride),
                                          max_size=min(stride, 5))))
            # mispredicted at every offset, at none, or at random
            rule = draw(st.sampled_from(("all", "none", "mixed")))
            template = []
            for off in offsets:
                addr = draw(st.sampled_from(ADDRESSES))
                taken = {"all": not predictions[addr],
                         "none": predictions[addr]}.get(rule)
                if taken is None:
                    taken = draw(st.booleans())
                template.append((BRANCHES[addr], taken, off))
            iterations = draw(st.integers(0, 6))
            events.append((None, tuple(template), count, iterations, stride))
            count += iterations * stride
    cuts = sorted(draw(st.sets(st.integers(0, len(events)), max_size=4)))
    bounds = [0, *cuts, len(events)]
    batches = [events[a:b] for a, b in zip(bounds, bounds[1:])]
    return predictions, batches, count + draw(st.integers(0, 50))


class TestGeneratedStreams:
    @settings(max_examples=300, deadline=None)
    @given(streams(), st.booleans())
    def test_log_pass_equals_the_oracle(self, stream, include_trailing):
        predictions, batches, total = stream
        oracle = _oracle(predictions, include_trailing)
        analyzer = SequenceAnalyzer(predictions, include_trailing)
        for batch in batches:
            oracle.on_events(batch)
            analyzer.on_events(batch)
        oracle.on_finish(total)
        analyzer.on_finish(total)
        assert fields(analyzer) == fields(oracle)
        # the pickled fields are the oracle's: no log is left behind
        assert vars(analyzer).keys() == vars(oracle).keys()
        assert vars(pickle.loads(pickle.dumps(analyzer))).keys() \
            == vars(oracle).keys()

    @settings(max_examples=100, deadline=None)
    @given(streams(), st.booleans())
    def test_per_event_hooks_feed_the_same_log(self, stream,
                                               include_trailing):
        predictions, batches, total = stream
        oracle = _oracle(predictions, include_trailing)
        analyzer = SequenceAnalyzer(predictions, include_trailing)
        for batch in batches:
            oracle.on_events(batch)
            for ev in batch:
                if ev[0] is None:
                    analyzer.on_events([ev])
                elif ev[1] is None:
                    analyzer.on_indirect(ev[0], ev[2])
                else:
                    analyzer.on_branch(*ev)
        oracle.on_finish(total)
        analyzer.on_finish(total)
        assert fields(analyzer) == fields(oracle)

    @settings(max_examples=50, deadline=None)
    @given(streams())
    def test_one_log_serves_every_map(self, stream):
        """Analyzing one recorded log under several maps equals one
        oracle per map (the harness's three predictors)."""
        predictions, batches, total = stream
        maps = [predictions, {a: not t for a, t in predictions.items()},
                dict.fromkeys(predictions, True)]
        oracles = [_oracle(m) for m in maps]
        log = SequenceLog()
        for batch in batches:
            log.on_events(batch)
            for oracle in oracles:
                oracle.on_events(batch)
        log.on_finish(total)
        for oracle, m in zip(oracles, maps):
            oracle.on_finish(total)
            assert fields(SequenceAnalyzer(m).analyze(log)) == fields(oracle)


# -- real runs ------------------------------------------------------------------


def assert_log_matches_oracle(name, dataset, engine):
    """A profile run that also records the log (the harness's ref run)
    gives the analyzers three oracles measure on a second run."""
    bench = get(name)
    executable = bench.compile()
    analysis = classify_branches(executable)
    inputs = bench.dataset(dataset).inputs
    layout = HeuristicPredictor(analysis).prediction_map()
    profile, log = EdgeProfile(), SequenceLog()
    Machine(executable, inputs=list(inputs), observers=[profile, log],
            engine=engine, layout=layout).run()
    predictions = sequence_predictions(analysis, profile)
    logged = sequence_analyzers(log, predictions)
    oracles = {label: _oracle(preds) for label, preds in predictions.items()}
    Machine(executable, inputs=list(inputs),
            observers=list(oracles.values()), engine=engine,
            layout=layout).run()
    assert logged.keys() == oracles.keys()
    for label, oracle in oracles.items():
        assert fields(logged[label]) == fields(oracle), (name, label)


@pytest.mark.parametrize("engine", ("tier0", "tier1"))
@pytest.mark.parametrize("name", MINI_SUITE)
def test_mini_suite_log_matches_oracle(name, engine):
    assert_log_matches_oracle(name, "small", engine)


@pytest.mark.tier2
@pytest.mark.parametrize("name", SEQUENCE_BENCHMARKS)
def test_sequence_benchmarks_log_matches_oracle(name):
    assert_log_matches_oracle(name, "ref", "tier1")
