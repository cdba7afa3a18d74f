"""Edge-case coverage for SequenceAnalyzer and BranchTrace truncation.

Satellites of the telemetry PR: the analyzer's degenerate inputs (empty
traces, single breaks) must produce well-defined metrics, its cumulative
curves must be monotone, and BranchTrace must never truncate silently.
"""

import logging

import pytest

from repro import telemetry
from repro.isa.instructions import Instruction, OPCODES_BY_NAME
from repro.sim import BranchTrace, SequenceAnalyzer
from repro.sim.trace import BUCKET_WIDTH, NUM_BUCKETS


def branch_at(addr):
    return Instruction(op=OPCODES_BY_NAME["beq"], rs=8, rt=0, address=addr)


def jump_at(addr):
    return Instruction(op=OPCODES_BY_NAME["jr"], rs=9, address=addr)


class TestSequenceAnalyzerEmptyTrace:
    """A run with no events at all (or zero instructions)."""

    def test_zero_instruction_run(self):
        an = SequenceAnalyzer({})
        an.on_finish(0)
        assert an.ipbc_average == 0.0
        assert an.dividing_length == 0
        assert an.miss_rate == 0.0
        assert an.cumulative_instructions() == []
        assert an.cumulative_breaks() == []
        assert an.n_breaks == 0

    def test_no_breaks_counts_trailing_run(self):
        # 100 straight-line instructions, no branch events: with
        # include_trailing the whole run is one sequence
        an = SequenceAnalyzer({})
        an.on_finish(100)
        assert an.n_breaks == 1
        assert an.total_instructions == 100
        assert an.ipbc_average == 100.0
        assert an.dividing_length == 110  # bucket [100,109] upper edge

    def test_no_breaks_without_trailing(self):
        an = SequenceAnalyzer({}, include_trailing=False)
        an.on_finish(100)
        assert an.n_breaks == 0
        # every instruction ran, none attributed to a sequence: the
        # profile-style average degrades to the whole run length
        assert an.ipbc_average == 100.0
        assert an.dividing_length == 0

    def test_missing_prediction_raises(self):
        an = SequenceAnalyzer({})
        an.on_branch(branch_at(0x400000), True, 10)
        with pytest.raises(KeyError):
            an.on_finish(10)


class TestSequenceAnalyzerSingleBreak:
    def test_single_mispredict_splits_trace(self):
        an = SequenceAnalyzer({0x400000: True})
        an.on_branch(branch_at(0x400000), False, 30)   # mispredict @30
        an.on_finish(100)
        assert an.n_breaks == 2                        # break + trailing
        assert an.n_mispredicts == 1
        assert an.miss_rate == 1.0
        assert an.total_instructions == 100
        assert an.ipbc_average == 50.0
        # sequences: 30 and 70 instructions
        assert sum(an.seq_counts) == 2
        assert sum(an.seq_instr_sums) == 100

    def test_single_correct_prediction_is_no_break(self):
        an = SequenceAnalyzer({0x400000: True})
        an.on_branch(branch_at(0x400000), True, 30)
        an.on_finish(100)
        assert an.n_mispredicts == 0
        assert an.miss_rate == 0.0
        assert an.n_breaks == 1  # only the trailing sequence

    def test_single_indirect_break(self):
        an = SequenceAnalyzer({})
        an.on_indirect(jump_at(0x400010), 42)
        an.on_finish(42)   # ends exactly at the break: no trailing seq
        assert an.n_breaks == 1
        assert an.ipbc_average == 42.0

    def test_zero_length_final_sequence_not_counted(self):
        an = SequenceAnalyzer({0x400000: True})
        an.on_branch(branch_at(0x400000), False, 100)
        an.on_finish(100)
        assert an.n_breaks == 1

    def test_overflow_bucket(self):
        an = SequenceAnalyzer({})
        huge = NUM_BUCKETS * BUCKET_WIDTH * 3
        an.on_indirect(jump_at(0x400010), huge)
        an.on_finish(huge)
        assert an.seq_counts[NUM_BUCKETS - 1] == 1
        assert an.seq_instr_sums[NUM_BUCKETS - 1] == huge


class TestCumulativeMonotonicity:
    def _analyzer_with_breaks(self, breaks):
        an = SequenceAnalyzer({})
        for count in breaks:
            an.on_indirect(jump_at(0x400010), count)
        an.on_finish(breaks[-1] + 7)
        return an

    @pytest.mark.parametrize("breaks", [
        [5], [10, 20, 25], [3, 600, 1200, 50000],
        list(range(7, 7 * 40, 7)),
    ])
    def test_cumulative_instructions_monotone_to_100(self, breaks):
        points = self._analyzer_with_breaks(breaks).cumulative_instructions()
        pcts = [pct for _, pct in points]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))
        assert pcts[-1] == pytest.approx(100.0)
        xs = [x for x, _ in points]
        assert xs == sorted(xs)
        assert all(0.0 <= p <= 100.0 + 1e-9 for p in pcts)

    @pytest.mark.parametrize("breaks", [[5], [10, 20, 25],
                                        [3, 600, 1200, 50000]])
    def test_cumulative_breaks_monotone_to_100(self, breaks):
        points = self._analyzer_with_breaks(breaks).cumulative_breaks()
        pcts = [pct for _, pct in points]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))
        assert pcts[-1] == pytest.approx(100.0)

    def test_dividing_length_lies_on_cumulative_curve(self):
        an = self._analyzer_with_breaks([10, 20, 30, 40, 1000])
        dividing = an.dividing_length
        points = dict(an.cumulative_instructions())
        assert points[dividing] >= 50.0
        prev = dividing - BUCKET_WIDTH
        if prev in points:
            assert points[prev] < 50.0


class TestBranchTraceTruncation:
    def test_truncation_counts_and_warns(self, caplog):
        trace = BranchTrace(limit=3)
        with caplog.at_level(logging.WARNING, logger="repro.sim.trace"):
            for i in range(10):
                trace.on_branch(branch_at(0x400000 + 4 * i), True, i + 1)
            trace.on_finish(10)
        assert len(trace.events) == 3
        assert trace.truncated is True
        assert trace.dropped == 7
        warnings = [r for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert any("limit of 3" in r.getMessage() for r in warnings)
        assert any("dropped 7" in r.getMessage() for r in warnings)

    def test_truncated_counter_reported(self):
        sink = telemetry.Telemetry()
        with telemetry.use(sink):
            trace = BranchTrace(limit=2)
            for i in range(5):
                trace.on_branch(branch_at(0x400000), bool(i % 2), i + 1)
        assert sink.counters()["trace.truncated"] == 3

    def test_under_limit_untouched(self, caplog):
        trace = BranchTrace(limit=10)
        with caplog.at_level(logging.WARNING, logger="repro.sim.trace"):
            for i in range(5):
                trace.on_branch(branch_at(0x400000), True, i + 1)
            trace.on_finish(5)
        assert trace.truncated is False
        assert trace.dropped == 0
        assert not caplog.records
