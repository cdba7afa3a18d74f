"""Tests for edge profiling and trace-based sequence analysis."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import assemble
from repro.isa.instructions import Instruction, OPCODES_BY_NAME
from repro.sim import BranchTrace, EdgeProfile, Machine, SequenceAnalyzer
from repro.sim.trace import BUCKET_WIDTH, NUM_BUCKETS


def branch_at(addr):
    return Instruction(op=OPCODES_BY_NAME["beq"], rs=8, rt=0, address=addr)


class TestEdgeProfile:
    def make_profile(self, events):
        profile = EdgeProfile()
        for addr, taken in events:
            profile.on_branch(branch_at(addr), taken, 0)
        return profile

    def test_counts(self):
        p = self.make_profile([(100, True), (100, True), (100, False)])
        assert p.taken_count(100) == 2
        assert p.not_taken_count(100) == 1
        assert p.execution_count(100) == 3

    def test_unknown_branch_is_zero(self):
        p = EdgeProfile()
        assert p.taken_count(4) == 0
        assert p.execution_count(4) == 0
        assert 4 not in p

    def test_executed_branches_sorted(self):
        p = self.make_profile([(300, True), (100, False), (200, True)])
        assert p.executed_branches() == [100, 200, 300]

    def test_total(self):
        p = self.make_profile([(1, True)] * 5 + [(2, False)] * 3)
        assert p.total_dynamic_branches == 8
        assert len(p) == 2

    def test_perfect_predictions_majority(self):
        p = self.make_profile([(1, True), (1, True), (1, False),
                               (2, False), (2, False)])
        preds = p.perfect_predictions()
        assert preds[1] is True
        assert preds[2] is False

    def test_perfect_prediction_tie_goes_taken(self):
        p = self.make_profile([(1, True), (1, False)])
        assert p.perfect_predictions()[1] is True

    def test_perfect_miss_count(self):
        p = self.make_profile([(1, True)] * 7 + [(1, False)] * 3)
        assert p.perfect_miss_count(1) == 3

    def test_merged(self):
        a = self.make_profile([(1, True), (2, False)])
        b = self.make_profile([(1, False), (3, True)])
        merged = a.merged_with(b)
        assert merged.taken_count(1) == 1
        assert merged.not_taken_count(1) == 1
        assert merged.execution_count(3) == 1
        assert merged.total_dynamic_branches == 4

    @given(st.lists(st.tuples(st.sampled_from([4, 8, 12]), st.booleans()),
                    max_size=200))
    def test_counts_invariant(self, events):
        p = self.make_profile(events)
        total = sum(p.execution_count(a) for a in p.executed_branches())
        assert total == len(events) == p.total_dynamic_branches
        for addr in p.executed_branches():
            assert p.perfect_miss_count(addr) <= p.execution_count(addr) // 2


class TestSequenceAnalyzer:
    def test_correct_predictions_no_breaks(self):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        for i in range(5):
            sa.on_branch(branch_at(100), True, 10 * (i + 1))
        sa.on_finish(60)
        assert sa.n_breaks == 0
        assert sa.n_mispredicts == 0
        assert sa.miss_rate == 0.0

    def test_mispredicts_break_sequences(self):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        sa.on_branch(branch_at(100), False, 7)    # break, length 7
        sa.on_branch(branch_at(100), True, 15)    # correct
        sa.on_branch(branch_at(100), False, 30)   # break, length 23
        sa.on_finish(40)
        assert sa.n_breaks == 2
        assert sa.seq_counts[0] == 1   # bucket [0,9]
        assert sa.seq_counts[2] == 1   # bucket [20,29]
        assert sa.seq_instr_sums[0] == 7
        assert sa.seq_instr_sums[2] == 23

    def test_trailing_sequence_included_by_default(self):
        sa = SequenceAnalyzer({100: True})
        sa.on_branch(branch_at(100), False, 5)
        sa.on_finish(50)
        assert sa.n_breaks == 2
        assert sum(sa.seq_instr_sums) == 50

    def test_indirect_always_breaks(self):
        sa = SequenceAnalyzer({}, include_trailing=False)
        jalr = Instruction(op=OPCODES_BY_NAME["jalr"], rd=31, rs=8,
                           address=4)
        sa.on_indirect(jalr, 12)
        sa.on_finish(12)
        assert sa.n_breaks == 1

    def test_missing_prediction_raises(self):
        sa = SequenceAnalyzer({})
        sa.on_branch(branch_at(123), True, 1)
        with pytest.raises(KeyError):
            sa.on_finish(1)

    def test_overflow_bucket(self):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        sa.on_branch(branch_at(100), False, 50_000)
        sa.on_finish(50_000)
        assert sa.seq_counts[NUM_BUCKETS - 1] == 1

    def test_ipbc_average(self):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        sa.on_branch(branch_at(100), False, 40)
        sa.on_branch(branch_at(100), False, 100)
        sa.on_finish(100)
        assert sa.ipbc_average == 50.0

    def test_ipbc_no_breaks(self):
        sa = SequenceAnalyzer({}, include_trailing=False)
        sa.on_finish(500)
        assert sa.ipbc_average == 500.0

    def test_cumulative_instructions_monotone_to_100(self):
        sa = SequenceAnalyzer({100: True})
        for count in (13, 27, 101, 630):
            sa.on_branch(branch_at(100), False, count)
        sa.on_finish(700)
        curve = sa.cumulative_instructions()
        values = [v for _, v in curve]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(100.0)

    def test_cumulative_breaks(self):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        sa.on_branch(branch_at(100), False, 5)     # len 5
        sa.on_branch(branch_at(100), False, 1000)  # len 995
        sa.on_finish(1000)
        curve = sa.cumulative_breaks()
        assert curve[0] == (BUCKET_WIDTH, 50.0)

    def test_dividing_length(self):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        sa.on_branch(branch_at(100), False, 100)   # len 100
        sa.on_branch(branch_at(100), False, 200)   # len 100
        sa.on_finish(200)
        # 50% of instructions reached at the bucket containing length 100
        assert sa.dividing_length == 110

    def test_skewed_distribution_ipbc_underestimates(self):
        # the paper's spice argument: many short sequences + few huge ones
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        count = 0
        for _ in range(90):     # 90 sequences of length 10
            count += 10
            sa.on_branch(branch_at(100), False, count)
        for _ in range(10):     # 10 sequences of length 2000
            count += 2000
            sa.on_branch(branch_at(100), False, count)
        sa.on_finish(count)
        assert sa.ipbc_average < sa.dividing_length

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=50))
    def test_instruction_conservation(self, lengths):
        sa = SequenceAnalyzer({100: True}, include_trailing=False)
        count = 0
        for length in lengths:
            count += length
            sa.on_branch(branch_at(100), False, count)
        sa.on_finish(count)
        assert sum(sa.seq_instr_sums) == count
        assert sum(sa.seq_counts) == len(lengths)


class TestBranchTrace:
    def test_records_events(self):
        src = (".text\n.ent main\nmain:\nli $t1, 2\n"
               "L: addiu $t1, $t1, -1\nbgtz $t1, L\nli $v0, 10\nsyscall\n"
               ".end main\n")
        exe = assemble(src)
        trace = BranchTrace()
        Machine(exe, observers=[trace]).run()
        assert [taken for _, taken in trace.events] == [True, False]
        assert not trace.truncated

    def test_limit_truncates(self):
        trace = BranchTrace(limit=2)
        for i in range(5):
            trace.on_branch(branch_at(4), True, i)
        assert len(trace.events) == 2
        assert trace.truncated
