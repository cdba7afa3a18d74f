"""Tests for the heuristic-ordering experiments (Section 5)."""

from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import profile_of
from repro.bcc import compile_and_link
from repro.core import (
    HEURISTIC_NAMES, HeuristicPredictor, all_orders, all_orders_curve,
    best_order, build_order_data, classify_branches, evaluate_predictor,
    miss_rate_matrix, order_miss_rate, pairwise_order, subset_experiment,
)
from repro.core import orders as orders_module
from repro.core.orders import _subset_sweep

SRC_A = """
struct Node { int v; struct Node *next; };
int main() {
    struct Node *head = NULL;
    struct Node *p;
    int i, s = 0;
    for (i = 0; i < 60; i++) {
        p = (struct Node *)malloc(sizeof(struct Node));
        p->v = i % 7;
        p->next = head;
        head = p;
    }
    for (p = head; p != NULL; p = p->next) {
        if (p->v == 0) { s++; }
    }
    return s;
}
"""

SRC_B = """
int a[100];
int main() {
    int i, mx = 0;
    for (i = 0; i < 100; i++) { a[i] = (i * 37) % 100; }
    for (i = 0; i < 100; i++) {
        if (a[i] > mx) { mx = a[i]; }
    }
    return mx;
}
"""


@pytest.fixture(scope="module")
def datasets():
    out = []
    for name, src in (("a", SRC_A), ("b", SRC_B)):
        exe = compile_and_link(src)
        analysis = classify_branches(exe)
        profile = profile_of(exe)
        out.append(build_order_data(name, analysis, profile))
    return out


class TestOrderData:
    def test_rows_are_executed_non_loop(self, datasets):
        for data in datasets:
            assert data.applies.shape[1] == len(HEURISTIC_NAMES)
            assert (data.taken + data.not_taken > 0).all()

    def test_total(self, datasets):
        for data in datasets:
            assert data.total == data.taken.sum() + data.not_taken.sum()


class TestOrderMissRate:
    def test_matches_heuristic_predictor(self, datasets):
        """Vectorized order evaluation must agree with the reference
        HeuristicPredictor path for any order."""
        exe = compile_and_link(SRC_A)
        analysis = classify_branches(exe)
        profile = profile_of(exe)
        data = build_order_data("a", analysis, profile)
        nl = [b.address for b in analysis.non_loop_branches()
              if profile.execution_count(b.address) > 0]
        for order in [tuple(HEURISTIC_NAMES),
                      tuple(reversed(HEURISTIC_NAMES))]:
            predictor = HeuristicPredictor(analysis, order=order)
            reference = evaluate_predictor(predictor, profile, nl)
            fast = order_miss_rate(data, order)
            assert fast == pytest.approx(reference.miss_rate)

    def test_all_orders_count(self):
        orders = all_orders()
        assert len(orders) == 5040
        assert len(set(orders)) == 5040

    def test_matrix_shape(self, datasets):
        matrix, orders = miss_rate_matrix(datasets)
        assert matrix.shape == (5040, len(datasets))
        assert (matrix >= 0).all() and (matrix <= 1).all()

    def test_matrix_consistent_with_scalar_path(self, datasets):
        orders = all_orders()[:5]
        matrix, _ = miss_rate_matrix(datasets, orders)
        for i, order in enumerate(orders):
            for j, data in enumerate(datasets):
                assert matrix[i, j] == pytest.approx(
                    order_miss_rate(data, order))

    def test_curve_sorted(self, datasets):
        curve = all_orders_curve(datasets)
        assert (np.diff(curve) >= 0).all()

    def test_best_order_is_minimum(self, datasets):
        order, miss = best_order(datasets)
        matrix, _ = miss_rate_matrix(datasets)
        assert miss == pytest.approx(float(matrix.mean(axis=1).min()))
        assert sorted(order) == sorted(HEURISTIC_NAMES)


class TestSubsetExperiment:
    def test_trial_count(self, datasets):
        result = subset_experiment(datasets, k=1)
        assert result.n_trials == len(datasets)

    def test_frequencies_sum_to_trials(self, datasets):
        result = subset_experiment(datasets, k=1)
        assert sum(result.frequencies) == result.n_trials

    def test_frequencies_sorted_descending(self, datasets):
        result = subset_experiment(datasets, k=1)
        assert result.frequencies == sorted(result.frequencies,
                                            reverse=True)

    def test_cumulative_share_ends_at_one(self, datasets):
        result = subset_experiment(datasets, k=1)
        share = result.cumulative_trial_share()
        assert share[-1] == pytest.approx(1.0)

    def test_top(self, datasets):
        result = subset_experiment(datasets, k=1)
        top = result.top(3)
        assert len(top) <= 3
        for order, freq, miss in top:
            assert sorted(order) == sorted(HEURISTIC_NAMES)
            assert freq >= 1
            assert 0.0 <= miss <= 1.0

    @pytest.mark.parametrize("k", [3, -1])
    def test_k_outside_0_to_n_is_refused(self, datasets, k):
        with pytest.raises(ValueError, match=rf"k={k} .* n=2"):
            subset_experiment(datasets, k=k)

    def test_single_benchmark_runs_one_empty_trial(self, datasets):
        """One benchmark gives k = 0: one trial over the empty subset, won
        by the first order (every score ties at zero)."""
        result = subset_experiment(datasets[:1])
        assert result.n_trials == 1
        assert result.frequencies == [1]
        assert result.orders == [all_orders()[0]]
        assert result.cumulative_trial_share()[-1] == 1.0


def _oracle(matrix, orders, k, chunk=2048):
    """The full sweep: every order scored in every trial, tallied in a
    Counter. The pruned sweep must reproduce it exactly."""
    n = matrix.shape[1]
    overall = matrix.mean(axis=1)                 # (O,)
    counter: Counter[int] = Counter()
    n_trials = 0
    subset_iter = combinations(range(n), k)
    while True:
        batch = []
        for _ in range(chunk):
            try:
                batch.append(next(subset_iter))
            except StopIteration:
                break
        if not batch:
            break
        mask = np.zeros((len(batch), n), dtype=np.float32)
        for row, subset in enumerate(batch):
            mask[row, list(subset)] = 1.0
        scores = mask @ matrix.T.astype(np.float32)   # (batch, O)
        winners = scores.argmin(axis=1)
        counter.update(winners.tolist())
        n_trials += len(batch)
    ranked = counter.most_common()
    return orders_module.SubsetExperimentResult(
        orders=[orders[i] for i, _ in ranked],
        frequencies=[c for _, c in ranked],
        overall_miss_rates=[float(overall[i]) for i, _ in ranked],
        n_trials=n_trials,
    )


@st.composite
def tied_matrices(draw):
    """Coarsely quantized (O, N) miss-rate matrices padded with duplicate
    rows and with rows dominated by, or dominating, an earlier or later
    row, so that score and frequency ties are common."""
    n = draw(st.integers(1, 6))
    levels = draw(st.sampled_from([1, 2, 3, 10]))
    value = st.integers(0, levels).map(lambda i: i / levels)
    row = st.lists(value, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 16))):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        other = draw(row)
        derived = draw(st.sampled_from([
            source,
            [max(a, b) for a, b in zip(source, other)],
            [min(a, b) for a, b in zip(source, other)],
        ]))
        rows.insert(draw(st.integers(0, len(rows))), derived)
    return np.array(rows, dtype=np.float64)


class TestPrunedSweep:
    """The candidate-pruned sweep against the full sweep it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(matrix=tied_matrices(), data=st.data())
    def test_matches_full_sweep(self, matrix, data):
        k = data.draw(st.integers(0, matrix.shape[1]))
        # small cell budgets split the trials over many chunks, so the
        # cross-chunk first-win bookkeeping is exercised too
        cells = data.draw(st.sampled_from([1, 5, orders_module._SWEEP_CELLS]))
        orders = [(f"o{i}",) for i in range(matrix.shape[0])]
        with mock.patch.object(orders_module, "_SWEEP_CELLS", cells):
            result = _subset_sweep(matrix, orders, k)
        expected = _oracle(matrix, orders, k)
        assert result.orders == expected.orders
        assert result.frequencies == expected.frequencies
        assert result.n_trials == expected.n_trials
        assert result.overall_miss_rates == expected.overall_miss_rates

    def test_matches_full_sweep_on_real_orders(self, datasets):
        matrix, orders = miss_rate_matrix(datasets)
        for k in range(3):
            result = _subset_sweep(matrix, orders, k)
            expected = _oracle(matrix, orders, k)
            assert (result.orders, result.frequencies, result.n_trials) == (
                expected.orders, expected.frequencies, expected.n_trials)

    @pytest.mark.parametrize("cells", [1, orders_module._SWEEP_CELLS])
    def test_count_ties_rank_by_first_win(self, cells):
        """Orders 0 and 1 win two single-benchmark trials each; order 1
        wins trial 0 first, so it ranks first, in one chunk or many."""
        matrix = np.array([[1.0, 0.0, 0.0, 1.0],
                           [0.0, 1.0, 1.0, 0.0]])
        with mock.patch.object(orders_module, "_SWEEP_CELLS", cells):
            result = _subset_sweep(matrix, ["late", "early"], 1)
        assert result.orders == ["early", "late"]
        assert result.frequencies == [2, 2]
        assert _oracle(matrix, ["late", "early"], 1).orders == result.orders

    def test_lex_subsets_match_itertools(self):
        for n in range(10):
            for k in range(n + 1):
                subsets = orders_module._lex_subsets(n, k)
                assert subsets.shape == (len(list(combinations(range(n),
                                                               k))), k)
                assert [tuple(map(int, s)) for s in subsets] == list(
                    combinations(range(n), k))

    def test_dominated_and_duplicate_rows_are_not_candidates(self):
        rows = np.array([[0.5, 0.5],
                         [0.5, 0.5],     # duplicate of row 0
                         [0.6, 0.5],     # dominated by row 0
                         [0.4, 0.6],
                         [0.4, 0.4]],    # dominates rows 0-3, but later
                        dtype=np.float32)
        assert orders_module._candidate_orders(rows).tolist() == [0, 3, 4]


class TestPairwiseOrder:
    def test_is_permutation(self, datasets):
        order = pairwise_order(datasets)
        assert sorted(order) == sorted(HEURISTIC_NAMES)

    def test_deterministic(self, datasets):
        assert pairwise_order(datasets) == pairwise_order(datasets)

    def test_not_catastrophic(self, datasets):
        """The paper: pairwise orders are inferior but in the top quarter."""
        matrix, orders = miss_rate_matrix(datasets)
        means = matrix.mean(axis=1)
        pw = pairwise_order(datasets)
        pw_miss = means[orders.index(pw)]
        assert pw_miss <= np.percentile(means, 50)
