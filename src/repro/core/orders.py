"""Heuristic-ordering experiments (Section 5, Graphs 1-3, Table 4).

The combined predictor totally orders the heuristics and uses the first that
applies. These experiments quantify how much the order matters and whether
an order picked on half the benchmarks generalizes:

* :func:`all_orders_curve` — the average non-loop miss rate of every one of
  the 7! = 5040 orders, sorted (Graph 1);
* :func:`subset_experiment` — for every size-k subset of the benchmarks,
  find the order minimizing the subset's average miss rate, then score that
  order on *all* benchmarks (Graphs 2-3, Table 4);
* :func:`pairwise_order` — the cheaper pairwise-comparison ordering the
  paper reports as "generally inferior ... but in the top quarter".

Everything is precomputed into per-benchmark numpy tables (one row per
executed non-loop branch). Branches with the same set of applicable
heuristics are decided by the same rule under any order, so orders are
scored per set (see :func:`_order_misses`; the suite's 21 benchmarks have
49 sets): the whole 5040-order matrix takes ~30 ms on a 2-vCPU VM.

The subset experiment is the expensive part: C(21, 10) = 352,716 trials,
each an argmin over every order. Scoring all 5040 orders in every trial
takes 3.8 s per call on a 2-vCPU VM, so the sweep first prunes the orders
that cannot win any trial (see :func:`subset_experiment`); on the suite
241 candidates remain.

The heuristic set is *registry-derived*: every entry point takes an
optional ``names`` tuple (default: the measured set from
:data:`~repro.core.registry.HEURISTIC_REGISTRY`), so ablation and
extension experiments — drop Guard, add a registered extension — reuse
the same vectorized machinery at n! orders for n heuristics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from repro import telemetry
from repro.core.classify import Prediction, ProgramAnalysis
from repro.core.heuristics import applicable_heuristics
from repro.core.predictors import branch_random
from repro.core.registry import HEURISTIC_REGISTRY
from repro.sim.profile import EdgeProfile

__all__ = [
    "OrderData", "build_order_data", "order_miss_rate", "miss_rate_matrix",
    "all_orders", "all_orders_curve", "best_order", "subset_experiment",
    "SubsetExperimentResult", "pairwise_order",
]


def _default_names() -> tuple[str, ...]:
    """The measured heuristic set, registry-derived at call time."""
    return HEURISTIC_REGISTRY.names()


def _resolve_names(names: tuple[str, ...] | None) -> tuple[str, ...]:
    if names is None:
        return _default_names()
    return tuple(HEURISTIC_REGISTRY.get(n).name for n in names)


@dataclass
class OrderData:
    """Per-benchmark table: one row per *executed non-loop* branch."""

    name: str
    #: (B, H) — heuristic h applies to branch b
    applies: np.ndarray
    #: (B, H) — heuristic h predicts taken for branch b
    predict_taken: np.ndarray
    #: (B,) dynamic taken counts
    taken: np.ndarray
    #: (B,) dynamic fall-through counts
    not_taken: np.ndarray
    #: (B,) the Default (random) prediction, predict-taken
    default_taken: np.ndarray
    #: column labels for ``applies`` / ``predict_taken`` (default: the
    #: registry's measured set at construction time)
    names: tuple[str, ...] = field(default_factory=_default_names)

    @property
    def total(self) -> int:
        return int(self.taken.sum() + self.not_taken.sum())

    @property
    def num_heuristics(self) -> int:
        return len(self.names)


def build_order_data(name: str, analysis: ProgramAnalysis,
                     profile: EdgeProfile, seed: int = 0,
                     names: tuple[str, ...] | None = None,
                     table: dict[int, dict[str, Prediction]] | None = None
                     ) -> OrderData:
    """Evaluate heuristics on every executed non-loop branch of one
    benchmark and pack the results for vectorized order evaluation.

    *names* selects (and orders) the heuristic columns; the default is the
    registry's measured set. *table*, when given, is the branch address ->
    :func:`~repro.core.heuristics.applicable_heuristics` map of at least
    those heuristics, and is read instead of evaluating them again.
    """
    names = _resolve_names(names)
    num_h = len(names)
    rows = [b for b in analysis.non_loop_branches()
            if profile.execution_count(b.address) > 0]
    n = len(rows)
    applies = np.zeros((n, num_h), dtype=bool)
    predict_taken = np.zeros((n, num_h), dtype=bool)
    taken = np.zeros(n, dtype=np.int64)
    not_taken = np.zeros(n, dtype=np.int64)
    default_taken = np.zeros(n, dtype=bool)
    for i, branch in enumerate(rows):
        applicable = (table[branch.address] if table is not None
                      else applicable_heuristics(
                          branch, analysis.analysis_of(branch), names))
        for h, hname in enumerate(names):
            if hname in applicable:
                applies[i, h] = True
                predict_taken[i, h] = applicable[hname] is Prediction.TAKEN
        taken[i] = profile.taken_count(branch.address)
        not_taken[i] = profile.not_taken_count(branch.address)
        default_taken[i] = branch_random(branch.address, seed).as_bool
    return OrderData(name, applies, predict_taken, taken, not_taken,
                     default_taken, names)


def _rank_matrix(orders: list[tuple[str, ...]],
                 names: tuple[str, ...]) -> np.ndarray:
    """(O, H + 1) int8 rank of every rule in every order: a heuristic's
    position, the sentinel ``H + 1`` where the order leaves it out, and in
    the last column the Default's ``H``, behind every ranked heuristic
    and ahead of every unranked one."""
    num_h = len(names)
    column = {name: h for h, name in enumerate(names)}
    lengths = np.array([len(order) for order in orders], dtype=np.intp)
    rows = np.repeat(np.arange(len(orders)), lengths)
    columns = np.array([column[name] for order in orders for name in order],
                       dtype=np.intp)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    ranks = np.full((len(orders), num_h + 1), num_h + 1, dtype=np.int8)
    ranks[:, num_h] = num_h
    ranks[rows, columns] = np.arange(len(columns)) - starts
    return ranks


def _order_misses(datasets: list[OrderData],
                  ranks: np.ndarray) -> np.ndarray:
    """(N, O) int64 dynamic misses of every order (a row of *ranks*, from
    :func:`_rank_matrix`) on every dataset.

    A branch is decided by the lowest-ranked rule that applies to it, and
    the Default applies to every branch, so branches with the same set of
    applicable heuristics (a bitmask; the suite has 49 sets) are decided
    by the same rule under a given order. Each set's misses under each
    rule are summed once per dataset, the deciding rule is found once per
    (order, set), and an order's misses are the sum over sets of the
    chosen rule's misses: the same integers a per-branch evaluation sums.
    Going set by set, no temporary outgrows the (N, O) result or the
    (O, H + 1) rank matrix.
    """
    num_orders, num_rules = ranks.shape
    bits = 1 << np.arange(num_rules)
    # the Default's bit is set on every branch
    masks = [data.applies @ bits[:-1] | bits[-1] for data in datasets]
    sets = np.unique(np.concatenate([np.zeros(0, np.int64), *masks]))
    # cost[j, s, r]: misses of rule r on the set-s branches of dataset j
    cost = np.zeros((len(datasets), len(sets), num_rules), dtype=np.int64)
    for j, (data, mask) in enumerate(zip(datasets, masks)):
        predict = np.column_stack([data.predict_taken, data.default_taken])
        np.add.at(cost[j], np.searchsorted(sets, mask),
                  np.where(predict, data.not_taken[:, None],
                           data.taken[:, None]))
    misses = np.zeros((len(datasets), num_orders), dtype=np.int64)
    for s, mask in enumerate(sets):
        rules = np.flatnonzero(mask & bits)
        chosen = rules[ranks[:, rules].argmin(axis=1)]      # (O,)
        misses += cost[:, s, chosen]
    return misses


def order_miss_rate(data: OrderData, order: tuple[str, ...]) -> float:
    """Non-loop dynamic miss rate of *order* on one benchmark; a branch
    that no heuristic of *order* covers gets the Default."""
    if data.total == 0:
        return 0.0
    misses = _order_misses([data], _rank_matrix([order], data.names))
    return float(misses[0, 0]) / data.total


def all_orders(names: tuple[str, ...] | None = None
               ) -> list[tuple[str, ...]]:
    """All n! heuristic orders (7! = 5040 at the paper's measured set), in
    a fixed deterministic order."""
    return [tuple(p) for p in permutations(_resolve_names(names))]


def _dataset_names(datasets: list[OrderData]) -> tuple[str, ...]:
    """The common column labels of *datasets* (all must agree)."""
    if not datasets:
        return _default_names()
    names = datasets[0].names
    for data in datasets[1:]:
        if data.names != names:
            raise ValueError(
                f"OrderData column mismatch: {data.name} has {data.names}, "
                f"expected {names}")
    return names


def miss_rate_matrix(datasets: list[OrderData],
                     orders: list[tuple[str, ...]] | None = None
                     ) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """(O, N) matrix of per-benchmark miss rates for every order."""
    names = _dataset_names(datasets)
    if orders is None:
        orders = all_orders(names)
    misses = _order_misses(datasets, _rank_matrix(orders, names))
    matrix = np.zeros((len(orders), len(datasets)), dtype=np.float64)
    for j, data in enumerate(datasets):
        if data.total == 0:
            continue
        matrix[:, j] = misses[j] / data.total
    return matrix, orders


def all_orders_curve(datasets: list[OrderData]) -> np.ndarray:
    """Graph 1: sorted average miss rates of all 5040 orders (each benchmark
    weighted equally, as in the paper)."""
    matrix, _ = miss_rate_matrix(datasets)
    return np.sort(matrix.mean(axis=1))


def best_order(datasets: list[OrderData]) -> tuple[tuple[str, ...], float]:
    """The order minimizing the equal-weight average miss rate."""
    matrix, orders = miss_rate_matrix(datasets)
    means = matrix.mean(axis=1)
    index = int(means.argmin())
    return orders[index], float(means[index])


@dataclass
class SubsetExperimentResult:
    """Output of the C(N, k) generalization experiment."""

    #: orders that won at least one trial, most frequent first
    orders: list[tuple[str, ...]]
    #: trials won by each order (parallel to ``orders``)
    frequencies: list[int]
    #: average miss rate of each order over ALL benchmarks (parallel)
    overall_miss_rates: list[float]
    n_trials: int

    def cumulative_trial_share(self) -> np.ndarray:
        """Graph 2: cumulative fraction of trials won by the most common
        orders."""
        freq = np.array(self.frequencies, dtype=np.float64)
        return np.cumsum(freq) / self.n_trials

    def top(self, n: int) -> list[tuple[tuple[str, ...], int, float]]:
        """Table 4: the n most common orders with trial share and overall
        miss rate."""
        return [(self.orders[i], self.frequencies[i],
                 self.overall_miss_rates[i])
                for i in range(min(n, len(self.orders)))]


#: cap on one sweep chunk's (subsets x candidates) float32 score buffer,
#: in cells (8 MB)
_SWEEP_CELLS = 1 << 21


def _candidate_orders(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of *rows* (O, N) that no earlier row
    weakly dominates (is <= on every column); of duplicate rows only the
    first is kept."""
    dominated = np.zeros(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        if not dominated[i]:
            dominated[i + 1:] |= (row <= rows[i + 1:]).all(axis=1)
    return np.flatnonzero(~dominated)


def _lex_subsets(n: int, k: int) -> np.ndarray:
    """The size-*k* subsets of range(*n*) as the rows of a (C(n, k), k)
    array of the smallest integer dtype that holds *n*, in
    ``itertools.combinations`` order."""
    dtype = np.min_scalar_type(n)
    # by_end[m]: the size-r subsets of range(m), for r = 0, 1, ..., k
    by_end = [np.zeros((1, 0), dtype)] * (n + 1)
    for r in range(1, k + 1):
        by_end = [np.concatenate(
            [np.zeros((0, r), dtype)]
            + [np.insert(by_end[m - first - 1] + (first + 1), 0, first, axis=1)
               for first in range(m - r + 1)]) for m in range(n + 1)]
    return by_end[n]


def _subset_sweep(matrix: np.ndarray, orders: list[tuple[str, ...]],
                  k: int) -> SubsetExperimentResult:
    """The subset experiment over an (O, N) miss-rate matrix whose rows are
    *orders*: one trial per size-*k* subset of the N columns."""
    n = matrix.shape[1]
    if not 0 <= k <= n:
        raise ValueError(f"subset size k={k} must lie between 0 and the "
                         f"n={n} benchmarks")
    weights = matrix.T.astype(np.float32)         # (N, O), what trials sum
    candidates = _candidate_orders(weights.T)
    columns = weights[:, candidates]
    subsets = _lex_subsets(n, k)
    n_trials = len(subsets)
    wins = np.zeros(len(candidates), dtype=np.int64)
    first_win = np.full(len(candidates), n_trials, dtype=np.int64)
    chunk = max(1, _SWEEP_CELLS // len(candidates))
    # one mask and one score buffer serve every chunk (a fresh 8 MB score
    # array per chunk churns the heap), and every product has at least two
    # rows: numpy sends a one-row product to gemv, which sums in another
    # order than the gemm of every other chunk
    rows = max(2, min(chunk, n_trials))
    mask = np.empty((rows, n), dtype=np.float32)
    scores = np.empty((rows, len(candidates)), dtype=np.float32)
    for start in range(0, n_trials, chunk):
        index = subsets[start:start + chunk]
        used = max(2, len(index))
        mask[:used] = 0.0
        np.put_along_axis(mask[:len(index)], index, 1.0, axis=1)
        np.matmul(mask[:used], columns, out=scores[:used])
        winners = scores[:len(index)].argmin(axis=1)
        wins += np.bincount(winners, minlength=len(candidates))
        won, at = np.unique(winners, return_index=True)
        first_win[won] = np.minimum(first_win[won], start + at)
    # Counter.most_common order: by count, ties by first winning trial
    won = np.flatnonzero(wins)
    won = won[np.lexsort((first_win[won], -wins[won]))]
    overall = matrix.mean(axis=1)                 # (O,)
    return SubsetExperimentResult(
        orders=[orders[i] for i in candidates[won]],
        frequencies=wins[won].tolist(),
        overall_miss_rates=[float(overall[i]) for i in candidates[won]],
        n_trials=n_trials,
    )


#: the last sweep's result, keyed by (heuristic names, k, sha256 of the
#: float64 miss-rate matrix): Table 4 and Graphs 2-3 sweep equal inputs
_last_sweep: dict[tuple, SubsetExperimentResult] = {}


def subset_experiment(datasets: list[OrderData],
                      k: int | None = None) -> SubsetExperimentResult:
    """For every size-*k* subset of the benchmarks (default: half), find the
    order that minimizes the subset's average miss rate; tally how often
    each order wins and how it scores on the full suite. Raises
    ``ValueError`` unless 0 <= *k* <= the number of benchmarks.

    The paper ran C(22, 11) = 705,432 trials; we run C(21, 10) = 352,716.
    A trial sums the float32 miss rates of its subset for every order (a
    0/1 mask times the (benchmarks x orders) matrix) and takes the argmin,
    which breaks exact ties toward the lower order index. Most orders can
    never win: an order whose float32 row is >= an earlier order's row on
    every benchmark never scores below that order, because the mask is 0/1
    and float32 rounding and summation are monotone, and on a tie the
    earlier order wins. Dropping duplicate rows and such dominated rows
    leaves 5040 -> 507 -> 241 candidates on the suite, and the sweep
    scores only those, in chunks of subsets, with the same product and
    argmin. Winners, counts and their tie order match the full sweep.

    The result is a pure function of the heuristic names, *k* and the
    miss-rate matrix, so a call whose inputs equal the previous call's
    returns the previous call's result object (callers only read it)
    without sweeping again.
    """
    if k is None:
        k = len(datasets) // 2
    with telemetry.get().span("orders.subset", category="harness",
                              benchmarks=len(datasets), k=k):
        matrix, orders = miss_rate_matrix(datasets)
        key = (_dataset_names(datasets), k,
               hashlib.sha256(matrix.tobytes()).hexdigest())
        result = _last_sweep.get(key)
        if result is None:
            result = _subset_sweep(matrix, orders, k)
            _last_sweep.clear()
            _last_sweep[key] = result
        return result


def pairwise_order(datasets: list[OrderData]) -> tuple[str, ...]:
    """Section 5's cheaper alternative: compare each pair of heuristics on
    the branches where both apply, and order by pairwise wins (total
    dynamic misses on the intersection; Copeland scoring breaks cycles)."""
    names = _dataset_names(datasets)
    num_h = len(names)
    wins = np.zeros(num_h, dtype=np.int64)
    with telemetry.get().span("orders.pairwise", category="harness",
                              benchmarks=len(datasets)):
        for a in range(num_h):
            for b in range(a + 1, num_h):
                misses_a = 0
                misses_b = 0
                for data in datasets:
                    both = data.applies[:, a] & data.applies[:, b]
                    if not both.any():
                        continue
                    taken = data.taken[both]
                    not_taken = data.not_taken[both]
                    pa = data.predict_taken[both, a]
                    pb = data.predict_taken[both, b]
                    misses_a += int(np.where(pa, not_taken, taken).sum())
                    misses_b += int(np.where(pb, not_taken, taken).sum())
                if misses_a < misses_b:
                    wins[a] += 1
                elif misses_b < misses_a:
                    wins[b] += 1
    ranked = sorted(range(num_h), key=lambda h: (-wins[h], h))
    return tuple(names[h] for h in ranked)
