"""Regression tests for the negative-cache key shape.

Historically a (benchmark, dataset) failure was remembered under a key
that ignored the *effective execution limits*, so an operator-injected
fuel cap on one configuration could poison unrelated ones: lifting the
cap (or querying a sibling dataset) still replayed the stale FAILED
outcome.  The key is now ``(benchmark, dataset, limits-fingerprint)``
where the fingerprint covers the effective fuel budget, input
truncation, memory cap, and retry factor — so a cached failure is
replayed only for the exact configuration that produced it.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import SimulationLimitExceeded
from repro.harness import RunStatus, SuiteRunner
from repro.telemetry import Telemetry

from conftest import MINI_SUITE


class TestNegativeCacheScoping:

    def test_fuel_fault_on_one_dataset_does_not_poison_siblings(self):
        runner = SuiteRunner(MINI_SUITE, strict=False)
        runner.limit_fuel("queens", 1_000, dataset="small")

        failed = runner.outcome("queens", "small")
        assert failed.status is RunStatus.TIMEOUT
        assert isinstance(failed.error, SimulationLimitExceeded)

        # the ref dataset runs under the default budget and must succeed
        healthy = runner.outcome("queens", "ref")
        assert healthy.ok
        # ... and the failure memo for "small" is still in place
        assert runner.outcome("queens", "small").failed

    def test_dataset_scoped_limit_does_not_leak_to_other_benchmarks(self):
        runner = SuiteRunner(MINI_SUITE, strict=False)
        runner.limit_fuel("queens", 1_000)
        assert runner.outcome("queens", "ref").failed
        assert runner.outcome("fields", "ref").ok
        assert runner.outcome("gauss", "ref").ok

    def test_lifting_the_limit_invalidates_the_stale_entry(self):
        """Changing the effective limits changes the key: the cached
        failure must NOT be replayed after clear_limits."""
        runner = SuiteRunner(MINI_SUITE, strict=False)
        runner.limit_fuel("queens", 1_000)
        assert runner.outcome("queens", "ref").failed

        runner.clear_limits("queens")
        recovered = runner.outcome("queens", "ref")
        assert recovered.ok, (
            "stale negative entry replayed after the fuel limit was "
            "lifted — limits are not part of the negative-cache key")

    def test_tightening_the_limit_also_misses_the_stale_entry(self):
        runner = SuiteRunner(MINI_SUITE, strict=False)
        runner.limit_fuel("queens", 2_000)
        first = runner.outcome("queens", "ref")
        assert first.failed

        runner.clear_limits("queens")
        runner.limit_fuel("queens", 1_000)
        second = runner.outcome("queens", "ref")
        assert second.failed
        assert second is not first, (
            "a different fuel budget must produce a fresh outcome, not "
            "replay the memo for the old budget")

    def test_memory_and_input_limits_are_in_the_fingerprint(self):
        runner = SuiteRunner(MINI_SUITE, strict=False)
        runner.limit_memory("queens", 4096)
        assert runner.outcome("queens", "ref").failed
        runner.clear_limits("queens")
        assert runner.outcome("queens", "ref").ok

        runner2 = SuiteRunner(MINI_SUITE, strict=False)
        runner2.limit_inputs("queens", 0)
        assert runner2.outcome("queens", "ref").failed
        runner2.clear_limits("queens")
        assert runner2.outcome("queens", "ref").ok

    def test_strict_mode_raises_from_the_scoped_entry(self):
        runner = SuiteRunner(MINI_SUITE, strict=True)
        runner.limit_fuel("queens", 1_000, dataset="small")
        with pytest.raises(SimulationLimitExceeded):
            runner.run("queens", "small")
        # sibling dataset still healthy in the same strict runner
        assert runner.run("queens", "ref").instr_count > 0


class TestDiskNegativeCache:

    def test_fuel_failure_is_negative_cached_on_disk(self, tmp_path):
        """A deterministic fuel-limit failure is served from the
        persistent cache on an identical rerun (no re-simulation)."""
        cache_dir = tmp_path / "cache"
        first = SuiteRunner(MINI_SUITE, strict=False, cache_dir=cache_dir)
        first.limit_fuel("queens", 1_000)
        assert first.outcome("queens", "ref").failed
        assert first.cache.stores > 0

        second = SuiteRunner(MINI_SUITE, strict=False, cache_dir=cache_dir)
        second.limit_fuel("queens", 1_000)
        hits_before = second.cache.hits
        outcome = second.outcome("queens", "ref")
        assert outcome.status is RunStatus.TIMEOUT
        assert second.cache.hits > hits_before

    def test_disk_entry_keyed_on_limits_not_just_name(self, tmp_path):
        """The healthy run after lifting the limit must not be served
        the negative entry recorded under the capped budget."""
        cache_dir = tmp_path / "cache"
        capped = SuiteRunner(MINI_SUITE, strict=False, cache_dir=cache_dir)
        capped.limit_fuel("queens", 1_000)
        assert capped.outcome("queens", "ref").failed

        uncapped = SuiteRunner(MINI_SUITE, strict=False,
                               cache_dir=cache_dir)
        assert uncapped.outcome("queens", "ref").ok

    def test_strict_runner_raises_the_disk_failure(self, tmp_path):
        """A strict runner that finds a failure entry in the persistent
        cache raises the stored typed error without simulating."""
        cache_dir = tmp_path / "cache"
        cold = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
        cold.limit_fuel("queens", 1_000)
        with pytest.raises(SimulationLimitExceeded) as first:
            cold.run("queens")

        sink = Telemetry()
        with telemetry.use(sink):
            warm = SuiteRunner(MINI_SUITE, cache_dir=cache_dir)
            warm.limit_fuel("queens", 1_000)
            with pytest.raises(SimulationLimitExceeded) as second:
                warm.run("queens")
        assert second.value.oneline() == first.value.oneline()
        assert sink.counters().get("sim.runs", 0) == 0
        assert warm.cache.hits > 0 and warm.cache.misses == 0
