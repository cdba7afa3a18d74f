"""Unit + property tests for the unified :class:`RetryPolicy`.

The policy is the single owner of the transient-failure classification
shared by the serial runner and the parallel shard worker, so these
tests pin the exact historical semantics (one fuel retry at factor x
fuel; wall-clock timeouts never retried).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    ReproError, SimulationLimitExceeded, SimulationTimeout, WorkerCrashError,
)
from repro.harness.retry import DEFAULT_RETRY_POLICY, RetryPolicy

FUEL = SimulationLimitExceeded("fuel gone")
TIMEOUT = SimulationTimeout("wall clock passed")
CRASH = WorkerCrashError("worker died")
GENERIC = ReproError("anything else")


# -- classification -----------------------------------------------------------

def test_fuel_exhaustion_is_transient():
    assert DEFAULT_RETRY_POLICY.is_transient(FUEL)


def test_wall_clock_timeout_is_never_transient():
    assert not DEFAULT_RETRY_POLICY.is_transient(TIMEOUT)


def test_generic_errors_are_deterministic():
    assert not DEFAULT_RETRY_POLICY.is_transient(GENERIC)
    assert not DEFAULT_RETRY_POLICY.is_transient(CRASH)


# -- historical runner semantics ----------------------------------------------

def test_from_fuel_factor_matches_historical_runner():
    # factor > 1: exactly one retry at factor x fuel
    policy = RetryPolicy.from_fuel_factor(4)
    assert policy.max_attempts == 2
    assert policy.fuel_scale(1) == 1
    assert policy.fuel_scale(2) == 4
    assert policy.should_retry(FUEL, 1)
    assert not policy.should_retry(FUEL, 2)
    assert not policy.should_retry(TIMEOUT, 1)


def test_from_fuel_factor_strict_mode_never_retries():
    policy = RetryPolicy.from_fuel_factor(1)
    assert policy.max_attempts == 1
    assert not policy.should_retry(FUEL, 1)


@given(factor=st.integers(-3, 10))
def test_from_fuel_factor_clamps_degenerate_factors(factor):
    policy = RetryPolicy.from_fuel_factor(factor)
    assert policy.fuel_factor >= 1
    assert policy.max_attempts == (2 if factor > 1 else 1)


def test_runner_exposes_policy_with_its_own_settings():
    from repro.harness.runner import SuiteRunner
    # strict (the default) never retries; degraded mode retries at its
    # configured fuel factor
    assert SuiteRunner().retry_policy == RetryPolicy.from_fuel_factor(1)
    assert (SuiteRunner(strict=False).retry_policy
            == RetryPolicy.from_fuel_factor(4))
    assert (SuiteRunner(strict=False, retry_fuel_factor=8).retry_policy
            == RetryPolicy.from_fuel_factor(8))


# -- schedules ----------------------------------------------------------------

@given(attempt=st.integers(1, 6), factor=st.integers(1, 8))
def test_fuel_scale_is_geometric(attempt, factor):
    policy = RetryPolicy(fuel_factor=factor)
    assert policy.fuel_scale(attempt) == factor ** (attempt - 1)


# -- retry loop shape ---------------------------------------------------------

@given(max_attempts=st.integers(1, 5))
def test_attempt_budget_is_exact(max_attempts):
    """A transient failure is retried exactly max_attempts - 1 times."""
    policy = RetryPolicy(max_attempts=max_attempts)
    attempts = 0
    attempt = 1
    while True:
        attempts += 1
        if not policy.should_retry(FUEL, attempt):
            break
        attempt += 1
    assert attempts == max_attempts


def test_policy_is_frozen_and_comparable():
    assert RetryPolicy() == RetryPolicy()
    with pytest.raises(Exception):
        DEFAULT_RETRY_POLICY.max_attempts = 99  # type: ignore[misc]
