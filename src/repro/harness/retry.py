"""The retry policy of the execution core.

:class:`RetryPolicy` is the single owner of the transient-failure
classification ("a fuel limit is worth one retry at a raised budget; a
wall-clock timeout is not").  Fuel retries happen in one place, the
execution core :func:`repro.harness.parallel.execute`, which the serial
:class:`~repro.harness.runner.SuiteRunner` and the pool's shard worker
both run, so serial and parallel runs of the same suite cannot classify
the same failure differently.

A run that exhausts its instruction budget (but **not** a wall-clock
timeout — retrying cannot beat a wall clock) is re-executed with the
budget scaled by ``fuel_factor`` per attempt.  This is the historical
``retry_fuel_factor`` behavior, byte-identical.

The policy is a frozen value object so it can ride inside picklable work
orders and be compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError, SimulationLimitExceeded, SimulationTimeout

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """When (and how hard) to retry a failed execution attempt.

    Attempts are numbered from 1.  ``max_attempts=1`` disables retrying
    entirely (the strict-mode behavior).
    """

    #: total attempt budget (first attempt included)
    max_attempts: int = 2
    #: instruction-budget multiplier applied per retry attempt
    fuel_factor: int = 4

    @classmethod
    def from_fuel_factor(cls, retry_fuel_factor: int) -> "RetryPolicy":
        """The historical runner semantics for a ``retry_fuel_factor``:
        one retry at ``factor``× fuel when the factor exceeds 1, no
        retry otherwise (strict mode passes an effective factor of 1).
        """
        factor = max(1, int(retry_fuel_factor))
        return cls(max_attempts=2 if factor > 1 else 1, fuel_factor=factor)

    # -- classification --------------------------------------------------------

    def is_transient(self, error: ReproError) -> bool:
        """Whether *error* could plausibly succeed on a retry.

        Fuel exhaustion is transient (a bigger budget may finish); a
        wall-clock timeout is not (retrying cannot beat a wall clock).
        """
        return (isinstance(error, SimulationLimitExceeded)
                and not isinstance(error, SimulationTimeout))

    def should_retry(self, error: ReproError, attempt: int) -> bool:
        """Whether failed attempt number *attempt* (1-based) deserves
        another try under this policy."""
        return attempt < self.max_attempts and self.is_transient(error)

    # -- schedules -------------------------------------------------------------

    def fuel_scale(self, attempt: int) -> int:
        """Instruction-budget multiplier for attempt *attempt* (1-based):
        1 for the first attempt, ``fuel_factor`` for the second, squared
        for the third, ..."""
        return self.fuel_factor ** (attempt - 1)


#: the degraded-mode default: one fuel retry at 4x
DEFAULT_RETRY_POLICY = RetryPolicy()
