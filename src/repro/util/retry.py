"""Bounded exponential backoff shared by every retry loop in the tree.

:class:`RetryPolicy` describes *how often* and *how patiently* to retry:
an attempt budget, a base backoff that grows geometrically, and an
optional per-attempt timeout.  It is deliberately free of simulation
concepts so both consumers can use it unchanged:

- :func:`repro.faults.run_with_retry` charges the backoff to the *fault
  schedule's virtual clock* and uses ``timeout`` as the simulator's
  per-operation stall limit;
- :class:`repro.engine.supervisor.Supervisor` holds a failed task back
  for the backoff in *wall-clock* time and uses ``timeout`` as the
  per-task deadline after which a hung worker is killed.

:class:`AttemptRecord` is the bookkeeping row the fault-recovery loop
appends per attempt; it lives here with the policy so importing the
record types never pulls in the simulated-MPI stack.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff.

    ``max_attempts`` caps how many times a task may run; ``backoff(k)``
    is the pause charged after the ``k``-th failure (0-based):
    ``base_backoff * backoff_factor ** k``.  ``timeout`` bounds a single
    attempt (virtual per-op time for the fault simulator, wall-clock
    per-task time for the engine supervisor); ``None`` disables it.
    """

    max_attempts: int = 3
    base_backoff: float = 1e-3  # seconds charged after the first failure
    backoff_factor: float = 2.0
    timeout: float | None = None  # per-attempt limit (consumer-defined clock)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")

    def backoff(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th failure (0-based)."""
        return self.base_backoff * self.backoff_factor**attempt


@dataclass(frozen=True)
class AttemptRecord:
    """What happened in one attempt of a shrink-and-retry recovery loop."""

    attempt: int
    n_ranks: int
    sim_time: float  # virtual seconds the attempt ran
    failed_ranks: frozenset[int]  # world ranks dead after the attempt
    error: BaseException | None  # None on success
    backoff: float  # clock penalty charged before the next attempt
