"""Retry policies: bounded attempts, exponential backoff, seeded jitter.

A :class:`RetryPolicy` is a small frozen value object describing *how*
to retry — it owns no state, so one policy instance can be shared by
every call site. The delay schedule is deterministic given ``seed``:
``delays()`` yields the sleep to take before each attempt (0 before the
first), growing geometrically from ``base_delay`` by ``backoff`` up to
``max_delay``, each delay perturbed by ±``jitter`` (a fraction) drawn
from a seeded ``random.Random`` stream. Deterministic jitter keeps
chaos tests reproducible while still de-synchronizing real fleets.

``per_attempt_timeout`` bounds how long a single attempt may take where
the execution layer supports cancellation — the shard pool in
:func:`repro.parallel.parallel_shard_reduce` waits at most that long
for each shard's future, then terminates the round's workers; for plain
in-process ``call`` it is advisory only (Python cannot safely interrupt
arbitrary code).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from ..exceptions import ConfigurationError, RetryExhaustedError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a fallible operation.

    Parameters
    ----------
    max_attempts:
        Total attempts, including the first (so ``1`` means "no retry").
    base_delay:
        Sleep before the second attempt, in seconds.
    backoff:
        Geometric growth factor applied per additional attempt.
    max_delay:
        Upper clamp on any single sleep (applied before jitter).
    jitter:
        Fraction of each delay randomized symmetrically (0 disables;
        0.25 means each sleep lands in ``[0.75d, 1.25d]``).
    per_attempt_timeout:
        Seconds one attempt may run where enforceable (pool waits).
    seed:
        Seed of the jitter stream; identical seeds give identical
        schedules. ``None`` derives a nondeterministic stream.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    per_attempt_timeout: "float | None" = None
    seed: "int | None" = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ConfigurationError("backoff must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        if self.per_attempt_timeout is not None and self.per_attempt_timeout <= 0:
            raise ConfigurationError("per_attempt_timeout must be positive")

    # ------------------------------------------------------------------
    def delays(self) -> Iterator[float]:
        """Sleep (seconds) before each attempt: one value per attempt."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts):
            if attempt == 0:
                yield 0.0
                continue
            delay = min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))
            if self.jitter:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, delay)

    def call(
        self,
        fn: Callable[..., T],
        *args,
        retry_on: "tuple[type, ...]" = (Exception,),
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ) -> T:
        """Run ``fn`` under this policy; raise when every attempt fails.

        Only exceptions matching ``retry_on`` are retried — anything else
        propagates immediately (a data error is not an infrastructure
        fault). After the last failed attempt a
        :class:`~repro.exceptions.RetryExhaustedError` chains the final
        cause.
        """
        last: "BaseException | None" = None
        for delay in self.delays():
            if delay > 0.0:
                sleep(delay)
            try:
                return fn(*args, **kwargs)
            except retry_on as exc:
                last = exc
        raise RetryExhaustedError(
            f"{getattr(fn, '__name__', fn)!r} failed after "
            f"{self.max_attempts} attempt(s): {last!r}"
        ) from last
