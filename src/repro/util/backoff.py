"""Jittered exponential backoff with an optional deadline.

One retry policy, with two users:

* the replicated service client (:mod:`repro.service.client`) waits
  between failovers with full jitter so a herd of clients hammering a
  recovering replica spreads out;
* :func:`repro.experiments.runner.run_study` retries failed cells
  through the same policy (with a zero base delay — simulation retries
  need pacing logic, not wall-clock pauses).

The policy is a frozen value object; all mutable iteration state lives
in the iterators it hands out, so one policy instance can be shared
freely across threads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type, TypeVar

from repro.errors import ConfigurationError

__all__ = ["BackoffPolicy", "retry_call"]

T = TypeVar("T")


@dataclass(frozen=True)
class BackoffPolicy:
    """How long to wait before each retry.

    The delay before retry ``k`` (1-based) is ``min(max_delay, base *
    factor**(k-1))``, randomised by *jitter*: a jitter of ``0.5`` picks
    uniformly from ``[0.5 * d, d]`` ("equal jitter"), ``1.0`` from
    ``[0, d]`` ("full jitter"), ``0.0`` keeps the deterministic value.

    Attributes:
        base: Delay before the first retry, in seconds.
        factor: Multiplier applied per subsequent retry.
        max_delay: Ceiling on any single delay.
        jitter: Fraction of each delay that is randomised, in [0, 1].
        max_attempts: Total attempts allowed (first try included);
            ``None`` means unbounded (use *deadline*).
        deadline: Give up once this many seconds have elapsed since the
            first attempt; ``None`` means no time bound.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    max_attempts: Optional[int] = 3
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base < 0 or self.max_delay < 0:
            raise ConfigurationError(
                f"backoff delays must be >= 0, got base={self.base} "
                f"max_delay={self.max_delay}"
            )
        if self.factor < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"backoff jitter must be in [0, 1], got {self.jitter}"
            )
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_attempts is None and self.deadline is None:
            raise ConfigurationError(
                "an unbounded backoff needs either max_attempts or "
                "a deadline"
            )
        if self.deadline is not None and self.deadline < 0:
            raise ConfigurationError(
                f"deadline must be >= 0, got {self.deadline}"
            )

    # ------------------------------------------------------------------
    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """The delay sequence, one value per allowed *retry*.

        Yields ``max_attempts - 1`` values (or indefinitely with no
        attempt bound); the caller stops early when its deadline runs
        out.  Passing a seeded *rng* makes the jitter reproducible.
        """
        draw = (rng or random).random
        k = 0
        while self.max_attempts is None or k < self.max_attempts - 1:
            delay = min(self.max_delay, self.base * (self.factor ** k))
            if self.jitter and delay > 0:
                delay -= self.jitter * delay * draw()
            yield delay
            k += 1

    def run(
        self,
        fn: Callable[[], T],
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> T:
        """Call *fn* until it succeeds or the policy is exhausted.

        Sleeps the policy's delay between attempts (skipping the
        syscall for zero delays), and never starts a retry past the
        *deadline*.  Re-raises the last exception when giving up.

        Args:
            fn: Zero-argument callable to retry.
            retry_on: Exception types that trigger a retry; anything
                else propagates immediately.
            rng: Seeded source for reproducible jitter.
            sleep / clock: Injection points for tests.
            on_retry: Called with ``(attempt_number, exception)`` before
                each retry sleep.
        """
        start = clock()
        attempt = 0
        for delay in self._delays_or_once(rng):
            attempt += 1
            try:
                return fn()
            except retry_on as exc:
                if delay is None:
                    raise
                if self.deadline is not None \
                        and clock() - start + delay > self.deadline:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _delays_or_once(
        self, rng: Optional[random.Random]
    ) -> Iterator[Optional[float]]:
        """The delay sequence followed by a ``None`` terminal marker (the
        final attempt, after which failures propagate)."""
        yield from self.delays(rng)
        yield None


def retry_call(
    fn: Callable[[], T],
    policy: Optional[BackoffPolicy] = None,
    **kwargs,
) -> T:
    """Convenience wrapper: ``(policy or BackoffPolicy()).run(fn, ...)``."""
    return (policy or BackoffPolicy()).run(fn, **kwargs)
