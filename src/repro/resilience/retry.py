"""Retry policies, backoff with jitter, deadlines and a circuit breaker.

The policy layer sits between callers and flaky dependencies (paged
chain reads, alert webhooks): transient failures are retried with
exponential backoff + deterministic jitter and a deadline bounds the
total wait.  A :class:`CircuitBreaker` counts consecutive failures into a
closed/open/half-open state; the serve layer's load shedder uses one.

Everything is clock-injectable: tests and the ``repro chaos`` harness use
:class:`ManualClock` so injected timeouts and breaker cool-downs resolve
instantly, while production code uses the real monotonic clock.

Counters land on the existing :mod:`repro.obs` metrics registry
(``resilience.retries_total``, ``resilience.giveups_total``,
``resilience.breaker.*``) so ``/metrics`` scrapes and trace exports see
retry pressure alongside pipeline timings.

With ``policy=None``, :func:`retry_call` is a direct call — the disabled
path costs one ``is None`` check (budgeted in
``benchmarks/bench_perf_resilience.py``).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro import obs
from repro.errors import RetryExhaustedError, TransientError, ValidationError
from repro.util.rng import derive_rng

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Exception types :func:`retry_call` retries: the library's own transient
#: failures plus the OS-level ones a real network data source raises.
DEFAULT_RETRY_ON: tuple[type[BaseException], ...] = (
    TransientError,
    TimeoutError,
    ConnectionError,
    OSError,
)


class Clock:
    """Real monotonic time; swap in :class:`ManualClock` for tests."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class ManualClock(Clock):
    """A fake clock where sleeping advances time instantly.

    Backoff tests assert on :attr:`sleeps` — the exact delays a policy
    requested — without ever blocking the test process.

    >>> clock = ManualClock()
    >>> clock.sleep(0.25); clock.sleep(0.5)
    >>> clock.monotonic()
    0.75
    >>> clock.sleeps
    [0.25, 0.5]
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(float(seconds))
        self._now += float(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        self._now += float(seconds)


_REAL_CLOCK = Clock()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**k``, capped and jittered.

    ``jitter`` is the +/- fraction applied to each delay (0.5 means the
    delay is drawn uniformly from [0.5d, 1.5d]); the draw comes from a
    named RNG stream so a seeded run backs off identically every time.
    ``deadline`` bounds the total elapsed time across all attempts.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValidationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValidationError(
                f"deadline must be positive, got {self.deadline}"
            )

    def delay(self, failures: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before the next attempt, after ``failures`` failures (>=1).

        >>> RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.0).delay(3)
        0.4
        """
        raw = min(
            self.base_delay * self.multiplier ** (failures - 1), self.max_delay
        )
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(raw, 0.0)


#: Ready-made policy for the chaos harness and tests: full retry coverage
#: with near-zero real sleeping even on a real clock.
FAST_TEST_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.0001, max_delay=0.001, jitter=0.0
)

#: Alert webhook delivery: three attempts, 0.05 s then 0.1 s apart, so a
#: dead endpoint delays the monitor by at most 0.15 s of backoff per event.
WEBHOOK_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.05, max_delay=0.2, jitter=0.0
)


class CircuitBreaker:
    """Classic closed -> open -> half-open breaker around one dependency.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` returns False until ``reset_timeout`` seconds pass
    on the injected clock, after which exactly one probe call is let
    through (half-open).  A probe success closes the circuit, a probe
    failure re-opens it and restarts the cool-down.

    All state transitions take an internal lock: the breaker was built
    for the single-threaded ingest path but is now shared across
    ``ThreadingHTTPServer`` handler threads (the overload layer in
    :mod:`repro.serve.overload` uses one as its degrade trigger), so
    concurrent ``record_failure``/``record_success``/``allow`` calls must
    neither corrupt the failure run nor admit two half-open probes.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Clock | None = None,
        name: str = "default",
    ) -> None:
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout < 0:
            raise ValidationError(
                f"reset_timeout must be >= 0, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.name = name
        self._clock = clock or _REAL_CLOCK
        self._lock = threading.RLock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._probe_started = 0.0
        self.open_count = 0

    def _resolve_state(self) -> str:
        """Transition an elapsed cool-down to half-open (lock held)."""
        if (
            self._state == self.OPEN
            and self._clock.monotonic() - self._opened_at >= self.reset_timeout
        ):
            self._state = self.HALF_OPEN
            self._probe_in_flight = False
        return self._state

    @property
    def state(self) -> str:
        """Current state, resolving an elapsed cool-down to half-open."""
        with self._lock:
            return self._resolve_state()

    @property
    def failure_count(self) -> int:
        """Consecutive failures since the last success, capped at the threshold."""
        with self._lock:
            return self._consecutive_failures

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In half-open, only the first caller is admitted (the probe);
        concurrent callers see ``False`` until the probe resolves via
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            state = self._resolve_state()
            if state == self.OPEN:
                return False
            if state == self.HALF_OPEN:
                stale_probe = (
                    self._clock.monotonic() - self._probe_started
                    >= self.reset_timeout
                )
                if self._probe_in_flight and not stale_probe:
                    return False
                # Claim the probe slot (reclaiming one whose caller never
                # reported back after a full cool-down).
                self._probe_in_flight = True
                self._probe_started = self._clock.monotonic()
            return True

    def record_success(self) -> None:
        """A call succeeded: close the circuit and clear the failure run."""
        with self._lock:
            self._consecutive_failures = 0
            self._state = self.CLOSED
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """A call failed: trip the circuit at the threshold (or on a probe).

        The failure run saturates at ``failure_threshold``: a late failure
        from a call admitted before the trip, or a failed half-open probe,
        re-arms the cool-down but does not count past the threshold.
        """
        with self._lock:
            self._resolve_state()
            self._consecutive_failures = min(
                self._consecutive_failures + 1, self.failure_threshold
            )
            self._probe_in_flight = False
            if (
                self._state == self.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                if self._state != self.OPEN:
                    self.open_count += 1
                    obs.get_tracer().metrics.counter(
                        "resilience.breaker.open_total"
                    ).inc()
                    logger.warning(
                        "circuit %r opened after %d consecutive failures",
                        self.name, self._consecutive_failures,
                    )
                self._state = self.OPEN
                self._opened_at = self._clock.monotonic()


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    name: str = "call",
    clock: Clock | None = None,
    seed: int | None = None,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
) -> T:
    """Call ``fn`` under ``policy``; the resilient-read primitive.

    Without a policy this is a direct call — the always-on disabled path.
    Otherwise transient failures (:data:`DEFAULT_RETRY_ON`) are retried
    with backoff until the policy's attempts or deadline run out, raising
    :class:`~repro.errors.RetryExhaustedError`.

    Jitter determinism: pass ``seed`` (stream ``retry:<name>``) to make
    the backoff schedule reproducible.
    """
    if policy is None:
        return fn()
    clock = clock or _REAL_CLOCK
    rng = derive_rng(seed, f"retry:{name}") if seed is not None else None
    registry = obs.get_tracer().metrics
    start = clock.monotonic()
    failures = 0
    while True:
        registry.counter("resilience.attempts_total").inc()
        try:
            result = fn()
        except DEFAULT_RETRY_ON as exc:
            failures += 1
            registry.counter("resilience.failures_total").inc()
            if failures >= policy.max_attempts:
                registry.counter("resilience.giveups_total").inc()
                raise RetryExhaustedError(
                    f"{name} failed after {failures} attempts: {exc}",
                    attempts=failures,
                    last_error=exc,
                ) from exc
            delay = policy.delay(failures, rng)
            if (
                policy.deadline is not None
                and clock.monotonic() + delay - start > policy.deadline
            ):
                registry.counter("resilience.giveups_total").inc()
                raise RetryExhaustedError(
                    f"{name} exceeded its {policy.deadline}s deadline "
                    f"after {failures} attempts: {exc}",
                    attempts=failures,
                    last_error=exc,
                ) from exc
            registry.counter("resilience.retries_total").inc()
            registry.timing("resilience.backoff_seconds").observe(delay)
            logger.debug(
                "retrying %s after failure %d/%d (backoff %.4fs): %s",
                name, failures, policy.max_attempts, delay, exc,
            )
            if on_retry is not None:
                on_retry(failures, exc, delay)
            clock.sleep(delay)
        else:
            if failures:
                registry.counter("resilience.recoveries_total").inc()
            return result
