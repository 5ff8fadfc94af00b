"""Retry policy, backoff timing (fake clock) and circuit breaker transitions."""

import threading

import pytest

from repro.errors import (
    InjectedFaultError,
    RetryExhaustedError,
    ValidationError,
)
from repro.resilience.retry import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    retry_call,
)
from repro.util.rng import derive_rng


def flaky(n_failures: int, exc: type = InjectedFaultError):
    """A callable that fails ``n_failures`` times, then returns 'ok'."""
    state = {"calls": 0}

    def call():
        state["calls"] += 1
        if state["calls"] <= n_failures:
            raise exc(f"boom {state['calls']}")
        return "ok"

    call.state = state
    return call


class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0)
        assert [policy.delay(k) for k in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.8]

    def test_delay_is_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=5.0, jitter=0.0)
        assert policy.delay(3) == 5.0

    def test_jitter_stays_within_band_and_is_deterministic(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        draws_a = [policy.delay(1, derive_rng(9, "t")) for _ in range(1)]
        draws_b = [policy.delay(1, derive_rng(9, "t")) for _ in range(1)]
        assert draws_a == draws_b
        rng = derive_rng(3, "band")
        for _ in range(50):
            assert 0.5 <= policy.delay(1, rng) <= 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"deadline": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)


class TestRetryCall:
    def test_disabled_path_is_a_direct_call(self):
        # No policy, no breaker: the function runs once, errors pass through.
        calls = flaky(1)
        with pytest.raises(InjectedFaultError):
            retry_call(calls)
        assert calls.state["calls"] == 1

    def test_backoff_schedule_on_fake_clock(self):
        clock = ManualClock()
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
        assert retry_call(flaky(3), policy=policy, clock=clock) == "ok"
        assert clock.sleeps == [0.1, 0.2, 0.4]

    def test_exhaustion_raises_with_attempt_count(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            retry_call(flaky(99), policy=policy, clock=clock)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, InjectedFaultError)
        assert len(clock.sleeps) == 2  # no sleep after the final failure

    def test_deadline_bounds_total_wait(self):
        clock = ManualClock()
        policy = RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=1.0, jitter=0.0, deadline=2.5
        )
        with pytest.raises(RetryExhaustedError, match="deadline"):
            retry_call(flaky(99), policy=policy, clock=clock)
        assert clock.monotonic() <= 2.5

    def test_non_retryable_errors_pass_through(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        with pytest.raises(KeyError):
            retry_call(flaky(2, exc=KeyError), policy=policy, clock=ManualClock())

    def test_seeded_jitter_is_reproducible(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5)

        def schedule():
            clock = ManualClock()
            retry_call(flaky(3), policy=policy, clock=clock, seed=11, name="x")
            return clock.sleeps

        assert schedule() == schedule()

    def test_on_retry_hook_sees_each_failure(self):
        seen = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0)
        retry_call(
            flaky(2),
            policy=policy,
            clock=ManualClock(),
            on_retry=lambda k, exc, delay: seen.append((k, delay)),
        )
        assert seen == [(1, 0.1), (2, 0.2)]


class TestCircuitBreaker:
    def test_transitions_closed_open_halfopen_closed(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_halfopen_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=5.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_failure_run_saturates_at_threshold(self):
        """A late failure after the trip and a failed half-open probe re-arm
        the cool-down and keep every transition, but never count past the
        threshold."""
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert (breaker.state, breaker.failure_count, breaker.open_count) == (
            CircuitBreaker.OPEN, 2, 1
        )
        # A call admitted before the trip reports its failure late.
        clock.advance(6.0)
        breaker.record_failure()
        assert (breaker.state, breaker.failure_count, breaker.open_count) == (
            CircuitBreaker.OPEN, 2, 1
        )
        clock.advance(6.0)  # 12 s after the trip, 6 s after the re-arm
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(4.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe, which fails
        breaker.record_failure()
        assert (breaker.state, breaker.failure_count, breaker.open_count) == (
            CircuitBreaker.OPEN, 2, 2
        )
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert (breaker.state, breaker.failure_count) == (CircuitBreaker.CLOSED, 0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValidationError):
            CircuitBreaker(reset_timeout=-1.0)


class TestCircuitBreakerThreadSafety:
    def test_concurrent_hammer_never_corrupts_state(self):
        """Many threads racing allow/record_failure/record_success must
        never corrupt the breaker: the state stays one of the three
        legal values and the counters stay consistent."""
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout=0.01)
        legal = {
            CircuitBreaker.CLOSED,
            CircuitBreaker.OPEN,
            CircuitBreaker.HALF_OPEN,
        }
        errors = []

        def hammer(seed: int) -> None:
            rng = derive_rng(seed, "breaker-hammer")
            try:
                for _ in range(400):
                    if breaker.allow():
                        if rng.random() < 0.5:
                            breaker.record_failure()
                        else:
                            breaker.record_success()
                    if breaker.state not in legal:
                        errors.append(f"illegal state {breaker.state!r}")
                    if breaker.failure_count < 0:
                        errors.append("negative failure count")
            except Exception as exc:  # noqa: BLE001 - any crash is a failure
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert breaker.state in legal
        assert 0 <= breaker.failure_count <= 5

    def test_half_open_admits_exactly_one_probe(self):
        """After the cool-down only the first caller wins the half-open
        probe slot; everyone else is refused until the probe resolves."""
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(10.0)

        admitted = []
        barrier = threading.Barrier(8)

        def probe() -> None:
            barrier.wait(timeout=5.0)
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(admitted) == 1
        # The probe succeeds: the breaker closes for everyone.
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_stale_probe_slot_is_reclaimed(self):
        """If the half-open probe dies without reporting, the slot frees
        up after another cool-down instead of wedging the breaker open."""
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()  # probe admitted, then silently lost
        assert not breaker.allow()  # probe outstanding: refused
        clock.advance(10.0)
        assert breaker.allow()  # stale probe reclaimed
