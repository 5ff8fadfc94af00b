"""Stateful alerting: pending → firing → resolved, with pluggable sinks.

The monitor's one alert engine, for the paper's "watch decentralization
live" story.  Alerts are stateful, so a metric hovering at a threshold
pages once, not on every window:

* :class:`AlertRule` — a named condition over the latest metric values
  (``below``/``above`` thresholds with a hysteresis band, or an arbitrary
  ``check`` callable — the SLO engine compiles burn-rate breaches into
  these),
* :class:`AlertManager` — one instance per rule, walked through
  ``pending`` (condition holds, waiting out ``for_duration``) →
  ``firing`` (sinks notified once, then deduplicated) → ``resolved``
  (condition clear of the hysteresis band for ``keep_for`` seconds),
* sinks — structured log lines, an append-only JSONL file, and a webhook
  POST retried under a bounded backoff policy, and
* :class:`AnomalyDetector` — an EWMA mean/variance z-score detector that
  flags regime shifts (the Jan-14-2019 BTC day) without any configured
  threshold.

Everything is clock-injectable, so lifecycle tests drive transitions on a
:class:`~repro.resilience.retry.ManualClock`.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import ValidationError

logger = logging.getLogger(__name__)

#: Alert lifecycle states.
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

#: Events kept in the manager's in-memory history ring.
_HISTORY_CAP = 512

#: Seconds a webhook POST may take before it counts as a failed attempt.
_WEBHOOK_TIMEOUT = 3.0

#: Floor on :attr:`AnomalyDetector.std`, so a flat baseline scores a
#: finite z instead of dividing by zero.
_MIN_STD = 1e-6


@dataclass(frozen=True)
class AlertRule:
    """One named alert condition.

    Threshold form: give ``metric`` plus ``below`` and/or ``above`` — the
    rule triggers while the latest value crosses either bound and only
    *clears* once the value is back beyond the bound by ``hysteresis``
    (so a value dithering on the line cannot flap).  Check form: give
    ``check``, a callable over the evaluation's value mapping returning
    ``(triggered, value)`` or ``None`` for "no data" — SLO burn-rate and
    anomaly rules use this.

    ``for_duration`` is how long the condition must hold before the alert
    fires (pending); ``keep_for`` how long it must stay clear before the
    alert resolves.
    """

    name: str
    metric: str | None = None
    below: float | None = None
    above: float | None = None
    check: Callable[[Mapping[str, float]], tuple[bool, float] | None] | None = None
    for_duration: float = 0.0
    keep_for: float = 0.0
    hysteresis: float = 0.0
    severity: str = "warning"
    labels: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.check is None:
            if self.metric is None or (self.below is None and self.above is None):
                raise ValidationError(
                    f"rule {self.name!r} needs a check callable, or a metric "
                    "with at least one of below/above"
                )
        elif self.metric is not None or self.below is not None or self.above is not None:
            raise ValidationError(
                f"rule {self.name!r} mixes a check callable with thresholds"
            )
        if self.for_duration < 0 or self.keep_for < 0 or self.hysteresis < 0:
            raise ValidationError(
                f"rule {self.name!r}: durations and hysteresis must be >= 0"
            )

    def evaluate(self, values: Mapping[str, float]) -> tuple[bool, bool, float] | None:
        """``(triggered, cleared, value)``, or ``None`` when there is no data.

        ``triggered`` means the raw condition holds; ``cleared`` means the
        value is safely outside the hysteresis band (an alert may be
        neither — in the band — which holds a firing alert open).
        """
        if self.check is not None:
            result = self.check(values)
            if result is None:
                return None
            triggered, value = result
            return bool(triggered), not triggered, float(value)
        value = values.get(self.metric)
        if value is None:
            return None
        triggered = (self.below is not None and value < self.below) or (
            self.above is not None and value > self.above
        )
        cleared = not triggered
        if cleared and self.hysteresis:
            if self.below is not None and value < self.below + self.hysteresis:
                cleared = False
            if self.above is not None and value > self.above - self.hysteresis:
                cleared = False
        return triggered, cleared, float(value)

    def describe(self, value: float) -> str:
        """A one-line human condition summary for event messages."""
        if self.check is not None:
            return f"{self.name}: value={value:.4g}"
        parts = []
        if self.below is not None:
            parts.append(f"below {self.below:g}")
        if self.above is not None:
            parts.append(f"above {self.above:g}")
        return f"{self.metric}={value:.4f} ({' or '.join(parts)})"


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition, as delivered to every sink."""

    ts: float
    rule: str
    state: str
    value: float
    severity: str
    message: str
    labels: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "ts": self.ts,
            "rule": self.rule,
            "state": self.state,
            "value": self.value,
            "severity": self.severity,
            "message": self.message,
            "labels": dict(self.labels),
        }


def format_alert_event(event: Mapping) -> str:
    """One human-readable line per event (used by ``repro alerts``)."""
    ts = float(event.get("ts", 0.0))
    clock = time.strftime("%H:%M:%S", time.gmtime(ts)) if ts > 1e6 else f"t={ts:g}s"
    state = str(event.get("state", "?")).upper()
    return (
        f"{clock} {state:<8s} {event.get('rule', '?')} "
        f"[{event.get('severity', '?')}] {event.get('message', '')}"
    )


class AlertSink:
    """Interface: receives every lifecycle event; must never raise."""

    def emit(self, event: AlertEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class LogSink(AlertSink):
    """Structured log lines (WARNING while firing, INFO otherwise)."""

    def emit(self, event: AlertEvent) -> None:
        level = logging.WARNING if event.state == FIRING else logging.INFO
        logger.log(
            level,
            "alert %s: %s (%s)",
            event.state, event.rule, event.message,
            extra={"alert_rule": event.rule, "alert_state": event.state,
                   "alert_value": event.value},
        )


class JSONLSink(AlertSink):
    """Append one JSON object per event to a file (the tailable alert log)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()

    def emit(self, event: AlertEvent) -> None:
        line = json.dumps(event.as_dict(), sort_keys=False)
        try:
            with self._lock, open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            logger.warning("alert JSONL sink failed for %s: %s", self.path, exc)


class WebhookSink(AlertSink):
    """POST each event as JSON to a URL, retried under ``retry_policy``.

    The default policy makes at most three attempts, 0.05 s then 0.1 s
    apart (:data:`~repro.resilience.retry.WEBHOOK_POLICY`).  Delivery
    failures are logged and counted (``alerts.sink_errors_total``), never
    raised — a dead webhook must not take the monitor down with it.
    """

    def __init__(self, url: str, retry_policy=None, clock=None) -> None:
        from repro.resilience.retry import WEBHOOK_POLICY

        self.url = url
        self._retry_policy = retry_policy or WEBHOOK_POLICY
        self._clock = clock

    def _post(self, payload: bytes) -> None:
        import urllib.request

        request = urllib.request.Request(
            self.url, data=payload,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=_WEBHOOK_TIMEOUT):
            pass

    def emit(self, event: AlertEvent) -> None:
        from repro import obs
        from repro.errors import ReproError
        from repro.resilience.retry import retry_call

        payload = json.dumps(event.as_dict()).encode("utf-8")
        try:
            retry_call(
                lambda: self._post(payload),
                policy=self._retry_policy,
                name=f"webhook:{self.url}",
                clock=self._clock,
            )
        except (ReproError, OSError) as exc:
            obs.get_tracer().metrics.counter(
                "alerts.sink_errors_total",
                help="Alert sink deliveries that failed after retries.",
            ).inc()
            logger.warning("alert webhook %s failed: %s", self.url, exc)


class _Instance:
    """Mutable per-rule lifecycle state inside the manager."""

    __slots__ = ("rule", "state", "value", "since", "fired_at", "resolve_since")

    def __init__(self, rule: AlertRule, state: str, value: float, now: float) -> None:
        self.rule = rule
        self.state = state
        self.value = value
        self.since = now
        self.fired_at: float | None = None
        self.resolve_since: float | None = None

    def as_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "state": self.state,
            "value": self.value,
            "since": self.since,
            "fired_at": self.fired_at,
            "severity": self.rule.severity,
            "labels": dict(self.rule.labels),
        }


class AlertManager:
    """Walks rules through the alert lifecycle and fans events to sinks.

    >>> from repro.resilience.retry import ManualClock
    >>> clock = ManualClock()
    >>> manager = AlertManager(clock=clock)
    >>> manager.add_rule(AlertRule("low-nakamoto", metric="nakamoto", below=3))
    >>> [e.state for e in manager.evaluate({"nakamoto": 2.0})]
    ['firing']
    >>> manager.evaluate({"nakamoto": 2.0})   # deduplicated while active
    []
    >>> [e.state for e in manager.evaluate({"nakamoto": 5.0})]
    ['resolved']
    """

    def __init__(
        self,
        sinks: Sequence[AlertSink] = (),
        clock=None,
        registry=None,
    ) -> None:
        self._lock = threading.RLock()
        self._rules: list[AlertRule] = []
        self._sinks: list[AlertSink] = list(sinks)
        self._instances: dict[str, _Instance] = {}
        self._history: deque[dict] = deque(maxlen=_HISTORY_CAP)
        self.fired_total = 0
        self.resolved_total = 0
        if clock is None:
            self._now: Callable[[], float] = time.time
        else:
            self._now = getattr(clock, "monotonic", clock)
        self._registry = registry

    def add_rule(self, rule: AlertRule) -> None:
        """Register a rule; names must be unique (the dedup key)."""
        with self._lock:
            if any(existing.name == rule.name for existing in self._rules):
                raise ValidationError(f"duplicate alert rule {rule.name!r}")
            self._rules.append(rule)

    @property
    def rules(self) -> tuple[AlertRule, ...]:
        with self._lock:
            return tuple(self._rules)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values: Mapping[str, float]) -> list[AlertEvent]:
        """Evaluate every rule against ``values``; returns emitted events."""
        events: list[AlertEvent] = []
        with self._lock:
            now = self._now()
            for rule in self._rules:
                result = rule.evaluate(values)
                if result is None:
                    continue  # no data: hold current state
                triggered, cleared, value = result
                instance = self._instances.get(rule.name)
                if triggered:
                    if instance is None:
                        instance = _Instance(rule, PENDING, value, now)
                        self._instances[rule.name] = instance
                        if rule.for_duration > 0:
                            events.append(self._transition(instance, PENDING, value, now))
                        else:
                            events.append(self._fire(instance, value, now))
                    elif instance.state == PENDING:
                        instance.value = value
                        if now - instance.since >= rule.for_duration:
                            events.append(self._fire(instance, value, now))
                    else:  # already firing: dedup, refresh value
                        instance.value = value
                        instance.resolve_since = None
                else:
                    if instance is None:
                        continue
                    if instance.state == PENDING:
                        # Never fired: silently drop back to inactive.
                        del self._instances[rule.name]
                        continue
                    if not cleared:
                        # Inside the hysteresis band: hold the alert open.
                        instance.value = value
                        instance.resolve_since = None
                        continue
                    if instance.resolve_since is None:
                        instance.resolve_since = now
                    if now - instance.resolve_since >= rule.keep_for:
                        events.append(self._resolve(instance, value, now))
        for event in events:
            self._deliver(event)
        return events

    def _transition(self, instance: _Instance, state: str, value: float,
                    now: float) -> AlertEvent:
        instance.state = state
        instance.value = value
        event = AlertEvent(
            ts=now,
            rule=instance.rule.name,
            state=state,
            value=value,
            severity=instance.rule.severity,
            message=instance.rule.describe(value),
            labels=dict(instance.rule.labels),
        )
        self._history.append(event.as_dict())
        return event

    def _fire(self, instance: _Instance, value: float, now: float) -> AlertEvent:
        instance.fired_at = now
        instance.resolve_since = None
        self.fired_total += 1
        self._count("alerts.fired_total", "Alerts that entered the firing state.")
        return self._transition(instance, FIRING, value, now)

    def _resolve(self, instance: _Instance, value: float, now: float) -> AlertEvent:
        event = self._transition(instance, RESOLVED, value, now)
        del self._instances[instance.rule.name]
        self.resolved_total += 1
        self._count("alerts.resolved_total", "Alerts that resolved after firing.")
        return event

    def _count(self, name: str, help_text: str) -> None:
        registry = self._registry
        if registry is None:
            from repro import obs

            registry = obs.get_tracer().metrics
        registry.counter(name, help=help_text).inc()

    def _deliver(self, event: AlertEvent) -> None:
        for sink in list(self._sinks):
            try:
                sink.emit(event)
            except Exception as exc:  # a sink must never kill the monitor
                logger.warning("alert sink %r failed: %s", type(sink).__name__, exc)

    # -- inspection -----------------------------------------------------------

    def active(self) -> list[dict]:
        """Current pending/firing instances, sorted by rule name."""
        with self._lock:
            return [
                self._instances[name].as_dict()
                for name in sorted(self._instances)
            ]

    def history(self, limit: int = 100) -> list[dict]:
        """The most recent lifecycle events, oldest first."""
        with self._lock:
            items = list(self._history)
        return items[-limit:]

    def summary(self) -> dict:
        """The ``alerts`` section of ``/status`` and ``/api/v1/alerts``."""
        with self._lock:
            active = [
                self._instances[name].as_dict() for name in sorted(self._instances)
            ]
            return {
                "rules": len(self._rules),
                "active": active,
                "firing": sum(1 for a in active if a["state"] == FIRING),
                "fired_total": self.fired_total,
                "resolved_total": self.resolved_total,
            }


def rules_from_thresholds(
    below: Sequence[tuple[str, float]] = (),
    above: Sequence[tuple[str, float]] = (),
) -> list[AlertRule]:
    """Compile the CLI's ``--alert-below/--alert-above`` specs.

    Each ``(metric, value)`` pair becomes one rule named
    ``<metric>-below-<value>`` or ``<metric>-above-<value>`` that fires
    and resolves on the evaluation that crosses it (build an
    :class:`AlertRule` directly for dwell times).
    """
    rules = [
        AlertRule(f"{metric}-below-{value:g}", metric=metric, below=value)
        for metric, value in below
    ]
    rules += [
        AlertRule(f"{metric}-above-{value:g}", metric=metric, above=value)
        for metric, value in above
    ]
    return rules


class AnomalyDetector:
    """EWMA mean/variance z-score detector over one metric stream.

    The first ``warmup`` values establish the baseline (their mean and
    sample variance); every later value is scored as
    ``z = (value - mean) / std`` *before* updating the baseline, and
    anomalous values (``|z| > threshold``) are **not** absorbed into the
    baseline, so a one-day regime shift (the paper's Jan-14-2019 Gini
    collapse) stays anomalous instead of dragging the mean down with it.

    >>> detector = AnomalyDetector(threshold=4.0, warmup=3)
    >>> for v in (10.0, 10.2, 9.9, 10.1, 10.0):
    ...     _ = detector.update(v)
    >>> abs(detector.update(4.0)) > 4.0
    True
    """

    def __init__(
        self,
        alpha: float = 0.3,
        threshold: float = 4.0,
        warmup: int = 5,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
        if threshold <= 0:
            raise ValidationError(f"threshold must be positive, got {threshold}")
        if warmup < 2:
            raise ValidationError(f"warmup must be >= 2, got {warmup}")
        self.alpha = alpha
        self.threshold = threshold
        self.warmup = warmup
        self._seen = 0
        self._warmup_values: list[float] = []
        self._mean = 0.0
        self._var = 0.0

    @property
    def mean(self) -> float:
        """The current baseline mean."""
        return self._mean

    @property
    def std(self) -> float:
        """The current baseline standard deviation (floored at 1e-6)."""
        return max(math.sqrt(self._var), _MIN_STD)

    def update(self, value: float) -> float | None:
        """Score ``value`` against the baseline, then fold it in.

        Returns the z-score, or ``None`` while the baseline is still
        warming up.
        """
        value = float(value)
        self._seen += 1
        if self._seen <= self.warmup:
            self._warmup_values.append(value)
            if self._seen == self.warmup:
                n = len(self._warmup_values)
                self._mean = sum(self._warmup_values) / n
                self._var = sum(
                    (v - self._mean) ** 2 for v in self._warmup_values
                ) / max(n - 1, 1)
                self._warmup_values.clear()
            return None
        z = (value - self._mean) / self.std
        if abs(z) <= self.threshold:
            diff = value - self._mean
            incr = self.alpha * diff
            self._mean += incr
            self._var = (1.0 - self.alpha) * (self._var + self.alpha * diff * diff)
        return z

    def is_anomaly(self, value: float) -> bool:
        """Score and flag in one call (False during warmup)."""
        z = self.update(value)
        return z is not None and abs(z) > self.threshold


def anomaly_rule(
    name: str,
    metric: str,
    detector: AnomalyDetector | None = None,
) -> AlertRule:
    """An :class:`AlertRule` that fires on z-score anomalies in ``metric``.

    Each :meth:`AlertManager.evaluate` call feeds the metric's latest
    value through the detector once, so wire one rule per stream and
    evaluate once per window.
    """
    detector = detector or AnomalyDetector()

    def check(values: Mapping[str, float]) -> tuple[bool, float] | None:
        value = values.get(metric)
        if value is None:
            return None
        z = detector.update(value)
        if z is None:
            return None
        return abs(z) > detector.threshold, z

    return AlertRule(
        name, check=check, labels={"metric": metric, "kind": "anomaly"}
    )
