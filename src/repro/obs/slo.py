"""Declarative SLOs evaluated with Google-SRE multi-window burn rates.

An SLO says "fraction of *good* events ≥ target" — e.g. "99% of requests
succeed", "99% of evaluations finish under 250ms", or the paper-flavoured
drift objective "nakamoto ≥ 3 in 99% of windows".  The error *budget* is
``1 - target``; the **burn rate** over a window is how many times faster
than budget-neutral the service is consuming it::

    burn = bad_fraction(window) / (1 - target)

Following the Google SRE workbook, each objective is alerted on
**window pairs**: a breach requires *both* the short and the long window
of a pair to burn above the pair's factor — the long window proves the
problem is real, the short window proves it is still happening (so alerts
resolve quickly once the bleeding stops).  The defaults are the classic
fast page pair (5m/1h at 14.4× — budget gone in ~2 days) and a slow
ticket pair (6h/3d at 1× — budget gone by period end).

Objectives load from a TOML or JSON file (``repro monitor --slo FILE``;
TOML needs the stdlib ``tomllib`` of Python 3.11+, JSON always works),
evaluate against the :class:`~repro.obs.timeseries.TimeSeriesStore`
histories, and compile into :class:`~repro.obs.alerts.AlertRule` checks on
the stateful :class:`~repro.obs.alerts.AlertManager` — tests drive all of
it on a :class:`~repro.resilience.retry.ManualClock`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ValidationError
from repro.obs.alerts import AlertRule
from repro.obs.timeseries import TimeSeriesStore, _resolve_clock

#: Objective kinds: availability is a bad/total counter ratio; latency and
#: metric judge each raw observation against a threshold.
SLO_TYPES = ("availability", "latency", "metric")

#: Comparison operators for metric objectives (the *good* condition).
_OPS = {
    ">=": lambda value, bound: value >= bound,
    ">": lambda value, bound: value > bound,
    "<=": lambda value, bound: value <= bound,
    "<": lambda value, bound: value < bound,
}


@dataclass(frozen=True)
class BurnWindow:
    """One short/long window pair with its burn-rate alert factor."""

    label: str
    short: float
    long: float
    factor: float
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.short <= 0 or self.long <= self.short:
            raise ValidationError(
                f"window {self.label!r}: need 0 < short < long, "
                f"got {self.short}/{self.long}"
            )
        if self.factor <= 0:
            raise ValidationError(
                f"window {self.label!r}: factor must be positive, got {self.factor}"
            )

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "short_seconds": self.short,
            "long_seconds": self.long,
            "factor": self.factor,
            "severity": self.severity,
        }


#: The Google-SRE default pairs: fast page (5m/1h @ 14.4×) and slow
#: ticket (6h/3d @ 1×).
DEFAULT_BURN_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow("fast", 300.0, 3600.0, 14.4, severity="page"),
    BurnWindow("slow", 21600.0, 259200.0, 1.0, severity="ticket"),
)


@dataclass(frozen=True)
class SLO:
    """One declarative objective over stored series.

    ``availability`` divides the in-window increase of ``bad_series`` by
    that of ``total_series`` (both cumulative counters).  ``latency``
    counts raw observations of ``series`` above ``value`` seconds as bad.
    ``metric`` counts observations where ``value_op value`` does *not*
    hold as bad (``value_op`` states the **good** condition, so the
    paper's drift objective reads ``op=">=", value=3``).
    """

    name: str
    type: str
    target: float
    series: str | None = None
    op: str = ">="
    value: float = 0.0
    bad_series: str = "serve.http_errors_total"
    total_series: str = "serve.http_requests_total"
    windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS
    labels: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in SLO_TYPES:
            raise ValidationError(
                f"SLO {self.name!r}: type must be one of {SLO_TYPES}, got {self.type!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValidationError(
                f"SLO {self.name!r}: target must be in (0, 1), got {self.target}"
            )
        if self.type in ("latency", "metric") and not self.series:
            raise ValidationError(f"SLO {self.name!r}: {self.type} needs a series")
        if self.op not in _OPS:
            raise ValidationError(
                f"SLO {self.name!r}: op must be one of {sorted(_OPS)}, got {self.op!r}"
            )
        if not self.windows:
            raise ValidationError(f"SLO {self.name!r}: needs at least one window pair")

    @property
    def budget(self) -> float:
        """The error budget ``1 - target``."""
        return 1.0 - self.target

    def bad_fraction(self, store: TimeSeriesStore, start: float, end: float) -> float | None:
        """Fraction of bad events in ``[start, end]``, or None without data."""
        if self.type == "availability":
            bad = _counter_delta(store, self.bad_series, start, end)
            total = _counter_delta(store, self.total_series, start, end)
            if total is None or total <= 0:
                return None
            return min(max((bad or 0.0) / total, 0.0), 1.0)
        points = store.raw_points(self.series, start, end)
        if not points:
            return None
        if self.type == "latency":
            bad = sum(1 for _, v in points if v > self.value)
        else:
            good = _OPS[self.op]
            bad = sum(1 for _, v in points if not good(v, self.value))
        return bad / len(points)


def _counter_delta(store: TimeSeriesStore, name: str, start: float,
                   end: float) -> float | None:
    """In-window increase of a cumulative counter series (None: no data)."""
    points = store.raw_points(name, start, end)
    if not points:
        return None
    if len(points) == 1:
        # A single in-window sample: its value *is* the cumulative total,
        # so fall back to the last retained point before the window.
        earlier = store.raw_points(name, None, start)
        baseline = earlier[-1][1] if earlier else 0.0
        return max(points[0][1] - baseline, 0.0)
    return max(points[-1][1] - points[0][1], 0.0)


class SLOEngine:
    """Evaluates objectives against a store and compiles them into alerts.

    >>> from repro.obs.timeseries import TimeSeriesStore
    >>> store = TimeSeriesStore(clock=lambda: 3600.0)
    >>> for i in range(100):
    ...     store.record("nakamoto", 2.0 if i % 2 else 4.0, ts=3600.0 - i)
    >>> slo = SLO("drift", "metric", 0.99, series="nakamoto", op=">=", value=3)
    >>> engine = SLOEngine([slo], store, clock=lambda: 3600.0)
    >>> engine.evaluate()[0]["breached"]
    True
    """

    def __init__(self, slos: Sequence[SLO], store: TimeSeriesStore,
                 clock=None) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate SLO names in {names}")
        self.slos = tuple(slos)
        self.store = store
        self._now = store.now if clock is None else _resolve_clock(clock)

    def _pair_burns(
        self, slo: SLO, window: BurnWindow, now: float
    ) -> tuple[float | None, float | None]:
        short = slo.bad_fraction(self.store, now - window.short, now)
        long = slo.bad_fraction(self.store, now - window.long, now)
        budget = slo.budget
        return (
            None if short is None else short / budget,
            None if long is None else long / budget,
        )

    def _pair_breached(self, short_burn: float | None, long_burn: float | None,
                       factor: float) -> bool:
        # Both windows must burn above the factor: the long window keeps
        # blips from paging, the short window lets the alert clear fast.
        return (
            short_burn is not None and long_burn is not None
            and short_burn > factor and long_burn > factor
        )

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Burn-rate status of every objective (JSON-ready)."""
        now = self._now() if now is None else float(now)
        out = []
        for slo in self.slos:
            windows = []
            breached = False
            for window in slo.windows:
                short_burn, long_burn = self._pair_burns(slo, window, now)
                pair_breached = self._pair_breached(
                    short_burn, long_burn, window.factor
                )
                breached = breached or pair_breached
                windows.append({
                    **window.as_dict(),
                    "short_burn": short_burn,
                    "long_burn": long_burn,
                    "breached": pair_breached,
                })
            out.append({
                "name": slo.name,
                "type": slo.type,
                "target": slo.target,
                "budget": slo.budget,
                "breached": breached,
                "windows": windows,
            })
        return out

    def rules(self) -> list[AlertRule]:
        """One stateful :class:`AlertRule` per (objective, window pair).

        The rule's check re-evaluates its pair on the engine clock; the
        reported value is the worse of the two burn rates.
        """
        rules = []
        for slo in self.slos:
            for window in slo.windows:
                rules.append(AlertRule(
                    f"slo:{slo.name}:{window.label}",
                    check=self._make_check(slo, window),
                    severity=window.severity,
                    labels={"slo": slo.name, "window": window.label,
                            "type": slo.type, **slo.labels},
                ))
        return rules

    def _make_check(self, slo: SLO, window: BurnWindow):
        def check(values: Mapping[str, float]) -> tuple[bool, float] | None:
            now = self._now()
            short_burn, long_burn = self._pair_burns(slo, window, now)
            if short_burn is None and long_burn is None:
                return None
            worst = max(b for b in (short_burn, long_burn) if b is not None)
            return self._pair_breached(short_burn, long_burn, window.factor), worst

        return check

    def summary(self) -> dict:
        """The ``slo`` section of ``/status``."""
        statuses = self.evaluate()
        return {
            "objectives": len(statuses),
            "breached": [s["name"] for s in statuses if s["breached"]],
            "statuses": statuses,
        }


# -- file loading --------------------------------------------------------------


def parse_slo_config(data, source: str = "<config>") -> list[SLO]:
    """Build :class:`SLO` objects from decoded TOML/JSON data.

    Accepts either a top-level list of objective tables or a mapping with
    an ``slo`` (or ``objectives``) list.  Raises
    :class:`~repro.errors.ValidationError` on any malformed entry.
    """
    if isinstance(data, Mapping):
        entries = data.get("slo", data.get("objectives"))
        if entries is None:
            raise ValidationError(
                f"{source}: expected a top-level 'slo' (or 'objectives') list"
            )
    else:
        entries = data
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ValidationError(f"{source}: needs at least one objective")
    slos = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValidationError(f"{source}: objective #{index} is not a table")
        slos.append(_parse_entry(entry, f"{source}: objective #{index}"))
    names = [slo.name for slo in slos]
    if len(set(names)) != len(names):
        raise ValidationError(f"{source}: duplicate SLO names in {names}")
    return slos


_KNOWN_KEYS = {
    "name", "type", "target", "series", "op", "value",
    "bad_series", "total_series", "windows", "labels",
}


def _parse_entry(entry: Mapping, source: str) -> SLO:
    unknown = set(entry) - _KNOWN_KEYS
    if unknown:
        raise ValidationError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("name", "type", "target"):
        if key not in entry:
            raise ValidationError(f"{source}: missing required key {key!r}")
    try:
        target = float(entry["target"])
        value = float(entry.get("value", 0.0))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{source}: non-numeric target/value: {exc}") from None
    windows = DEFAULT_BURN_WINDOWS
    if "windows" in entry:
        raw_windows = entry["windows"]
        if not isinstance(raw_windows, (list, tuple)):
            raise ValidationError(f"{source}: windows must be a list")
        try:
            windows = tuple(
                BurnWindow(
                    label=str(w.get("label", f"pair{i}")),
                    short=float(w["short"]),
                    long=float(w["long"]),
                    factor=float(w.get("factor", 1.0)),
                    severity=str(w.get("severity", "warning")),
                )
                for i, w in enumerate(raw_windows)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{source}: bad window pair: {exc!r}") from None
    labels = entry.get("labels", {})
    if not isinstance(labels, Mapping):
        raise ValidationError(f"{source}: labels must be a table")
    kwargs = {}
    for key in ("series", "bad_series", "total_series"):
        if key in entry:
            kwargs[key] = str(entry[key])
    return SLO(
        name=str(entry["name"]),
        type=str(entry["type"]),
        target=target,
        op=str(entry.get("op", ">=")),
        value=value,
        windows=windows,
        labels=dict(labels),
        **kwargs,
    )


def load_slo_file(path: str) -> list[SLO]:
    """Load objectives from a ``.toml`` or ``.json`` file.

    TOML requires Python 3.11+ (the stdlib ``tomllib``); JSON always
    works.  Missing files, undecodable content, and schema violations all
    raise :class:`~repro.errors.ValidationError` so the CLI can exit 2.
    """
    suffix = os.path.splitext(path)[1].lower()
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read SLO file {path}: {exc}") from None
    if suffix == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ValidationError(
                f"{path}: TOML SLO files need Python 3.11+ (tomllib); "
                "use the JSON form instead"
            ) from None
        try:
            data = tomllib.loads(blob.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid TOML: {exc}") from None
    else:
        try:
            data = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    return parse_slo_config(data, source=path)
