"""Prometheus text exposition (version 0.0.4) for the metrics registry.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
into the plain-text format a Prometheus server scrapes: counters become
``<name>_total``, gauges keep their name, and timing histograms expand into
cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count`` — the
bucket counts are maintained exactly on ``observe`` (see
:attr:`~repro.obs.metrics.DEFAULT_BUCKET_BOUNDS`), not reconstructed from
the bounded percentile sample.

Instrument names in this codebase are dotted (``engine.sliding.fast_path``);
:func:`sanitize_metric_name` maps them onto the Prometheus grammar
``[a-zA-Z_:][a-zA-Z0-9_:]*`` under a ``repro_`` namespace prefix.

Every payload additionally carries a ``repro_build_info`` gauge — the
standard constant-1 series whose labels identify the build (package
version, python version/implementation, platform), so dashboards can
join measurements against the code that produced them.
"""

from __future__ import annotations

import platform as _platform
import re

from repro.obs.metrics import MetricsRegistry

#: Namespace every exposed metric lives under.
NAMESPACE = "repro"

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """Map an instrument name onto a legal, namespaced Prometheus name.

    Dots and every other illegal character collapse to ``_``, runs of
    underscores are squeezed, and a leading digit gains a ``_`` guard.

    >>> sanitize_metric_name("engine.sliding.fast_path")
    'repro_engine_sliding_fast_path'
    >>> sanitize_metric_name("2phase commit!")
    'repro_2phase_commit_'
    """
    cleaned = _INVALID_METRIC_CHARS.sub("_", name)
    cleaned = re.sub(r"__+", "_", cleaned)
    if namespace:
        cleaned = f"{namespace}_{cleaned}"
    if cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def sanitize_label_name(name: str) -> str:
    """Map a label name onto ``[a-zA-Z_][a-zA-Z0-9_]*`` (no colons)."""
    cleaned = _INVALID_LABEL_CHARS.sub("_", name) or "_"
    if cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (``\\``, ``"``, newline)."""
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def escape_help_text(text: str) -> str:
    """Escape a ``# HELP`` docstring per the exposition format (``\\``, newline)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def format_value(value: float) -> str:
    """Render a sample value; integers lose the trailing ``.0``."""
    as_float = float(value)
    if as_float != as_float:  # NaN
        return "NaN"
    if as_float in (float("inf"), float("-inf")):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _histogram_name(raw: str) -> str:
    """Histogram exposition names advertise their unit (seconds)."""
    name = sanitize_metric_name(raw)
    return name if name.endswith("_seconds") else f"{name}_seconds"


def build_info() -> dict:
    """Build/runtime identity labels for the ``repro_build_info`` series.

    Also served verbatim as the ``build`` section of ``/status``.
    """
    from repro import __version__

    return {
        "version": __version__,
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "platform": _platform.platform(),
    }


def render_build_info() -> str:
    """The constant-1 ``repro_build_info`` gauge section."""
    name = f"{NAMESPACE}_build_info"
    labels = ",".join(
        f'{sanitize_label_name(key)}="{escape_label_value(str(value))}"'
        for key, value in sorted(build_info().items())
    )
    return (
        f"# HELP {name} Build and runtime identity (constant 1).\n"
        f"# TYPE {name} gauge\n"
        f"{name}{{{labels}}} 1\n"
    )


def render_prometheus(registry: MetricsRegistry) -> str:
    """The full ``/metrics`` payload for ``registry``.

    Counters are exposed as ``repro_<name>_total``, gauges as
    ``repro_<name>``, timing histograms as ``repro_<name>_seconds`` with
    cumulative ``le`` buckets ending at ``+Inf`` and exact
    ``_sum``/``_count`` series.  The payload always ends with the
    ``repro_build_info`` identity gauge, so even an empty registry scrapes
    as a live, identifiable target.
    """
    counters, gauges, timings = registry.instruments()
    lines: list[str] = []
    for counter in counters:
        name = sanitize_metric_name(counter.name)
        if not name.endswith("_total"):
            name = f"{name}_total"
        help_text = counter.help or f"Counter {counter.name!r}."
        lines.append(f"# HELP {name} {escape_help_text(help_text)}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {format_value(counter.value)}")
    for gauge in gauges:
        name = sanitize_metric_name(gauge.name)
        help_text = gauge.help or f"Gauge {gauge.name!r}."
        lines.append(f"# HELP {name} {escape_help_text(help_text)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {format_value(gauge.value)}")
    for timing in timings:
        name = _histogram_name(timing.name)
        help_text = timing.help or f"Timing histogram {timing.name!r} (seconds)."
        lines.append(f"# HELP {name} {escape_help_text(help_text)}")
        lines.append(f"# TYPE {name} histogram")
        for bound, cumulative in timing.cumulative_buckets():
            le = "+Inf" if bound == float("inf") else format_value(bound)
            lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{name}_sum {format_value(timing.total)}")
        lines.append(f"{name}_count {timing.count}")
    body = "\n".join(lines) + "\n" if lines else ""
    return body + render_build_info()
