"""Structured logging correlated with the tracer's spans.

Every ``repro.*`` logger can emit either a human line or one JSON object
per line; in both modes a :class:`SpanContextFilter` injects the active
span id and name from the process-wide tracer, so a warning logged inside
``engine.sliding_sweep`` joins against the exported trace by ``span_id``.

Configuration is one call (the CLI wires it to the global
``--log-json`` / ``--log-level`` flags)::

    from repro.obs.logging import configure_logging
    configure_logging(json_lines=True, level="DEBUG")

Library modules log through plain :func:`logging.getLogger` under the
``repro.`` hierarchy and never configure handlers themselves, so embedding
applications keep full control of routing.
"""

from __future__ import annotations

import contextlib
import datetime
import io
import json
import logging
from typing import Any, Iterator

from repro.obs import tracer as _tracer_module

#: The root of the library's logger hierarchy.
ROOT_LOGGER_NAME = "repro"

#: Fields of a LogRecord that are not user-supplied ``extra`` context.
_RESERVED_RECORD_FIELDS = frozenset(
    vars(logging.makeLogRecord({}))
) | {"message", "asctime", "span_id", "span_name"}


class SpanContextFilter(logging.Filter):
    """Stamp each record with the tracer's active span (id + name)."""

    def filter(self, record: logging.LogRecord) -> bool:
        current = _tracer_module.get_tracer().current_span()
        record.span_id = current[0] if current else None
        record.span_name = current[1] if current else None
        return True


class TextLogFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL logger [span#id] message`` — span part only when set."""

    def format(self, record: logging.LogRecord) -> str:
        timestamp = self.formatTime(record, "%H:%M:%S")
        span_name = getattr(record, "span_name", None)
        span = f" [{span_name}#{getattr(record, 'span_id', '?')}]" if span_name else ""
        base = (
            f"{timestamp} {record.levelname:<7s} {record.name}{span} "
            f"{record.getMessage()}"
        )
        if record.exc_info:
            base = f"{base}\n{self.formatException(record.exc_info)}"
        return base


class JsonLogFormatter(logging.Formatter):
    """One JSON object per line: ts/level/logger/message + span + extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": datetime.datetime.fromtimestamp(
                record.created, tz=datetime.timezone.utc
            ).isoformat(timespec="milliseconds"),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        if getattr(record, "span_id", None) is not None:
            payload["span_id"] = record.span_id
            payload["span"] = record.span_name
        for key, value in record.__dict__.items():
            if key not in _RESERVED_RECORD_FIELDS and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, sort_keys=False)


def configure_logging(
    json_lines: bool = False,
    level: int | str = logging.INFO,
    stream: io.TextIOBase | None = None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger hierarchy; returns its root.

    Replaces any handler a previous call installed (idempotent, safe in
    tests), attaches the span filter to the handler so every child logger
    inherits the correlation, and stops propagation so embedding apps
    don't double-log.
    """
    if isinstance(level, str):
        parsed = logging.getLevelName(level.upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in [h for h in root.handlers if getattr(h, "_repro_managed", False)]:
        root.removeHandler(handler)
        handler.close()
    handler = logging.StreamHandler(stream)
    handler._repro_managed = True  # type: ignore[attr-defined]
    handler.addFilter(SpanContextFilter())
    handler.setFormatter(JsonLogFormatter() if json_lines else TextLogFormatter())
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


@contextlib.contextmanager
def configured_logging(
    json_lines: bool = False,
    level: int | str = logging.INFO,
    stream: io.TextIOBase | None = None,
) -> Iterator[logging.Logger]:
    """:func:`configure_logging` for one ``with`` block.

    On exit the ``repro`` logger is left as the block found it: the
    handler installed here is removed and closed, and the previous
    handlers, level and propagation come back.  ``repro.cli.main`` runs
    each command inside one, so a later in-process call (or pytest's
    ``caplog``) never meets a handler bound to an earlier call's stream.
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    handlers, previous_level, propagate = list(root.handlers), root.level, root.propagate
    configure_logging(json_lines=json_lines, level=level, stream=stream)
    try:
        yield root
    finally:
        for handler in [h for h in root.handlers if h not in handlers]:
            root.removeHandler(handler)
            handler.close()
        for handler in handlers:
            if handler not in root.handlers:
                root.addHandler(handler)
        root.setLevel(previous_level)
        root.propagate = propagate


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if name == ROOT_LOGGER_NAME or name.startswith(f"{ROOT_LOGGER_NAME}."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")
