"""Tests for span-correlated structured logging."""

import io
import json
import logging

import pytest

from repro import obs
from repro.obs.logging import (
    ROOT_LOGGER_NAME,
    configure_logging,
    configured_logging,
    get_logger,
)


@pytest.fixture
def log_stream():
    """Configure the repro hierarchy onto a buffer; restore afterwards."""
    stream = io.StringIO()
    root = logging.getLogger(ROOT_LOGGER_NAME)
    saved_level, saved_propagate = root.level, root.propagate
    yield stream
    for handler in [
        h for h in root.handlers if getattr(h, "_repro_managed", False)
    ]:
        root.removeHandler(handler)
        handler.close()
    root.setLevel(saved_level)
    root.propagate = saved_propagate


class TestTextMode:
    def test_line_has_level_logger_and_message(self, log_stream):
        configure_logging(stream=log_stream)
        get_logger("engine").warning("fell off the fast path")
        line = log_stream.getvalue().strip()
        assert "WARNING" in line
        assert "repro.engine" in line
        assert line.endswith("fell off the fast path")

    def test_span_context_appears_when_tracing(self, log_stream):
        configure_logging(stream=log_stream)
        obs.enable_tracing()
        try:
            with obs.span("engine.sliding_sweep"):
                get_logger("engine").warning("slow rebuild")
        finally:
            obs.disable_tracing()
        assert "[engine.sliding_sweep#" in log_stream.getvalue()

    def test_no_span_marker_outside_spans(self, log_stream):
        configure_logging(stream=log_stream)
        get_logger("engine").warning("plain")
        assert "[" not in log_stream.getvalue()

    def test_level_filters(self, log_stream):
        configure_logging(level="WARNING", stream=log_stream)
        get_logger("x").info("hidden")
        get_logger("x").warning("shown")
        assert "hidden" not in log_stream.getvalue()
        assert "shown" in log_stream.getvalue()


class TestJsonMode:
    def test_one_parseable_object_per_line(self, log_stream):
        configure_logging(json_lines=True, stream=log_stream)
        logger = get_logger("cache")
        logger.info("first")
        logger.warning("second")
        lines = log_stream.getvalue().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert [p["message"] for p in payloads] == ["first", "second"]
        assert payloads[1]["level"] == "WARNING"
        assert payloads[0]["logger"] == "repro.cache"
        assert payloads[0]["ts"].endswith("+00:00")

    def test_span_id_and_name_are_injected(self, log_stream):
        configure_logging(json_lines=True, stream=log_stream)
        obs.enable_tracing()
        try:
            with obs.span("streaming.evaluate"):
                get_logger("streaming").warning("threshold alert")
        finally:
            obs.disable_tracing()
        payload = json.loads(log_stream.getvalue())
        assert payload["span"] == "streaming.evaluate"
        assert isinstance(payload["span_id"], int)

    def test_extra_fields_pass_through(self, log_stream):
        configure_logging(json_lines=True, stream=log_stream)
        get_logger("sql").warning("slow", extra={"rows": 100000, "op": "eq"})
        payload = json.loads(log_stream.getvalue())
        assert payload["rows"] == 100000
        assert payload["op"] == "eq"

    def test_exceptions_are_captured(self, log_stream):
        configure_logging(json_lines=True, stream=log_stream)
        try:
            raise ValueError("boom")
        except ValueError:
            get_logger("x").exception("failed")
        payload = json.loads(log_stream.getvalue())
        assert "ValueError: boom" in payload["exception"]


class TestConfiguration:
    def test_reconfigure_replaces_the_managed_handler(self, log_stream):
        configure_logging(stream=log_stream)
        configure_logging(json_lines=True, stream=log_stream)
        root = logging.getLogger(ROOT_LOGGER_NAME)
        managed = [
            h for h in root.handlers if getattr(h, "_repro_managed", False)
        ]
        assert len(managed) == 1
        get_logger("x").info("once")
        assert len(log_stream.getvalue().splitlines()) == 1

    def test_foreign_handlers_survive_reconfiguration(self, log_stream):
        root = logging.getLogger(ROOT_LOGGER_NAME)
        foreign = logging.NullHandler()
        root.addHandler(foreign)
        try:
            configure_logging(stream=log_stream)
            assert foreign in root.handlers
        finally:
            root.removeHandler(foreign)

    def test_configured_block_restores_the_logger_even_on_error(self, log_stream):
        configure_logging(stream=log_stream)
        root = logging.getLogger(ROOT_LOGGER_NAME)
        before = (list(root.handlers), root.level, root.propagate)
        inner = io.StringIO()
        with pytest.raises(RuntimeError):
            with configured_logging(level="DEBUG", stream=inner) as configured:
                assert configured.level == logging.DEBUG
                get_logger("x").debug("inside")
                raise RuntimeError("command failed")
        assert (list(root.handlers), root.level, root.propagate) == before
        get_logger("x").warning("outside")
        assert "inside" in inner.getvalue() and "outside" not in inner.getvalue()
        assert "outside" in log_stream.getvalue()

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="LOUD")

    def test_get_logger_prefixes_once(self):
        assert get_logger("serve").name == "repro.serve"
        assert get_logger("repro.serve").name == "repro.serve"
        assert get_logger("repro").name == "repro"
