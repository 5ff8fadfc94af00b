"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystems define
narrower subclasses here rather than ad-hoc ``ValueError`` raises so that
failure modes are part of the public contract.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong type, range, or shape)."""


class SchemaError(ReproError):
    """A table operation referenced a missing column or mismatched dtype."""


class TableError(ReproError):
    """A table operation was structurally invalid (length mismatch, etc.)."""


class SqlError(ReproError):
    """Base class for errors raised by the mini SQL engine."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SqlPlanError(SqlError):
    """The parsed query is semantically invalid (unknown column, bad aggregate)."""


class SqlExecutionError(SqlError):
    """The query failed while executing (type errors, division by zero, ...)."""


class ChainError(ReproError):
    """A chain structure violated an invariant (heights, timestamps, links)."""


class AttributionError(ReproError):
    """Block-producer attribution failed (empty coinbase, unknown policy)."""


class SimulationError(ReproError):
    """A simulator was configured inconsistently."""


class MetricError(ReproError):
    """A decentralization metric received an invalid distribution."""


class WindowError(ReproError):
    """A window specification was invalid (non-positive size, bad step)."""


class MeasurementError(ReproError):
    """The measurement engine was asked for an impossible combination."""


class ObservabilityError(ReproError):
    """A trace file was missing, malformed, or failed schema validation."""


class ParallelError(ReproError):
    """The sharded execution layer was misconfigured or a worker failed."""


class ServeError(ReproError):
    """The telemetry server was misused (double start, serve after close)."""


class ResilienceError(ReproError):
    """Base class for errors raised by the resilience subsystem."""


class FaultSpecError(ResilienceError, ValidationError):
    """A fault-injection spec string failed to parse or validate.

    Doubles as a :class:`ValidationError` so the CLI maps it to exit
    code 2 (argument error) rather than 1 (runtime failure).
    """


class TransientError(ResilienceError):
    """A retryable failure: the operation may succeed if tried again."""


class InjectedFaultError(TransientError):
    """A transient read error injected by the fault-injection engine."""


class DeadlineExceededError(TransientError):
    """An operation ran past its (possibly injected) timeout."""


class RetryExhaustedError(ResilienceError):
    """A retried operation kept failing until attempts or deadline ran out."""

    def __init__(self, message: str, attempts: int = 0,
                 last_error: BaseException | None = None) -> None:
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(message)


class IntegrityError(ChainError):
    """Ingested chain data violated an integrity invariant beyond repair."""
