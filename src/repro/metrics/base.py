"""Metric protocol, validation, registry and batch evaluation.

A *metric* is anything with a ``name`` and a ``compute(values) -> float``
where ``values`` is a 1-D array of positive per-entity credit totals.  The
registry lets the measurement engine and the CLI look metrics up by name;
:func:`register_metric` accepts user-defined metrics (see
``examples/custom_metric.py``).

For window sweeps there is a batched layer: a :class:`DistributionBatch`
stacks many window distributions into one dense matrix and caches the
per-row sorted view, totals and non-zero counts, so that several metrics
evaluated over the same sweep share a single sort per window.
:func:`compute_batch` dispatches to a vectorized kernel when one is
registered for the metric (see :mod:`repro.metrics.batch`) and falls back
to a per-row loop over ``metric.compute`` otherwise, so user-defined
metrics keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.errors import MetricError


@runtime_checkable
class Metric(Protocol):
    """The interface the measurement engine expects."""

    name: str

    def compute(self, values: np.ndarray) -> float:
        """Reduce a per-entity credit distribution to a scalar."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class FunctionMetric:
    """Adapts a plain function to the :class:`Metric` protocol."""

    name: str
    fn: Callable[[np.ndarray], float]

    def compute(self, values: np.ndarray) -> float:
        """Apply the wrapped function to the distribution."""
        return self.fn(values)


def validate_distribution(values: np.ndarray | list[float]) -> np.ndarray:
    """Validate and canonicalize a credit distribution.

    Requires a non-empty 1-D array of finite, non-negative values with a
    positive sum; zero entries are dropped (an entity with zero credits in
    the window is simply absent from it).
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise MetricError(f"distribution must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise MetricError("distribution must not be empty")
    if not np.all(np.isfinite(array)):
        raise MetricError("distribution contains non-finite values")
    if np.any(array < 0):
        raise MetricError("distribution contains negative values")
    array = array[array > 0]
    if array.size == 0:
        raise MetricError("distribution sums to zero")
    return array


_REGISTRY: dict[str, Metric] = {}


def register_metric(metric: Metric, overwrite: bool = False) -> None:
    """Add ``metric`` to the global registry under ``metric.name``."""
    if not metric.name:
        raise MetricError("metric name must be non-empty")
    if metric.name in _REGISTRY and not overwrite:
        raise MetricError(f"metric {metric.name!r} is already registered")
    _REGISTRY[metric.name] = metric


def get_metric(name: str) -> Metric:
    """Look a metric up by name; raise :class:`MetricError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise MetricError(f"unknown metric {name!r}; available: {known}") from None


def available_metrics() -> tuple[str, ...]:
    """Sorted names of all registered metrics."""
    return tuple(sorted(_REGISTRY))


# -- batch evaluation ------------------------------------------------------------


class DistributionBatch:
    """Many window distributions as one dense matrix with shared state.

    Row ``i`` is window ``i``'s per-entity credit totals; zero entries mean
    the entity is absent from that window (metrics ignore them, mirroring
    :func:`validate_distribution` dropping zeros).  The ascending sort, the
    row totals and the non-zero counts are computed once and cached, so
    every metric evaluated over the batch shares one sort per window.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MetricError(f"batch matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size and not np.all(np.isfinite(matrix)):
            raise MetricError("batch contains non-finite values")
        if matrix.size and np.any(matrix < 0):
            raise MetricError("batch contains negative values")
        self.matrix = matrix
        self._sorted: np.ndarray | None = None
        self._totals: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    @classmethod
    def from_distributions(
        cls, distributions: Iterable[np.ndarray | list[float]]
    ) -> "DistributionBatch":
        """Stack ragged 1-D distributions into a zero-padded batch."""
        rows = [np.asarray(d, dtype=np.float64).ravel() for d in distributions]
        width = max((r.shape[0] for r in rows), default=0)
        matrix = np.zeros((len(rows), width), dtype=np.float64)
        for i, row in enumerate(rows):
            matrix[i, : row.shape[0]] = row
        return cls(matrix)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "DistributionBatch":
        """Build a batch from dense per-entity rows, compacting the zeros.

        Sliding-window histograms are dense over the whole entity space but
        each window touches only a fraction of it; packing the non-zero
        values left (preserving their entity order) shrinks every kernel's
        working set by the sparsity factor.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise MetricError(f"batch matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size and np.any(matrix < 0):
            raise MetricError("batch contains negative values")
        mask = matrix > 0
        counts = mask.sum(axis=1)
        width = int(counts.max()) if counts.size else 0
        if width * 2 >= matrix.shape[1]:
            return cls(matrix)
        row_index, _ = np.nonzero(mask)
        values = matrix[mask]
        starts = np.cumsum(counts) - counts
        position = np.arange(values.size) - np.repeat(starts, counts)
        packed = np.zeros((matrix.shape[0], width), dtype=np.float64)
        packed[row_index, position] = values
        return cls(packed)

    @property
    def n_windows(self) -> int:
        """Number of rows (windows) in the batch."""
        return int(self.matrix.shape[0])

    def __len__(self) -> int:
        return self.n_windows

    @property
    def sorted_ascending(self) -> np.ndarray:
        """Rows sorted ascending (zeros first); computed once, then cached."""
        if self._sorted is None:
            self._sorted = np.sort(self.matrix, axis=1)
        return self._sorted

    @property
    def totals(self) -> np.ndarray:
        """Per-row sums."""
        if self._totals is None:
            self._totals = self.matrix.sum(axis=1)
        return self._totals

    @property
    def counts(self) -> np.ndarray:
        """Per-row count of non-zero (present) entities."""
        if self._counts is None:
            self._counts = np.count_nonzero(self.matrix, axis=1)
        return self._counts

    def row_values(self, i: int) -> np.ndarray:
        """Row ``i``'s non-zero values (a plain 1-D distribution)."""
        row = self.matrix[i]
        return row[row > 0]

    def validate(self) -> None:
        """Raise :class:`MetricError` if any row is an empty distribution."""
        if self.n_windows and not np.all(self.totals > 0):
            empty = int(np.flatnonzero(~(self.totals > 0))[0])
            raise MetricError(f"batch row {empty} sums to zero")


#: Vectorized kernels keyed by metric name.
_BATCH_KERNELS: dict[str, Callable[[DistributionBatch], np.ndarray]] = {}


def register_batch_kernel(
    name: str,
    kernel: Callable[[DistributionBatch], np.ndarray],
    overwrite: bool = False,
) -> None:
    """Register a vectorized ``kernel`` for the metric called ``name``.

    A kernel maps a :class:`DistributionBatch` to one value per row and
    must agree with the scalar metric's ``compute`` on every row.
    """
    if not name:
        raise MetricError("batch kernel name must be non-empty")
    if name in _BATCH_KERNELS and not overwrite:
        raise MetricError(f"batch kernel {name!r} is already registered")
    _BATCH_KERNELS[name] = kernel


def has_batch_kernel(name: str) -> bool:
    """True if a vectorized kernel is registered for ``name``."""
    return name in _BATCH_KERNELS


def compute_batch(
    metric: str | Metric,
    distributions: DistributionBatch | np.ndarray | Iterable[np.ndarray],
) -> np.ndarray:
    """Evaluate ``metric`` over many distributions at once.

    ``distributions`` may be a :class:`DistributionBatch`, a dense 2-D
    matrix (zeros = absent entities), or an iterable of ragged 1-D
    distributions.  Uses the metric's vectorized kernel when registered;
    otherwise falls back to looping ``metric.compute`` over the rows.
    Every row must be a valid (non-empty) distribution.
    """
    resolved = get_metric(metric) if isinstance(metric, str) else metric
    if isinstance(distributions, DistributionBatch):
        batch = distributions
    elif isinstance(distributions, np.ndarray) and distributions.ndim == 2:
        batch = DistributionBatch(distributions)
    else:
        batch = DistributionBatch.from_distributions(distributions)
    if batch.n_windows == 0:
        return np.zeros(0, dtype=np.float64)
    batch.validate()
    kernel = _BATCH_KERNELS.get(resolved.name)
    if kernel is not None:
        return np.asarray(kernel(batch), dtype=np.float64)
    return np.asarray(
        [float(resolved.compute(batch.row_values(i))) for i in range(batch.n_windows)],
        dtype=np.float64,
    )
