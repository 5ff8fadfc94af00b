"""The measurement engine — the paper's methodology as a library.

:class:`MeasurementEngine` combines a chain (through an attribution
policy), a metric and a window family into a :class:`MeasurementSeries`;
:mod:`repro.core.anomaly` finds the "special or abnormal values" the paper
is concerned with; :mod:`repro.core.comparison` expresses the paper's
comparative claims (level vs stability, fixed vs sliding) as testable
functions.
"""

from repro.core.anomaly import AnomalyReport, iqr_anomalies, rolling_mad_anomalies, zscore_anomalies
from repro.core.changepoint import ChangePoint, ChangePointReport, cusum_changepoints
from repro.core.comparison import (
    compare_level,
    compare_stability,
    fixed_vs_sliding_gain,
    granularity_ordering,
)
from repro.core.engine import MeasurementEngine
from repro.core.rolling import RollingHistogram
from repro.core.series import MeasurementSeries
from repro.core.streaming import StreamingMonitor
from repro.core.summary import SeriesSummary, summarize
from repro.core.trend import detrend, linear_trend, rolling_mean, rolling_std

__all__ = [
    "AnomalyReport",
    "ChangePoint",
    "StreamingMonitor",
    "ChangePointReport",
    "MeasurementEngine",
    "RollingHistogram",
    "cusum_changepoints",
    "detrend",
    "linear_trend",
    "rolling_mean",
    "rolling_std",
    "MeasurementSeries",
    "SeriesSummary",
    "compare_level",
    "compare_stability",
    "fixed_vs_sliding_gain",
    "granularity_ordering",
    "iqr_anomalies",
    "rolling_mad_anomalies",
    "summarize",
    "zscore_anomalies",
]
