"""Run the library's doctests (API examples in docstrings must stay true)."""

import doctest

import pytest

import repro.chain.tags
import repro.core.streaming
import repro.metrics.entropy
import repro.obs.alerts
import repro.obs.metrics
import repro.obs.prometheus
import repro.obs.slo
import repro.obs.timeseries
import repro.obs.top
import repro.metrics.gini
import repro.metrics.hhi
import repro.metrics.nakamoto
import repro.metrics.theil
import repro.metrics.topk
import repro.serve.http
import repro.serve.loadgen
import repro.serve.overload
import repro.sql.executor
import repro.viz.tables
import repro.windows.sliding

MODULES = [
    repro.chain.tags,
    repro.core.streaming,
    repro.metrics.entropy,
    repro.obs.alerts,
    repro.obs.metrics,
    repro.obs.prometheus,
    repro.obs.slo,
    repro.obs.timeseries,
    repro.obs.top,
    repro.metrics.gini,
    repro.metrics.hhi,
    repro.metrics.nakamoto,
    repro.metrics.theil,
    repro.metrics.topk,
    repro.serve.http,
    repro.serve.loadgen,
    repro.serve.overload,
    repro.sql.executor,
    repro.viz.tables,
    repro.windows.sliding,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
