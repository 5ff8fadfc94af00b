"""Acceptance tests for distributed tracing across the worker pool.

A ``workers=2`` study with tracing (and profiling) enabled fans its two
chains out as two pool tasks.  It must produce ONE merged trace on the
coordinator where each chain's ``worker.shard`` span carries its own
worker pid and parents — transitively — under the coordinator's
``study.chains`` fan-out span; the written file must pass ``repro trace
--validate``'s checker; and the results must stay **byte-identical** to
the untraced serial run, because observability is never allowed to
change an answer.
"""

import os

import pytest

from repro import obs
from repro.analysis.study import DecentralizationStudy
from repro.obs import profile as profile_mod
from repro.obs.export import load_trace_file, validate_trace_file, write_trace

from tests.conftest import assert_chain_studies_identical


@pytest.fixture(scope="module")
def traced(short_chains, tmp_path_factory):
    """One traced, profiled ``workers=2`` study: its spans, results and file."""
    obs.enable_tracing()
    profile_mod.enable_profiling()
    try:
        study = DecentralizationStudy(**short_chains, workers=2)
        with obs.span("test.study"):
            halves = study.chain_results()
        tracer = obs.get_tracer()
        spans = list(tracer.spans)
        path = tmp_path_factory.mktemp("trace") / "study.jsonl"
        write_trace(tracer, path)
    finally:
        profile_mod.disable_profiling()
        obs.disable_tracing()
        obs.get_tracer().reset()
    return spans, halves, path


def _ancestry(span, by_id):
    names = []
    parent = span.parent_id
    while parent is not None:
        record = by_id[parent]
        names.append(record.name)
        parent = record.parent_id
    return names


class TestDistributedSweepTrace:
    def test_worker_spans_merge_under_sweep_with_pids(self, traced):
        spans, _, _ = traced
        by_id = {s.span_id: s for s in spans}
        fan_out = next(s for s in spans if s.name == "study.chains")
        assert fan_out.attrs["mode"] == "fan-out"
        assert fan_out.attrs["workers"] == 2
        # Spans recorded by the coordinator itself have no pid override.
        assert fan_out.pid is None
        worker_spans = [s for s in spans if s.name == "worker.shard"]
        assert len(worker_spans) == 2, "one task per chain"
        assert len({s.pid for s in worker_spans}) == 2
        for span in worker_spans:
            # Every worker span carries its (non-coordinator) worker pid...
            assert span.pid is not None
            assert span.pid != os.getpid()
            # ...and parents under the fan-out span via the gather span.
            assert _ancestry(span, by_id)[:2] == ["parallel.shard", "study.chains"]
            # Profiling context propagated: the worker sampled resources.
            assert "cpu" in span.attrs
            assert span.attrs["rss_kb"] > 0
        # Both chains' work was adopted: each worker's attribution span
        # names its chain.
        attributed = {
            s.attrs["chain"]: s.pid for s in spans if s.name == "attribution.attribute"
        }
        assert set(attributed) == {"bitcoin", "ethereum"}
        assert set(attributed.values()) == {s.pid for s in worker_spans}

    def test_written_trace_validates_and_keeps_linkage(self, traced):
        spans_in_memory, _, path = traced
        report = validate_trace_file(path)
        assert report["n_spans"] >= len(spans_in_memory)
        spans, _ = load_trace_file(path)
        by_id = {s.span_id: s for s in spans}
        worker_spans = [s for s in spans if s.name == "worker.shard"]
        assert len(worker_spans) == 2, "worker spans must survive the round trip"
        pids = {s.pid for s in worker_spans}
        assert None not in pids and os.getpid() not in pids
        for span in worker_spans:
            assert "study.chains" in _ancestry(span, by_id)

    def test_worker_timing_rebased_inside_sweep(self, traced):
        # Workers run concurrently with the coordinator's gather loop, so
        # a worker span may START before its per-shard gather span opens —
        # but epoch rebasing must land every worker span inside the
        # fan-out span's window (generous slack for clock granularity).
        spans, _, _ = traced
        fan_out = next(s for s in spans if s.name == "study.chains")
        for span in spans:
            if span.name != "worker.shard":
                continue
            assert span.start >= fan_out.start - 1e-3
            assert span.end <= fan_out.end + 1e-3


class TestObservabilityNeverChangesResults:
    def test_traced_profiled_parallel_sweep_is_byte_identical(self, short_chains, traced):
        _, traced_halves, _ = traced
        plain = DecentralizationStudy(**short_chains, workers=2).chain_results()
        serial = DecentralizationStudy(**short_chains, workers=1).chain_results()
        for which in ("btc", "eth"):
            for other in (plain, serial):
                assert_chain_studies_identical(traced_halves[which], other[which])


class TestContextAndAdoption:
    """Unit-level checks of the propagation/adoption plumbing itself."""

    def test_context_none_while_disabled(self):
        assert not obs.tracing_enabled()
        assert obs.get_tracer().context() is None

    def test_context_carries_trace_id_and_profile_flag(self):
        obs.enable_tracing()
        try:
            ctx = obs.get_tracer().context()
            assert ctx["trace_id"] == obs.get_tracer().trace_id
            assert ctx["profile"] is False
            profile_mod.enable_profiling()
            assert obs.get_tracer().context()["profile"] is True
        finally:
            profile_mod.disable_profiling()
            obs.disable_tracing()
            obs.get_tracer().reset()

    def test_adopt_renumbers_and_merges_metrics(self):
        from repro.obs.tracer import Tracer

        child = Tracer()
        child.enable()
        with child.span("child.outer"):
            with child.span("child.inner"):
                pass
        child.metrics.counter("child.count").inc(3)
        envelope = child.export_state()

        parent = Tracer()
        parent.enable()
        with parent.span("parent.anchor") as anchor:
            adopted = parent.adopt(envelope, parent_span=anchor.span_id)
        assert adopted == 2
        by_name = {s.name: s for s in parent.spans}
        outer, inner = by_name["child.outer"], by_name["child.inner"]
        # Internal linkage preserved; top-level reparented under anchor.
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == by_name["parent.anchor"].span_id
        assert outer.pid == child.pid
        assert parent.metrics.counter("child.count").value == 3
