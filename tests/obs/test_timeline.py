"""Timeline sampling, RSS/GC probes, and the engine's sampling cadence."""

import gc

import pytest

from repro.obs import timeline, trace


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(trace.TRACE_ENV, raising=False)
    trace.stop()
    timeline.end()
    yield
    trace.stop()
    timeline.end()


class TestProbes:
    def test_peak_rss_is_positive_on_posix(self):
        assert timeline.peak_rss_bytes() > 1_000_000  # a Python process

    def test_gc_pauses_total_collector_time(self):
        gc_was_enabled = gc.isenabled()
        gc.enable()
        try:
            with timeline.GCPauses() as pauses:
                for _ in range(3):
                    gc.collect()
            assert pauses.collections >= 3
            assert pauses.total_s >= 0.0
        finally:
            if not gc_was_enabled:
                gc.disable()

    def test_gc_callback_removed_on_exit(self):
        with timeline.GCPauses() as pauses:
            assert pauses._callback in gc.callbacks
        assert pauses._callback not in gc.callbacks


class TestSampler:
    def test_begin_installs_nothing_when_tracing_is_off(self):
        assert timeline.begin("label") is None
        assert timeline.active() is None
        assert timeline.end() == []

    def test_begin_installs_when_tracing_is_on(self):
        trace.start()
        sampler = timeline.begin("label")
        assert sampler is not None and timeline.active() is sampler
        assert sampler.next_due == 0  # first sample fires immediately

    def test_sample_fields_and_cadence(self):
        trace.start()
        sampler = timeline.begin("label")
        sampler.sample(steps=0, heap=4, pending=2)
        sampler.sample(steps=sampler.interval, heap=1, pending=0)
        assert len(sampler.samples) == 2
        first = sampler.samples[0]
        assert first["steps"] == 0 and first["heap"] == 4
        for key in ("elapsed_s", "steps_per_s", "pending", "vs_interned",
                    "sym_interned", "rss_bytes"):
            assert key in first
        assert sampler.next_due == 2 * sampler.interval
        # Samples mirror into the trace as Chrome counter events.
        counters = [e for e in trace.drain() if e["ph"] == "C"]
        assert len(counters) == 2
        assert counters[0]["name"] == "timeline.label"

    def test_end_pops_the_sampler(self):
        trace.start()
        sampler = timeline.begin("label")
        sampler.sample(steps=0, heap=0, pending=0)
        samples = timeline.end()
        assert len(samples) == 1
        assert timeline.active() is None


class TestEngineIntegration:
    def test_traced_run_attaches_timeline_samples(self, monkeypatch):
        """A traced scenario run samples at step 0 and at run end (at
        least), on the deterministic step-count cadence."""
        from repro.casestudy.scenarios import sqm_scenario
        from repro.sweep.runner import execute_scenario

        monkeypatch.setattr(timeline, "DEFAULT_INTERVAL_STEPS", 50)
        trace.start()
        result = execute_scenario(sqm_scenario(opt_level=2, line_bytes=64))
        trace.drain()
        assert len(result.timeline) >= 2
        steps = [sample["steps"] for sample in result.timeline]
        assert steps == sorted(steps)
        assert steps[0] == 0
        assert steps[-1] == result.metrics["steps"]
