"""In-engine resource guards: deadlines, RSS ceilings, degrade-to-status.

The guard rides the timeline-sampling cadence inside the worklist loop, so
these tests shrink the check interval via ``REPRO_GUARD_STEPS`` — the
catalogue's fast-geometry scenarios finish in a few hundred steps, far
below the production 50k-step cadence.
"""

import pytest

from repro.analysis.config import (
    AnalysisConfig,
    AnalysisError,
    ResourceLimitError,
)
from repro.analysis.engine import GUARD_STEPS_ENV
from repro.casestudy.scenarios import sqm_scenario
from repro.sweep.runner import (
    DEADLINE_ENV,
    MAX_RSS_ENV,
    _guarded_config,
    execute_scenario,
    execute_scenario_safe,
)


@pytest.fixture
def tight_guard(monkeypatch):
    monkeypatch.setenv(GUARD_STEPS_ENV, "10")


class TestConfigValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(deadline_s=-1.0)

    def test_nonpositive_rss_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(max_rss_bytes=0)

    def test_unset_limits_are_the_default(self):
        config = AnalysisConfig()
        assert config.deadline_s is None and config.max_rss_bytes is None


class TestDeadlineGuard:
    def test_breach_degrades_to_timeout_status(self, monkeypatch, tight_guard):
        monkeypatch.setenv(DEADLINE_ENV, "0.000001")
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        assert result.status == "timeout"
        assert not result.ok
        error = result.metrics["error"]
        assert error["type"] == "ResourceLimitError"
        assert "deadline" in error["message"]
        assert error["traceback"]

    def test_unsafe_path_raises_with_reason(self, monkeypatch, tight_guard):
        monkeypatch.setenv(DEADLINE_ENV, "0.000001")
        with pytest.raises(ResourceLimitError) as caught:
            execute_scenario(sqm_scenario(opt_level=2, line_bytes=64))
        assert caught.value.reason == "timeout"

    def test_generous_deadline_stays_ok(self, monkeypatch, tight_guard):
        monkeypatch.setenv(DEADLINE_ENV, "3600")
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        assert result.ok and result.rows

    def test_malformed_deadline_is_ignored(self, monkeypatch, tight_guard):
        monkeypatch.setenv(DEADLINE_ENV, "soon")
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        assert result.ok


@pytest.mark.parametrize("name, raw", [
    (DEADLINE_ENV, "-1"), (DEADLINE_ENV, "nan"), (DEADLINE_ENV, "inf"),
    (MAX_RSS_ENV, "0"), (MAX_RSS_ENV, "-5"), (MAX_RSS_ENV, "inf"),
])
def test_out_of_range_guard_env_is_ignored(monkeypatch, name, raw):
    """A guard value out of range is malformed: the config keeps no limit
    instead of failing every scenario (or, for NaN, arming nothing)."""
    monkeypatch.delenv(DEADLINE_ENV, raising=False)
    monkeypatch.delenv(MAX_RSS_ENV, raising=False)
    monkeypatch.setenv(name, raw)
    config = _guarded_config(AnalysisConfig())
    assert config.deadline_s is None and config.max_rss_bytes is None


class TestRssGuard:
    def test_breach_degrades_to_oom_status(self, monkeypatch, tight_guard):
        monkeypatch.setenv(MAX_RSS_ENV, "1")  # 1 MiB: any interpreter breaches
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        assert result.status == "oom"
        assert result.metrics["error"]["type"] == "ResourceLimitError"

    def test_generous_ceiling_stays_ok(self, monkeypatch, tight_guard):
        monkeypatch.setenv(MAX_RSS_ENV, "65536")
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        assert result.ok


class TestFailureHygiene:
    """Failed results are reported, never cached or stored."""

    def test_failed_result_keeps_scenario_identity(self, monkeypatch,
                                                   tight_guard):
        scenario = sqm_scenario(opt_level=2, line_bytes=64)
        monkeypatch.setenv(DEADLINE_ENV, "0.000001")
        result = execute_scenario_safe(scenario)
        assert result.scenario == scenario.name
        assert result.fingerprint == scenario.fingerprint()

    def test_store_refuses_non_ok_results(self, tmp_path, monkeypatch,
                                          tight_guard):
        from repro.sweep.results import ResultStore
        monkeypatch.setenv(DEADLINE_ENV, "0.000001")
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        store = ResultStore(tmp_path / "store.json")
        with pytest.raises(ValueError, match="non-ok"):
            store.put(result)

    def test_store_load_drops_non_ok_payloads(self, tmp_path):
        import json
        from repro.sweep.results import METRICS_SCHEMA, ResultStore
        path = tmp_path / "store.json"
        path.write_text(json.dumps({
            "version": 1,
            "results": {"feedface00000000": {
                "scenario": "x", "fingerprint": "feedface00000000",
                "kind": "leakage", "metrics_schema": METRICS_SCHEMA,
                "status": "error", "metrics": {}, "rows": [],
            }},
        }))
        assert len(ResultStore(path)) == 0

    def test_runner_retries_failures_next_run(self, tmp_path, monkeypatch,
                                              tight_guard):
        """A failure is not cached: clearing the guard heals the next run."""
        from repro.sweep import SweepRunner
        scenario = sqm_scenario(opt_level=2, line_bytes=64)
        runner = SweepRunner(store=tmp_path / "store.json")
        monkeypatch.setenv(DEADLINE_ENV, "0.000001")
        first = runner.run_one(scenario)
        assert first.status == "timeout"
        assert scenario.fingerprint() not in runner.store
        monkeypatch.delenv(DEADLINE_ENV)
        second = runner.run_one(scenario)
        assert second.ok and not second.cached
        assert scenario.fingerprint() in runner.store

    def test_status_ok_omitted_from_payload(self):
        result = execute_scenario_safe(sqm_scenario(opt_level=2, line_bytes=64))
        assert result.ok
        assert "status" not in result.to_payload()
