"""The ``python -m repro`` CLI: listing, policy-grid sweeps, bench log."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_policy_grid(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure7a" in out
        assert "lookup-O2-64B-plru" in out
        assert "kernel-scatter_102f-32B-fifo" in out
        assert "lookup-O2-64B-hardened" in out

    def test_filter_narrows_the_listing(self, capsys):
        assert main(["list", "--filter", "hardened"]) == 0
        out = capsys.readouterr().out
        assert "lookup-O2-64B-hardened" in out
        assert "figure7a" not in out
        assert "kernel-scatter_102f" not in out

    def test_filter_without_match_fails(self, capsys):
        assert main(["list", "--filter", "zzz-not-there"]) == 2

    def test_policies_flag_lists_the_policy_axis(self, capsys):
        assert main(["list", "--policies", "--filter", "figure7a"]) == 0
        out = capsys.readouterr().out
        assert "lru" in out and "fifo" in out and "plru" in out

    def test_lists_the_aes_grid(self, capsys):
        assert main(["list", "--filter", "aes"]) == 0
        out = capsys.readouterr().out
        assert "aes-O2-64B" in out
        assert "aes-O2-64B-preload-aligned" in out
        assert "aes-timing-2KB-cold" in out


class TestTransform:
    def test_balance_sqm_with_validation(self, capsys):
        code = main(["transform", "sqm-O2-64B",
                     "--passes", "balance-branches", "--validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "leakage ordering holds" in out
        assert "semantic equivalence: OK" in out

    def test_transformed_scenario_sweep_renders_transforms(self, capsys):
        code = main(["sweep", "--entry-bytes", "16", "naive-16B-sg"])
        assert code == 0
        out = capsys.readouterr().out
        assert "transforms=scatter-gather" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["transform", "no-such", "--passes",
                     "balance-branches"]) == 2

    def test_unknown_pass_rejected(self, capsys):
        assert main(["transform", "sqm-O2-64B", "--passes", "nope"]) == 2

    def test_inapplicable_pass_fails_cleanly(self, capsys):
        """A pass that finds nothing to harden is a diagnostic, not a crash."""
        code = main(["transform", "naive-32B", "--passes", "balance-branches"])
        assert code == 2
        assert "no secret-dependent branch" in capsys.readouterr().err

    def test_already_transformed_rejected(self, capsys):
        assert main(["transform", "lookup-O2-64B-hardened",
                     "--passes", "preload"]) == 2


class TestSweep:
    def test_policy_grid_sweep_renders_adversaries(self, capsys):
        code = main(["sweep", "--entry-bytes", "16",
                     "kernel-scatter_102f-16B", "kernel-scatter_102f-16B-fifo",
                     "kernel-scatter_102f-16B-plru", "gather-16B-plru"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel-scatter_102f-16B-plru" in out
        assert "Adversary" in out and "trace" in out and "time" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["sweep", "no-such-scenario"]) == 2

    def test_bench_out_appends_timings(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(
            {"version": 1, "timings": {"existing/key": 1.5}}))
        code = main(["sweep", "--entry-bytes", "16", "--no-cache",
                     "kernel-scatter_102f-16B-plru",
                     "--bench-out", str(bench)])
        assert code == 0
        payload = json.loads(bench.read_text())
        assert payload["timings"]["existing/key"] == 1.5
        assert "cli/sweep/kernel-scatter_102f-16B-plru" in payload["timings"]

    def test_bench_out_survives_corrupt_log(self, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text("{corrupt")
        code = main(["sweep", "--entry-bytes", "16", "--no-cache",
                     "kernel-scatter_102f-16B", "--bench-out", str(bench)])
        assert code == 0
        payload = json.loads(bench.read_text())
        assert "cli/sweep/kernel-scatter_102f-16B" in payload["timings"]

    def test_run_is_an_alias_for_sweep(self, capsys):
        code = main(["run", "aes-timing-2KB"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aes-timing-2KB [kernel]" in out
        assert "timing_classes=1" in out

    def test_aes_transform_cli(self, capsys):
        code = main(["transform", "aes-O2-64B", "--passes",
                     "preload,align-tables"])
        assert code == 0
        assert "leakage ordering holds" in capsys.readouterr().out

    def test_profile_dumps_cprofile_stats(self, tmp_path, capsys):
        profile_path = tmp_path / "sweep.prof"
        code = main(["sweep", "--entry-bytes", "16", "--no-cache",
                     "figure7a", "--profile", str(profile_path)])
        assert code == 0
        assert "profile written to" in capsys.readouterr().out
        import pstats
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0


class TestBenchCompare:
    @staticmethod
    def _log(path, timings):
        path.write_text(json.dumps({"version": 1, "timings": timings}))

    def test_no_regression_passes(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "now.json"
        self._log(baseline, {"slow": 2.0, "fast": 0.01, "only_base": 1.0})
        self._log(current, {"slow": 2.5, "fast": 0.05, "only_now": 1.0})
        code = main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(current)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out
        assert "present in only one log" in out

    def test_slow_entry_regression_fails(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "now.json"
        self._log(baseline, {"slow": 2.0})
        self._log(current, {"slow": 5.0})
        code = main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(current)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_fast_entries_never_gate(self, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "now.json"
        self._log(baseline, {"fast": 0.01})
        self._log(current, {"fast": 0.49})  # 49x but under --min-seconds
        assert main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(current)]) == 0

    def test_ratio_and_threshold_flags(self, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "now.json"
        self._log(baseline, {"slow": 1.0})
        self._log(current, {"slow": 2.5})
        assert main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(current), "--max-ratio", "3.0"]) == 0
        assert main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(current), "--min-seconds", "1.5"]) == 0
        assert main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(current)]) == 1

    def test_missing_or_corrupt_logs_are_usage_errors(self, tmp_path):
        baseline = tmp_path / "base.json"
        self._log(baseline, {"slow": 1.0})
        assert main(["bench-compare", "--baseline", str(baseline),
                     "--current", str(tmp_path / "missing.json")]) == 2
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{nope")
        assert main(["bench-compare", "--baseline", str(corrupt),
                     "--current", str(baseline)]) == 2

    def test_gates_the_committed_baseline_against_itself(self, capsys):
        """The shipped BENCH_sweep.json trivially passes against itself —
        the shape CI relies on."""
        assert main(["bench-compare", "--baseline", "BENCH_sweep.json",
                     "--current", "BENCH_sweep.json"]) == 0
        assert "no regressions" in capsys.readouterr().out


class TestSweepTrace:
    """`sweep --trace`: Perfetto-loadable Chrome trace export."""

    @pytest.fixture(autouse=True)
    def _tracer_off(self, monkeypatch):
        from repro.obs import trace
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        trace.stop()
        yield
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        trace.stop()

    def test_fig14b_trace_is_schema_valid_and_multi_process(
            self, tmp_path, capsys):
        """The acceptance shape: a figure14b sweep exports a trace with
        engine-phase and per-scenario spans from at least two pids."""
        trace_path = tmp_path / "fig14b.json"
        code = main(["sweep", "--select", "figure14b", "--no-cache",
                     "--trace", str(trace_path)])
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())

        # Chrome trace_event JSON object format, Perfetto-loadable.
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["ph"] in {"X", "C", "i", "M"}
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
        spans = [event for event in events if event["ph"] == "X"]
        assert len({event["pid"] for event in spans}) >= 2
        names = {event["name"] for event in spans}
        assert {"sweep.batch", "engine.run", "engine.explore"} <= names
        assert any(name.startswith("scenario.") for name in names)
        metadata = [event for event in events if event["ph"] == "M"]
        assert {"repro", "repro worker"} <= {
            event["args"]["name"] for event in metadata}

    def test_explicit_jobs_is_respected(self, tmp_path, capsys):
        trace_path = tmp_path / "inline.json"
        code = main(["sweep", "sqm-O2-64B", "--no-cache", "--jobs", "1",
                     "--trace", str(trace_path)])
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert any(event["ph"] == "X" for event in payload["traceEvents"])

    def test_select_without_match_fails(self, capsys):
        assert main(["sweep", "--select", "zzz-not-there"]) == 2

    def test_select_runs_matching_scenarios(self, capsys):
        code = main(["sweep", "--select", "kernel-scatter_102f-16B",
                     "--entry-bytes", "16"])
        assert code == 0
        assert "kernel-scatter_102f-16B" in capsys.readouterr().out

    def test_parallel_profile_merges_worker_stats(self, tmp_path, capsys):
        profile_path = tmp_path / "sweep.prof"
        code = main(["sweep", "--entry-bytes", "16", "--no-cache",
                     "--jobs", "2", "gather-16B", "gather-16B-plru",
                     "--profile", str(profile_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "merged 2 worker profiles" in out
        import pstats
        stats = pstats.Stats(str(profile_path))
        # The analysis ran inside the workers; the merged profile must
        # contain analyzer frames, which the parent alone never executes.
        assert any("execute_scenario" in func[2] for func in stats.stats)


class TestStats:
    """`python -m repro stats`: trace summaries, counter diffs, BENCH diffs."""

    def test_requires_a_mode(self, capsys):
        assert main(["stats"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_against_requires_store(self, capsys):
        assert main(["stats", "--against", "x.json"]) == 2

    def test_baseline_and_current_go_together(self, capsys):
        assert main(["stats", "--baseline", "x.json"]) == 2

    def test_trace_summary(self, tmp_path, capsys, monkeypatch):
        from repro.obs import trace
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        trace.stop()
        trace.start()
        with trace.span("engine.run"):
            with trace.span("engine.explore"):
                pass
        trace.counter("timeline.x", {"heap": 1})
        trace_path = tmp_path / "trace.json"
        trace.write(trace_path)
        trace.stop()
        assert main(["stats", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans" in out and "1 counter samples" in out
        assert "engine.run" in out and "engine.explore" in out

    def test_trace_summary_rejects_empty_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "empty.json"
        trace_path.write_text('{"traceEvents": []}')
        assert main(["stats", "--trace", str(trace_path)]) == 2

    def test_store_table_and_self_diff(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["sweep", "sqm-O2-64B", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "sqm-O2-64B" in out and "steps" in out
        assert main(["stats", "--store", str(store),
                     "--against", str(store)]) == 0
        assert "counters identical" in capsys.readouterr().out

    def test_store_diff_reports_changed_counters(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["sweep", "sqm-O2-64B", "--store", str(store)]) == 0
        changed = tmp_path / "changed.json"
        data = json.loads(store.read_text())
        for payload in data["results"].values():
            payload["metrics"]["steps"] += 7
        changed.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["stats", "--store", str(changed),
                     "--against", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 counter difference(s)" in out and "steps" in out

    def test_bench_diff_flags_memory_regressions(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        current = tmp_path / "now.json"
        baseline.write_text(json.dumps({"version": 1, "timings": {
            "cli/sweep/x": 1.0, "cli/rss_mb/x": 100.0}}))
        current.write_text(json.dumps({"version": 1, "timings": {
            "cli/sweep/x": 1.1, "cli/rss_mb/x": 180.0}}))
        assert main(["stats", "--baseline", str(baseline),
                     "--current", str(current)]) == 0
        out = capsys.readouterr().out
        assert "timings (seconds)" in out
        assert "peak RSS (MB)" in out
        assert "memory regression" in out
        assert "timing regression" not in out

    def test_bench_diff_missing_log_is_usage_error(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"version": 1, "timings": {"a": 1.0}}))
        assert main(["stats", "--baseline", str(log),
                     "--current", str(tmp_path / "missing.json")]) == 2


class TestSweepRobustness:
    def test_resume_without_store_is_a_usage_error(self, capsys):
        assert main(["sweep", "sqm-O2-64B", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_resume_with_no_cache_is_a_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "sqm-O2-64B", "--resume", "--no-cache",
                     "--store", str(tmp_path / "s.json")]) == 2
        assert "contradict" in capsys.readouterr().err

    def test_resume_reports_finished_scenarios(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        assert main(["sweep", "sqm-O2-64B", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["sweep", "sqm-O2-64B", "lookup-O2-64B",
                     "--resume", "--store", str(store)]) == 0
        assert "resuming from" in capsys.readouterr().out

    def test_degraded_sweep_exits_3_and_lists_failures(
            self, monkeypatch, tmp_path, capsys):
        # ``--timeout`` plants DEADLINE_ENV in os.environ for pool workers
        # to inherit; monkeypatch only rolls back its own writes, so seed
        # the key through it to get teardown back to the original state.
        from repro.analysis.engine import GUARD_STEPS_ENV
        from repro.sweep.runner import DEADLINE_ENV
        monkeypatch.setenv(GUARD_STEPS_ENV, "10")
        monkeypatch.setenv(DEADLINE_ENV, "placeholder")
        assert main(["sweep", "sqm-O2-64B", "--jobs", "1",
                     "--timeout", "0.000001",
                     "--store", str(tmp_path / "s.json")]) == 3
        captured = capsys.readouterr()
        assert "FAILED [timeout]" in captured.out
        assert "1 scenario(s) failed" in captured.err
        # A failed scenario never reaches the store.
        assert json.loads(
            (tmp_path / "s.json").read_text())["results"] == {}

    def test_timeout_flag_plants_the_worker_deadline_env(self, monkeypatch):
        import os as _os
        from repro.sweep.runner import DEADLINE_ENV
        monkeypatch.setenv(DEADLINE_ENV, "placeholder")
        main(["sweep", "sqm-O2-64B", "--jobs", "1", "--timeout", "60"])
        assert _os.environ.get(DEADLINE_ENV) == "60.0"


_NUMPY_PROBE = """
import sys
import repro.__main__
from repro.casestudy.scenarios import all_scenarios
from repro.sweep.runner import execute_scenario
result = execute_scenario(all_scenarios()["aes-O2-64B"])
print(result.ok, sorted(name for name in sys.modules
                        if name.split(".")[0] == "numpy"))
"""


def test_cli_and_an_analysis_never_load_numpy():
    """The analysis is pure standard-library Python: neither importing the
    CLI nor running a leakage analysis may pull numpy into the process."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "[]"], proc.stdout
