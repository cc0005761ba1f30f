"""The ``python -m repro`` CLI: listing, policy-grid sweeps, flag checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

_TWO_SCENARIOS = ["sweep", "sqm-O2-64B", "lookup-O2-64B"]


def _usage_error_id(argv: list[str]) -> str:
    """``--flag=value`` for the two-scenario sweep cases, else all of argv."""
    if argv[:3] == _TWO_SCENARIOS:
        argv = argv[3:]
    return "=".join(argv)


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


class TestFigure:
    def test_failed_scenario_is_reported_not_raised(self, monkeypatch,
                                                     capsys):
        """A figure whose scenario times out prints one FAILED line, the
        remaining figures still run, and the exit code is 3."""
        from repro.analysis.engine import GUARD_STEPS_ENV
        from repro.sweep import runner
        from repro.sweep.runner import DEADLINE_ENV
        monkeypatch.setattr(runner, "_DEFAULT_RUNNER", None)  # cold cache
        monkeypatch.setenv(GUARD_STEPS_ENV, "5")
        monkeypatch.setenv(DEADLINE_ENV, "0.000001")
        assert main(["figure", "figure14a", "figure7a"]) == 3
        out = capsys.readouterr().out
        assert "figure14a: FAILED [timeout] ResourceLimitError: " in out
        assert "figure7a: FAILED [timeout]" in out


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
        out = capsys.readouterr().out
        assert "profile written to" in out
        table = out.split("self time by package", 1)[1].split("\n\n", 1)[0]
        packages = [line.split()[0] for line in table.splitlines()[1:]]
        assert "repro.core" in packages
        assert "repro.analysis" in packages
        import pstats
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0


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


class TestStats:
    """`python -m repro stats`: trace summaries and counter diffs."""

    def test_requires_a_mode(self, capsys):
        assert main(["stats"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_against_requires_store(self, capsys):
        assert main(["stats", "--against", "x.json"]) == 2

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
        from repro.analysis.engine import GUARD_STEPS_ENV
        monkeypatch.setenv(GUARD_STEPS_ENV, "10")
        assert main(["sweep", "sqm-O2-64B", "--jobs", "1",
                     "--timeout", "0.000001",
                     "--store", str(tmp_path / "s.json")]) == 3
        captured = capsys.readouterr()
        assert "FAILED [timeout]" in captured.out
        assert "1 scenario(s) failed" in captured.err
        # A failed scenario never reaches the store.
        assert json.loads(
            (tmp_path / "s.json").read_text())["results"] == {}

    @pytest.mark.parametrize("argv", [
        [*_TWO_SCENARIOS, "--timeout", "nan"],
        [*_TWO_SCENARIOS, "--timeout", "inf"],
        [*_TWO_SCENARIOS, "--timeout", "-1"],
        [*_TWO_SCENARIOS, "--timeout", "0"],
        [*_TWO_SCENARIOS, "--jobs", "0"],
        [*_TWO_SCENARIOS, "--jobs", "-2"],
        [*_TWO_SCENARIOS, "--max-retries", "-1"],
        ["figure", "figure14b", "--nlimbs", "0"],
        ["figure", "figure14b", "--nlimbs", "-1"],
        ["figure", "figure14c", "--entry-bytes", "0"],
        ["sweep", "--select", "gather", "--entry-bytes", "-4"],
        ["transform", "sqm-O2-64B", "--passes", "balance-branches",
         "--entry-bytes", "0"],
        ["stats", "--trace", "F", "--top", "-1"],
        ["stats", "--trace", "F", "--top", "0"],
        ["sweep", "sqm-O2-64B", "--profile", "OUT", "--jobs", "2"],
    ], ids=_usage_error_id)
    def test_out_of_range_flag_is_a_usage_error(self, argv, monkeypatch,
                                                tmp_path, capsys):
        from repro.sweep import Scenario

        def no_build(scenario):
            raise AssertionError(f"a usage error built {scenario.name}")

        monkeypatch.setattr(Scenario, "build_target", no_build)
        monkeypatch.chdir(tmp_path)  # where a stray --profile OUT would land
        assert main(argv) == 2
        captured = capsys.readouterr()
        flag = [word for word in argv if word.startswith("--")][-1]
        assert flag in captured.err
        assert "==" not in captured.out  # no scenario ran

    def test_timeout_reaches_pool_workers_and_is_restored(
            self, monkeypatch, tmp_path, capsys):
        """The workers inherit the deadline (both scenarios time out), and
        main() leaves the environment and the tracer as it found them."""
        from repro.analysis.engine import GUARD_STEPS_ENV
        from repro.obs import trace
        from repro.sweep.runner import DEADLINE_ENV
        monkeypatch.setenv(GUARD_STEPS_ENV, "10")
        monkeypatch.delenv(DEADLINE_ENV, raising=False)
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        monkeypatch.setattr(trace, "_TRACER", None)  # off, restored after
        assert main([*_TWO_SCENARIOS, "--jobs", "2", "--no-cache",
                     "--timeout", "0.000001",
                     "--trace", str(tmp_path / "trace.json")]) == 3
        assert capsys.readouterr().out.count("FAILED [timeout]") == 2
        assert DEADLINE_ENV not in os.environ
        assert trace.TRACE_ENV not in os.environ
        assert not trace.enabled()

    def test_interrupted_sweep_restores_the_environment(self, monkeypatch,
                                                        capsys):
        from repro.sweep import SweepRunner
        from repro.sweep.runner import DEADLINE_ENV

        def interrupted(runner, scenarios):
            raise KeyboardInterrupt

        monkeypatch.setattr(SweepRunner, "run", interrupted)
        monkeypatch.delenv(DEADLINE_ENV, raising=False)
        assert main(["sweep", "sqm-O2-64B", "--timeout", "60"]) == 130
        assert DEADLINE_ENV not in os.environ


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
