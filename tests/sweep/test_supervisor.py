"""The supervised pool: death detection, retry, quarantine, dispatch order.

Every test drives the real ``SweepRunner`` pool path with real worker
processes and the deterministic fault harness — no mocked process trees.
Scenario sets use the fast catalogue geometry (tens of milliseconds per
scenario), and crash/hang tests set ``REPRO_FAULT_DIR`` so the firing
budget survives the worker it kills.
"""

import pytest

from repro.casestudy.scenarios import (
    all_scenarios,
    gather_scenario,
    lookup_scenario,
    sqam_scenario,
    sqm_scenario,
)
from repro.sweep import SweepRunner, faults


def _batch():
    return [
        sqm_scenario(opt_level=2, line_bytes=64),
        lookup_scenario(opt_level=2, line_bytes=64),
        sqam_scenario(opt_level=2, line_bytes=64),
        gather_scenario(nbytes=16),
    ]


@pytest.fixture
def fault_dir(monkeypatch, tmp_path):
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path / "markers"))


class TestWorkerDeathRecovery:
    def test_crashed_scenario_is_retried_to_success(self, monkeypatch,
                                                    fault_dir, tmp_path):
        monkeypatch.setenv(faults.FAULT_ENV, "crash:lookup")
        runner = SweepRunner(processes=2, store=tmp_path / "store.json")
        batch = _batch()
        results = runner.run(batch)
        assert [result.scenario for result in results] == [
            scenario.name for scenario in batch]
        assert all(result.ok for result in results)
        pool = runner.last_pool
        assert pool.worker_deaths == 1
        assert pool.retries == 1
        assert pool.quarantined == 0
        # Every scenario — the once-crashed one included — reached the store.
        assert all(scenario.fingerprint() in runner.store
                   for scenario in batch)

    def test_truncated_payload_is_retried(self, monkeypatch, fault_dir):
        monkeypatch.setenv(faults.FAULT_ENV, "truncate:sqam")
        runner = SweepRunner(processes=2, use_cache=False)
        results = runner.run(_batch())
        assert all(result.ok for result in results)
        pool = runner.last_pool
        assert pool.retries == 1
        assert pool.worker_deaths == 0  # the worker itself stayed healthy

    def test_hung_worker_is_killed_and_scenario_retried(self, monkeypatch,
                                                        fault_dir):
        monkeypatch.setenv(faults.FAULT_ENV, "hang:gather")
        runner = SweepRunner(processes=2, use_cache=False, task_timeout_s=2)
        results = runner.run(_batch())
        assert all(result.ok for result in results)
        assert runner.last_pool.worker_deaths == 1

    def test_hung_scenario_holds_back_only_itself(self, monkeypatch,
                                                  fault_dir):
        """While one worker hangs, the other takes every other scenario."""
        monkeypatch.setenv(faults.FAULT_ENV, "hang:sqm-")
        runner = SweepRunner(processes=2, use_cache=False, task_timeout_s=2)
        deaths_when_landed = {}
        remember = runner._remember

        def recording_remember(result):
            deaths_when_landed[result.scenario] = runner.last_pool.worker_deaths
            remember(result)

        monkeypatch.setattr(runner, "_remember", recording_remember)
        hung, *others = _batch()
        results = runner.run([hung, *others])
        assert all(result.ok for result in results)
        # Every other scenario landed before the hung worker was killed.
        assert [deaths_when_landed[scenario.name]
                for scenario in others] == [0] * len(others)
        assert deaths_when_landed[hung.name] == 1


class TestQuarantine:
    def test_poison_scenario_is_quarantined_not_dropped(self, monkeypatch,
                                                        fault_dir, tmp_path):
        # Budget far past the retry cap: the scenario crashes every attempt.
        monkeypatch.setenv(faults.FAULT_ENV, "crash:lookup:99")
        runner = SweepRunner(processes=2, store=tmp_path / "store.json",
                             max_retries=1)
        batch = _batch()
        results = runner.run(batch)
        by_name = {result.scenario: result for result in results}
        poisoned = by_name[lookup_scenario(opt_level=2, line_bytes=64).name]
        assert poisoned.status == "error"
        assert "quarantined" in " ".join(poisoned.warnings)
        assert poisoned.metrics["error"]["attempts"] == 2  # initial + 1 retry
        # The rest of the batch is unharmed and stored; the poison is not.
        healthy = [result for result in results if result is not poisoned]
        assert all(result.ok for result in healthy)
        assert len(runner.store) == len(healthy)
        assert runner.last_pool.quarantined == 1

    def test_raise_fault_becomes_error_result_without_retry(self, monkeypatch,
                                                            fault_dir,
                                                            tmp_path):
        monkeypatch.setenv(faults.FAULT_ENV, "raise:sqm-")
        runner = SweepRunner(processes=2, store=tmp_path / "store.json")
        results = runner.run(_batch())
        failed = [result for result in results if not result.ok]
        assert len(failed) == 1
        assert failed[0].status == "error"
        assert failed[0].metrics["error"]["type"] == "InjectedFault"
        # An in-worker exception is the error *policy*, not a worker death.
        assert runner.last_pool.worker_deaths == 0
        assert failed[0].fingerprint not in runner.store


class TestPoolInvariants:
    def test_results_keep_input_order_under_chaos(self, monkeypatch,
                                                  fault_dir):
        monkeypatch.setenv(faults.FAULT_ENV, "crash:sqam")
        runner = SweepRunner(processes=3, use_cache=False)
        batch = _batch()
        results = runner.run(batch)
        assert [result.scenario for result in results] == [
            scenario.name for scenario in batch]

    def test_checkpoint_lands_before_the_batch_ends(self, monkeypatch,
                                                    tmp_path):
        """Results journal into the store as they complete, not at the end."""
        seen = []
        runner = SweepRunner(processes=2, store=tmp_path / "store.json")
        original = runner._checkpoint

        def spying_checkpoint():
            original()
            seen.append((tmp_path / "store.json").exists())

        monkeypatch.setattr(runner, "_checkpoint", spying_checkpoint)
        runner.run(_batch())
        assert len(seen) == len(_batch())  # one journal write per scenario
        assert all(seen)

    def test_pool_results_in_input_order(self):
        """A pool run returns the same results, in the same order, as the
        inline runner — dispatch must never reorder or drop."""
        names = ["lookup-O2-64B", "kernel-scatter_102f-32B",
                 "sqm-O2-64B", "naive-32B", "figure7a"]
        catalogue = all_scenarios()
        selected = [catalogue[name] for name in names]
        pooled = SweepRunner(processes=2, use_cache=False).run(selected)
        inline = SweepRunner(processes=1, use_cache=False).run(selected)
        assert [result.scenario for result in pooled] == names
        assert [result.to_payload() for result in pooled] == \
            [result.to_payload() for result in inline]

    def test_clean_pool_runs_report_no_supervision_noise(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_ENV, raising=False)
        runner = SweepRunner(processes=2, use_cache=False)
        results = runner.run(_batch())
        assert all(result.ok for result in results)
        pool = runner.last_pool
        assert (pool.retries, pool.worker_deaths, pool.quarantined) == (0, 0, 0)
