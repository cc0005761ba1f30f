"""The sweep subsystem: scenarios, runner, caches, store, and the
figure-level bit-identity regression against the seed reproduction."""

import json
import multiprocessing

import pytest

from repro.casestudy import experiments
from repro.casestudy.scenarios import (
    POLICY_NAMES,
    adversary_scenario,
    all_scenarios,
    figure_scenarios,
    gather_scenario,
    kernel_scenario,
    lookup_scenario,
    policy_adversary_scenarios,
    sqam_scenario,
    sqm_scenario,
)
from repro.core.observers import AccessKind
from repro.sweep import (
    ResultStore,
    Scenario,
    ScenarioError,
    SweepResult,
    SweepRunner,
    execute_scenario,
)
from repro.sweep.results import METRICS_SCHEMA

I, D = AccessKind.INSTRUCTION, AccessKind.DATA


class TestScenario:
    def test_fingerprint_stable_and_name_blind(self):
        a = sqm_scenario(opt_level=2, line_bytes=64)
        b = Scenario.make("another-alias", a.target, opt_level=2, line_bytes=64)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sensitive_to_params_and_overrides(self):
        base = sqam_scenario(opt_level=2, line_bytes=64)
        assert base.fingerprint() != sqam_scenario(opt_level=0,
                                                   line_bytes=64).fingerprint()
        assert base.fingerprint() != sqam_scenario(
            opt_level=2, line_bytes=64,
            observers=("address", "block")).fingerprint()

    def test_payload_roundtrip(self):
        scenario = lookup_scenario(opt_level=1, observers=("address", "block"),
                                   kinds=("INSTRUCTION", "DATA"))
        clone = Scenario.from_payload(
            json.loads(json.dumps(scenario.to_payload())))
        assert clone == scenario
        assert clone.fingerprint() == scenario.fingerprint()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", target="a.b:c", kind="nope")

    def test_config_overrides_reach_the_analysis(self):
        narrowed = execute_scenario(
            sqm_scenario(opt_level=2, line_bytes=64,
                         observers=("address",), kinds=("DATA",)))
        assert {(row.kind, row.observer) for row in narrowed.rows} == {
            ("DATA", "address")
        }


class TestRunnerCaching:
    def test_in_process_cache_hits(self):
        runner = SweepRunner()
        first = runner.run_one(sqam_scenario(opt_level=2, line_bytes=64))
        second = runner.run_one(sqam_scenario(opt_level=2, line_bytes=64))
        assert not first.cached
        assert second.cached
        assert second.rows == first.rows

    def test_batch_alias_dedup(self):
        runner = SweepRunner()
        figure = figure_scenarios()["figure7a"]
        grid = sqm_scenario(opt_level=2, line_bytes=64)
        results = runner.run([figure, grid])
        assert [result.scenario for result in results] == [figure.name, grid.name]
        assert results[0].rows == results[1].rows
        assert results[1].cached  # second alias shared the first run

    def test_disk_store_roundtrip(self, tmp_path):
        store_path = str(tmp_path / "store.json")
        scenario = gather_scenario(nbytes=16)
        first = SweepRunner(store=store_path).run_one(scenario)
        assert not first.cached
        # A fresh runner (fresh in-process cache) reads the store instead.
        second = SweepRunner(store=store_path).run_one(scenario)
        assert second.cached
        assert second.rows == first.rows
        assert second.report.bits(D, "block") == 0.0

    def test_store_is_deterministic(self, tmp_path):
        scenarios = [sqm_scenario(opt_level=2, line_bytes=64),
                     sqam_scenario(opt_level=0, line_bytes=32),
                     kernel_scenario("scatter_102f", 16)]
        paths = []
        for round_index in (0, 1):
            path = tmp_path / f"store{round_index}.json"
            SweepRunner(store=str(path)).run(scenarios)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestResultStoreRobustness:
    """The on-disk store under fingerprint churn and file corruption."""

    def test_fingerprint_change_invalidates(self, tmp_path):
        """A changed scenario meaning misses the cache and recomputes."""
        store_path = str(tmp_path / "store.json")
        base = gather_scenario(nbytes=16)
        first = SweepRunner(store=store_path).run_one(base)
        assert not first.cached
        changed = gather_scenario(nbytes=16, observers=("address", "block"))
        assert changed.fingerprint() != base.fingerprint()
        second = SweepRunner(store=store_path).run_one(changed)
        assert not second.cached  # new fingerprint: no stale answer
        # Both results are now stored under their own fingerprints.
        store = ResultStore(store_path)
        assert store.get(base.fingerprint()) is not None
        assert store.get(changed.fingerprint()) is not None
        assert len(store) == 2

    def test_policy_and_adversary_overrides_key_fingerprints(self):
        base = lookup_scenario(opt_level=2, line_bytes=64)
        fingerprints = {base.fingerprint()}
        for policy in POLICY_NAMES:
            fingerprints.add(adversary_scenario(base, policy).fingerprint())
        fingerprints.add(adversary_scenario(base, "lru", models=()).fingerprint())
        assert len(fingerprints) == 5  # base + 3 policies + ablation

    @pytest.mark.parametrize("content", [
        "",                                  # truncated to nothing
        "{\"version\": 1, \"results\": ",    # truncated mid-object
        "not json at all {{{",               # garbage
        "[1, 2, 3]",                         # wrong shape
        "{\"version\": 999, \"results\": {}}",  # incompatible version
    ])
    def test_corrupt_store_starts_fresh(self, tmp_path, content):
        store_path = tmp_path / "store.json"
        store_path.write_text(content)
        store = ResultStore(str(store_path))
        assert len(store) == 0
        scenario = gather_scenario(nbytes=16)
        result = SweepRunner(store=str(store_path)).run_one(scenario)
        assert not result.cached
        # The save overwrote the corrupt file with a loadable store.
        recovered = ResultStore(str(store_path))
        assert recovered.get(scenario.fingerprint()) is not None

    def test_corrupt_store_does_not_crash_sweep(self, tmp_path):
        store_path = tmp_path / "store.json"
        store_path.write_text("\x00\x01 binary junk")
        runner = SweepRunner(store=str(store_path))
        results = runner.run([gather_scenario(nbytes=16)])
        assert len(results) == 1 and results[0].rows

    def test_malformed_entry_reruns(self, tmp_path):
        """An entry with the right schema but no result fields re-runs."""
        scenario = gather_scenario(nbytes=16)
        clean_path = tmp_path / "clean.json"
        SweepRunner(store=str(clean_path)).run([scenario])
        store_path = tmp_path / "store.json"
        store_path.write_text(json.dumps({"version": 1, "results": {
            scenario.fingerprint(): {"metrics_schema": METRICS_SCHEMA}}}))
        result, = SweepRunner(store=str(store_path)).run([scenario])
        assert result.ok and not result.cached
        assert store_path.read_bytes() == clean_path.read_bytes()


class TestPolicyAdversaryGrid:
    """The policy × adversary scenario axis of the catalogue."""

    @pytest.fixture(scope="class")
    def grid_results(self):
        runner = SweepRunner()
        grid = policy_adversary_scenarios(entry_bytes=16)
        return {name: runner.run_one(scenario)
                for name, scenario in grid.items()}

    def test_grid_is_in_the_catalogue(self):
        catalogue = all_scenarios(entry_bytes=16)
        for name in policy_adversary_scenarios(entry_bytes=16):
            assert name in catalogue

    def test_leakage_rows_policy_independent(self, grid_results):
        """Rows agree across the policy axis.

        Today this holds by construction — the analysis never consults
        ``cache_policy`` — and this test locks that invariant: a future
        change that makes ``analyze()`` policy-sensitive must not alter the
        observation counts.  The *executable* policy-independence argument
        (hit/miss replays under each policy stay within the bounds) lives
        in ``tests/core/test_adversary.py``'s concrete-validation tests.
        """
        for base in ("sqam-O2-64B", "lookup-O2-64B", "gather-16B"):
            rows = {grid_results[f"{base}-{policy}"].rows
                    for policy in POLICY_NAMES}
            adversary_rows = {grid_results[f"{base}-{policy}"].adversary_rows
                              for policy in POLICY_NAMES}
            assert len(rows) == 1
            assert len(adversary_rows) == 1

    def test_adversary_rows_present_and_bounded(self, grid_results):
        result = grid_results["lookup-O2-64B-lru"]
        by_key = {(row.kind, row.model): row.count
                  for row in result.adversary_rows}
        block = {row.kind: row.count for row in result.rows
                 if row.observer == "block"}
        assert by_key[("DATA", "trace")] == block["DATA"]
        assert by_key[("DATA", "time")] <= by_key[("DATA", "trace")]

    def test_ablation_has_no_adversary_rows(self, grid_results):
        assert grid_results["lookup-O2-64B-noadv"].adversary_rows == ()

    def test_adversary_rows_serialize(self, grid_results):
        result = grid_results["gather-16B-plru"]
        clone = SweepResult.from_payload(
            json.loads(json.dumps(result.to_payload())))
        assert clone.adversary_rows == result.adversary_rows
        report = clone.report
        assert report.adversary_bound(D, "trace").count == 1

    def test_kernel_policies_all_measured(self, grid_results):
        for policy in POLICY_NAMES:
            suffix = "" if policy == "lru" else f"-{policy}"
            metrics = grid_results[f"kernel-scatter_102f-16B{suffix}"].metrics
            assert metrics["instructions"] > 0 and metrics["cycles"] > 0


class TestPoolParallelism:
    def test_multi_scenario_pool_sweep(self, tmp_path):
        """≥8 scenarios through the process pool, deterministic store."""
        catalogue = all_scenarios(entry_bytes=16, nlimbs=4)
        scenarios = list(catalogue.values())
        assert len(scenarios) >= 8
        store_path = tmp_path / "pool_store.json"
        workers = max(2, min(4, multiprocessing.cpu_count()))
        runner = SweepRunner(processes=workers, store=str(store_path))

        results = runner.run(scenarios)
        assert len(results) == len(scenarios)
        by_name = {result.scenario: result for result in results}
        assert by_name["figure7b"].report.bits(D, "address") == 0.0
        assert by_name["figure14c"].report.bits(D, "block") == 0.0
        assert by_name["kernel-scatter_102f-16B"].metrics["instructions"] > 0

        # The pooled store matches an inline run's store byte for byte.
        inline_path = tmp_path / "inline_store.json"
        SweepRunner(processes=1, store=str(inline_path)).run(scenarios)
        assert store_path.read_bytes() == inline_path.read_bytes()


class TestFigureRegression:
    """Measured observation counts must stay bit-identical to the seed.

    The expectations below were captured from the seed revision (before the
    worklist/caching refactor); any engine or sweep change that alters a
    count is a regression even if the bits still round to the paper's
    numbers.
    """

    SEED_COUNTS = {
        # (figure, kind, observer) -> (count, stuttering_count)
        ("figure7a", "I-Cache", "address"): (2, 2),
        ("figure7a", "I-Cache", "block"): (2, 2),
        ("figure7a", "D-Cache", "address"): (2, 2),
        ("figure7a", "D-Cache", "block"): (2, 2),
        ("figure7b", "I-Cache", "address"): (2, 2),
        ("figure7b", "I-Cache", "block"): (2, 1),
        ("figure7b", "D-Cache", "address"): (1, 1),
        ("figure7b", "D-Cache", "block"): (1, 1),
        ("figure8", "I-Cache", "block"): (2, 2),
        ("figure8", "D-Cache", "block"): (2, 2),
        ("figure14a", "I-Cache", "address"): (2, 2),
        ("figure14a", "D-Cache", "address"): (50, 50),
        ("figure14a", "D-Cache", "bank"): (50, 50),
        ("figure14a", "D-Cache", "block"): (5, 5),
        ("figure14b", "D-Cache", "address"): (1, 1),
        ("figure14b", "I-Cache", "address"): (1, 1),
        ("figure14c", "D-Cache", "address"): (8 ** 32, 8 ** 32),
        ("figure14c", "D-Cache", "bank"): (2 ** 32, 2 ** 32),
        ("figure14c", "D-Cache", "block"): (1, 1),
        ("figure14c", "I-Cache", "address"): (1, 1),
        ("figure14d", "D-Cache", "address"): (1, 1),
        ("figure14d", "D-Cache", "bank"): (1, 1),
        ("figure14d", "I-Cache", "address"): (1, 1),
    }

    KIND_OF = {"I-Cache": I, "D-Cache": D}

    @pytest.fixture(scope="class")
    def figures(self):
        return {
            "figure7a": experiments.figure7a(),
            "figure7b": experiments.figure7b(),
            "figure8": experiments.figure8(),
            "figure14a": experiments.figure14a(),
            "figure14b": experiments.figure14b(nlimbs=8),
            "figure14c": experiments.figure14c(nbytes=32),
            "figure14d": experiments.figure14d(nbytes=16),
        }

    def test_counts_bit_identical_to_seed(self, figures):
        mismatches = []
        for (figure, cache, observer), expected in self.SEED_COUNTS.items():
            report = figures[figure].analysis.report
            bound = report.bound(self.KIND_OF[cache], observer)
            measured = (bound.count, bound.stuttering_count)
            if measured != expected:
                mismatches.append((figure, cache, observer, measured, expected))
        assert not mismatches, mismatches

    def test_all_figures_match_paper(self, figures):
        for name, figure in figures.items():
            assert figure.all_match, f"{name}: {figure.format()}"

    def test_figure_results_survive_serialization(self, figures):
        """The SweepResult carried by a figure reconstructs its report."""
        for figure in figures.values():
            sweep = figure.analysis
            clone = SweepResult.from_payload(
                json.loads(json.dumps(sweep.to_payload())))
            assert clone.rows == sweep.rows
            assert clone.report.bounds.keys() == sweep.report.bounds.keys()
