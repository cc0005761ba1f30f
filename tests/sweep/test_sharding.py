"""Cost-aware sweep sharding: balance, completeness, determinism.

The sharder only steers *which worker runs what* — the runner reassembles
results in input order — so the properties under test are:

- every scenario lands in exactly one shard (nothing dropped, nothing run
  twice), for any cost vector and shard count;
- on synthetic timings the greedy longest-first packing balances shard
  durations far better than count-based chunking (within 20% of the ideal
  even split);
- predictions prefer recorded bench timings (matched by scenario name
  against the log's keys) and fall back to the size heuristic, which ranks
  big analyses above toy ones above concrete-VM kernel replays;
- the partition is deterministic, so reruns shard identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy.scenarios import all_scenarios
from repro.sweep.runner import SweepRunner
from repro.sweep.scenario import Scenario
from repro.sweep.sharding import calculate_shards, heuristic_cost, predict_costs

_TARGET = "repro.casestudy.targets.lookup_target"


def _scenario(name: str, kind: str = "leakage", **params) -> Scenario:
    return Scenario(name=name, target=_TARGET, kind=kind,
                    params=tuple(sorted(params.items())))


class TestCalculateShards:
    def test_balanced_within_20_percent_on_synthetic_timings(self):
        # One dominant scenario, a mid tier, and a long tail — the shape of
        # the real catalogue (fig14d-style analyses next to VM replays).
        costs = [8.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0] + [0.25] * 32
        shards = calculate_shards(costs, 4)
        loads = [sum(costs[index] for index in shard) for shard in shards]
        ideal = sum(costs) / 4
        assert max(loads) <= ideal * 1.2
        assert min(loads) >= ideal * 0.8

    def test_never_drops_or_duplicates(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for n_shards in (1, 2, 3, 5, 8, 16):
            shards = calculate_shards(costs, n_shards)
            flat = sorted(index for shard in shards for index in shard)
            assert flat == list(range(len(costs))), n_shards

    @settings(max_examples=50, deadline=None)
    @given(costs=st.lists(st.floats(min_value=0.0, max_value=100.0),
                          max_size=40),
           n_shards=st.integers(min_value=1, max_value=8))
    def test_partition_property(self, costs, n_shards):
        shards = calculate_shards(costs, n_shards)
        assert len(shards) == n_shards
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(len(costs)))

    def test_deterministic(self):
        costs = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        assert calculate_shards(costs, 3) == calculate_shards(costs, 3)

    def test_more_shards_than_work(self):
        shards = calculate_shards([1.0, 2.0], 5)
        assert sorted(index for shard in shards for index in shard) == [0, 1]

    def test_empty(self):
        assert calculate_shards([], 3) == [[], [], []]


class TestPredictCosts:
    def test_prefers_recorded_timings(self):
        scenarios = [_scenario("lookup-O2-64B"), _scenario("unheard-of")]
        timings = {"cli/sweep/lookup-O2-64B": 3.5}
        costs = predict_costs(scenarios, timings)
        assert costs[0] == 3.5
        assert costs[1] == heuristic_cost(scenarios[1])

    def test_largest_match_wins(self):
        # The log may hold both a toy-geometry CLI timing and a
        # full-geometry benchmark timing for the same scenario name;
        # over-estimating is the safe direction for longest-first packing.
        scenario = _scenario("lookup-O2-64B")
        timings = {"cli/sweep/lookup-O2-64B": 0.1,
                   "benchmarks/bench_x.py::test_lookup-O2-64B_full": 2.0}
        assert predict_costs([scenario], timings) == [2.0]

    def test_longer_named_sibling_does_not_match(self):
        # A scenario's name is a prefix of its variants' names; only its own
        # CLI key may time it, not the slower variants that contain it.
        scenarios = [_scenario("aes-O2-64B"), _scenario("lookup-O2-64B")]
        timings = {"cli/sweep/aes-O2-64B": 0.1,
                   "cli/sweep/aes-O2-64B-preload-aligned": 0.9,
                   "cli/sweep/lookup-O2-64B": 0.02,
                   "cli/sweep/lookup-O2-64B-hardened-llc-incl-lru": 0.4}
        assert predict_costs(scenarios, timings) == [0.1, 0.02]

    def test_tolerates_missing_and_junk_logs(self):
        scenario = _scenario("lookup-O2-64B")
        fallback = heuristic_cost(scenario)
        assert predict_costs([scenario], None) == [fallback]
        assert predict_costs([scenario], {}) == [fallback]
        assert predict_costs(
            [scenario], {"cli/sweep/lookup-O2-64B": "fast"}) == [fallback]
        assert predict_costs(
            [scenario], {"cli/sweep/lookup-O2-64B": -1.0}) == [fallback]

    def test_heuristic_ranks_by_size_and_kind(self):
        big = _scenario("big", nbytes=384, nlimbs=24)
        toy = _scenario("toy", nbytes=32, nlimbs=8)
        replay = _scenario("replay", kind="kernel", nbytes=32)
        assert heuristic_cost(big) > heuristic_cost(toy) > heuristic_cost(replay)


class TestRunnerIntegration:
    def test_pool_results_in_input_order(self):
        """A sharded pool run returns the same results, in the same order,
        as the inline runner — sharding must never reorder or drop."""
        names = ["lookup-O2-64B", "kernel-scatter_102f-32B",
                 "sqm-O2-64B", "naive-32B", "figure7a"]
        catalogue = all_scenarios()
        selected = [catalogue[name] for name in names]
        pooled = SweepRunner(processes=2, use_cache=False,
                             bench_log={}).run(selected)
        inline = SweepRunner(processes=1, use_cache=False).run(selected)
        assert [result.scenario for result in pooled] == names
        assert [result.to_payload() for result in pooled] == \
            [result.to_payload() for result in inline]

    def test_bench_log_path_accepted(self, tmp_path):
        runner = SweepRunner(bench_log=tmp_path / "missing.json")
        assert runner._timings == {}
        runner = SweepRunner(bench_log={"cli/sweep/x": 1.0})
        assert runner._timings == {"cli/sweep/x": 1.0}
