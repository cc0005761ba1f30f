"""Performance architecture characterization and its bit-identity locks.

Two complementary guarantees:

1. **Nothing measurable moved.**  The interning layer, the zero-copy joins,
   the eager DAG counting, and the registry fast paths are pure performance
   work — the fig14 family's engine counters (steps, merges, forks,
   max_configs) must stay exactly at the values captured from the seed
   revision, on top of the observation-count locks in
   ``tests/sweep/test_sweep.py``.

2. **The layer is actually on.**  Per-run intern/memo hit counters are
   recorded on ``SchedulerStats`` (and surfaced through
   ``SweepResult.metrics``); they must be populated, deterministic per
   scenario, and show real sharing on the workloads the layer exists for.
"""

import dataclasses

from repro.analysis.engine import SchedulerStats
from repro.casestudy import experiments, targets


# Engine counters captured from the seed revision (pre-interning) at the
# regression geometry of tests/sweep/test_sweep.py::TestFigureRegression.
# Any drift means an optimization changed what the engine *does*, not just
# how fast it does it.
SEED_ENGINE_COUNTERS = {
    "figure14a": {"steps": 50, "max_configs": 2, "merges": 1, "forks": 1},
    "figure14b": {"steps": 2957, "max_configs": 1, "merges": 0, "forks": 0},
    "figure14c": {"steps": 797, "max_configs": 1, "merges": 0, "forks": 0},
    "figure14d": {"steps": 4285, "max_configs": 1, "merges": 0, "forks": 0},
}

INTERN_METRIC_KEYS = (
    "vs_intern_hits", "vs_intern_misses",
    "sym_intern_hits", "sym_intern_misses",
)


def _fig14_results():
    return {
        "figure14a": experiments.figure14a(),
        "figure14b": experiments.figure14b(nlimbs=8),
        "figure14c": experiments.figure14c(nbytes=32),
        "figure14d": experiments.figure14d(nbytes=16),
    }


class TestEngineCountersPinned:
    def test_fig14_family_counters_unchanged_from_seed(self):
        mismatches = []
        for name, result in _fig14_results().items():
            metrics = result.analysis.metrics
            measured = {key: metrics[key] for key in SEED_ENGINE_COUNTERS[name]}
            if measured != SEED_ENGINE_COUNTERS[name]:
                mismatches.append((name, measured, SEED_ENGINE_COUNTERS[name]))
        assert not mismatches, mismatches

    def test_full_sorts_still_zero(self):
        for name, result in _fig14_results().items():
            assert result.analysis.metrics["full_sorts"] == 0, name


class TestInternCountersOnStats:
    def test_scheduler_stats_grow_intern_fields(self):
        fields = {spec.name for spec in dataclasses.fields(SchedulerStats)}
        assert set(INTERN_METRIC_KEYS) <= fields

    def test_intern_counters_populated_and_in_metrics(self):
        """Every leakage scenario records nonzero interning activity."""
        for name, result in _fig14_results().items():
            metrics = result.analysis.metrics
            for key in INTERN_METRIC_KEYS:
                assert key in metrics, (name, key)
            assert metrics["vs_intern_hits"] > 0, name
            assert metrics["vs_intern_misses"] > 0, name
            assert metrics["sym_intern_hits"] > 0, name

    def test_interning_achieves_real_sharing_on_gather(self):
        """The workload the layer exists for: the straight-line gather remix
        of the same constants/addresses.  Handlers bind their constant value
        sets once per run, so no step re-looks a constant up; the repeated
        products are answered by the lifting memo, and the masked symbols
        the products build by the intern table (0.43 of them measured)."""
        result = targets.gather_target(nbytes=32).analyze()
        scheduler = result.engine_result.scheduler
        assert scheduler.sym_intern_hit_rate > 0.4
        assert scheduler.lift_memo_hit_rate > 0.3

    def test_intern_counters_deterministic_per_scenario(self):
        """AnalysisContext clears the intern tables, so re-running the same
        analysis — no matter what ran before it — reproduces the counters."""
        first = targets.gather_target(nbytes=16).analyze()
        # Pollute the process interning state with an unrelated analysis.
        targets.sqam_target().analyze()
        second = targets.gather_target(nbytes=16).analyze()
        for key in INTERN_METRIC_KEYS + ("lift_memo_hits", "lift_memo_misses"):
            assert (getattr(first.engine_result.scheduler, key)
                    == getattr(second.engine_result.scheduler, key)), key

    def test_hit_rate_properties_bounded(self):
        stats = SchedulerStats()
        assert stats.vs_intern_hit_rate == 0.0
        assert stats.sym_intern_hit_rate == 0.0
        stats.vs_intern_hits = 3
        stats.vs_intern_misses = 1
        assert stats.vs_intern_hit_rate == 0.75


class TestReusedEngineDagIdempotence:
    """A re-run on a reused Engine must not duplicate DAG chains.

    Engine DAGs skip registry dedupe until the first fork, so a *second*
    ``run()`` from the root could commit keys the fork-free first run never
    registered.  An engine runs once: the second call raises before it
    touches the DAGs, which keep the first run's sizes and counts."""

    PROGRAM = """
    .text
    main:
        mov ebx, [esi]
        add ebx, 1
        mov [esi], ebx
        ret
    """

    def test_fork_free_rerun_does_not_grow_the_dags(self):
        import pytest

        from repro.analysis.analyzer import build_initial_state
        from repro.analysis.config import AnalysisConfig, InputSpec
        from repro.analysis.engine import Engine
        from repro.analysis.state import AnalysisContext
        from repro.analysis.transfer import Transfer
        from repro.isa import parse_asm
        from repro.isa.registers import ESI

        image = parse_asm(self.PROGRAM).assemble()
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_constant(ESI, 0x080E_B000),))
        context = AnalysisContext(AnalysisConfig())
        engine = Engine(image, context, Transfer(context, image))
        entry = image.symbol("main")

        state_one, _ = build_initial_state(context, spec, image)
        first = engine.run(entry, state_one)
        assert first.forks == 0  # fork-free: dedupe stayed off in run 1
        sizes = {key: dag.size for key, dag in engine.dags.items()}
        counts = {key: dag.count(first.final_vertices[key])
                  for key, dag in engine.dags.items()}

        state_two, _ = build_initial_state(context, spec, image)
        with pytest.raises(RuntimeError, match="runs once"):
            engine.run(entry, state_two)
        assert {key: dag.size for key, dag in engine.dags.items()} == sizes
        for key, dag in engine.dags.items():
            assert dag.count(first.final_vertices[key]) == counts[key]


class TestJoinFastPathsKeepWidening:
    """The identity fast paths must not bypass the cap: joining an over-cap
    value with itself widened it before the fast paths existed, and still
    must (interning makes equal sets identical, so this is reachable for
    any over-cap set that survives to a merge point, e.g. wide-multiply
    constant products)."""

    def test_identical_over_cap_register_still_widens(self):
        from repro.analysis.config import AnalysisConfig
        from repro.analysis.state import AbsState, AnalysisContext
        from repro.core.valueset import ValueSet

        context = AnalysisContext(AnalysisConfig(value_set_cap=4))
        state = AbsState.initial(context)
        big = ValueSet.constants(range(10), 32)
        state.regs[0] = big
        joined = state.join(state.clone(), context)
        assert joined.regs[0] is not big
        assert joined.regs[0].has_symbolic  # widened to a fresh unknown

    def test_identical_over_cap_memory_slot_still_widens(self):
        from repro.analysis.config import AnalysisConfig
        from repro.analysis.state import AbsState, AnalysisContext
        from repro.core.valueset import ValueSet

        context = AnalysisContext(AnalysisConfig(value_set_cap=4))
        state = AbsState.initial(context)
        address = ValueSet.constant(0x1000, 32)
        state.memory.write(address, ValueSet.constants(range(10), 32), 4, context)
        joined = state.memory.join(state.clone().memory, context)
        assert joined.read(address, 4, context).has_symbolic
