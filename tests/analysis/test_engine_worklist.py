"""The heapq worklist engine: scheduler statistics, the no-full-sort
guarantee, and per-(observer, kind) projection routing in ``_emit``."""

import dataclasses
import inspect

import pytest

from repro.analysis.analyzer import analyze
from repro.analysis.config import AnalysisConfig, InputSpec
from repro.analysis.engine import Engine
from repro.casestudy import targets
from repro.core.observers import AccessKind, CacheGeometry
from repro.isa import parse_asm
from repro.isa.registers import EAX, ESI

I, D, S = AccessKind.INSTRUCTION, AccessKind.DATA, AccessKind.SHARED


class TestSchedulerStats:
    def test_stats_recorded_on_result(self):
        result = targets.sqam_target().analyze()
        scheduler = result.engine_result.scheduler
        assert scheduler.peak_heap_size >= 1
        assert scheduler.decode_hits + scheduler.decode_misses == result.engine_result.steps
        assert 0.0 <= scheduler.decode_cache_hit_rate <= 1.0
        assert 0.0 <= scheduler.lift_memo_hit_rate <= 1.0
        assert 0.0 <= scheduler.projection_cache_hit_rate <= 1.0

    def test_loops_hit_the_decode_and_lift_caches(self):
        """Kernels with loops re-decode and re-lift the same work: the
        caches must be doing the bulk of it."""
        result = targets.gather_target(nbytes=32).analyze()
        scheduler = result.engine_result.scheduler
        assert scheduler.decode_cache_hit_rate > 0.5
        assert scheduler.lift_memo_hit_rate > 0.3
        assert scheduler.projection_cache_hit_rate > 0.5

    def test_engine_performs_no_full_sorts(self):
        result = targets.lookup_target().analyze()
        assert result.engine_result.scheduler.full_sorts == 0
        # Belt and braces: the scheduler loop must not contain a list sort
        # or a front-of-list pop (the seed's O(n log n)-per-step pattern).
        source = inspect.getsource(Engine.run)
        assert ".sort(" not in source
        assert "pop(0)" not in source

    def test_merge_and_fork_counts_survive(self):
        """The worklist refactor keeps the merge/fork accounting."""
        result = targets.sqam_target().analyze()
        engine_result = result.engine_result
        assert engine_result.forks >= 1    # the secret-dependent branch
        assert engine_result.merges >= 1   # both arms rejoin
        assert engine_result.max_configs >= 2

    def test_reused_engine_keeps_per_run_stats(self):
        """An engine runs once.  Its DAGs skip registry dedupe until the
        first fork, so a second run() from the root could commit keys the
        first run never registered: it raises, and leaves the first run's
        stats and DAGs as they were."""
        from repro.analysis.analyzer import build_initial_state
        from repro.analysis.state import AnalysisContext
        from repro.analysis.transfer import Transfer

        target = targets.sqm_target()
        context = AnalysisContext(target.config)
        transfer = Transfer(context, target.image)
        engine = Engine(target.image, context, transfer)
        entry = target.image.symbol(target.spec.entry)

        state_one, _ = build_initial_state(context, target.spec, target.image)
        first = engine.run(entry, state_one)
        stats = dataclasses.replace(first.scheduler)
        sizes = {key: dag.size for key, dag in engine.dags.items()}
        assert (stats.decode_hits + stats.decode_misses) == first.steps

        state_two, _ = build_initial_state(context, target.spec, target.image)
        with pytest.raises(RuntimeError, match="runs once"):
            engine.run(entry, state_two)
        assert first.scheduler == stats
        assert {key: dag.size for key, dag in engine.dags.items()} == sizes


class TestEmitProjections:
    """Secret-dependent access, observed by several kinds and observers."""

    PROGRAM = """
    .text
    main:
        test eax, eax
        je .skip
        add esi, 64
    .skip:
        mov ebx, [esi]
        ret
    """

    BASE = 0x080E_B000  # page-aligned data address (known to the analysis)

    def _analyze(self, observers=("address", "block", "page"),
                 kinds=(I, D, S), line_bytes=64):
        image = parse_asm(self.PROGRAM).assemble()
        spec = InputSpec(
            entry="main",
            registers=(InputSpec.reg_high(EAX, [0, 1]),
                       InputSpec.reg_constant(ESI, self.BASE)),
        )
        config = AnalysisConfig(
            geometry=CacheGeometry(line_bytes=line_bytes),
            observer_names=observers, kinds=kinds)
        return analyze(image, spec, config)

    def test_each_observer_gets_its_own_projection(self):
        """A 64-byte secret-dependent stride distinguishes the address and
        block observers (1 bit) but not the page observer (0 bits): each
        (kind, observer) DAG must have been fed the projection for *its*
        offset_bits, never a reused one."""
        result = self._analyze()
        assert result.report.bits(D, "address") == 1.0
        assert result.report.bits(D, "block") == 1.0
        assert result.report.bits(D, "page") == 0.0

    def test_shared_kind_sees_same_projection_per_observer(self):
        """SHARED merges the I- and D-streams under one observer: its count
        can never be below either split stream's count for that observer."""
        result = self._analyze()
        for observer in ("address", "block", "page"):
            shared = result.report.bound(S, observer).count
            assert shared >= result.report.bound(D, observer).count

    def test_data_vs_shared_divergence_when_offsets_differ(self):
        """Regression for the label-reuse short circuit: with a *different*
        blinding per observer, the DATA projections must differ across
        observers even though one address set feeds all of them."""
        fine = self._analyze(observers=("address",), kinds=(D,))
        coarse = self._analyze(observers=("page",), kinds=(D,))
        assert fine.report.bits(D, "address") == 1.0
        assert coarse.report.bits(D, "page") == 0.0
