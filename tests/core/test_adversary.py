"""Trace-/time-based adversary bounds (core/adversary.py): the DAG-level
derivations, the block-trace determinism argument across replacement
policies, and the end-to-end analyzer/validator integration."""

import dataclasses

import pytest

from repro.analysis.analyzer import analyze
from repro.analysis.config import AnalysisConfig, AnalysisError, InputSpec
from repro.analysis.validation import ConcreteValidator
from repro.core.adversary import (
    ADVERSARY_MODELS,
    AdversaryBound,
    PrimeProbeSpy,
    derive_adversary_bounds,
    probe_adversary_count,
    spy_probe_view,
    time_adversary_count,
    trace_adversary_count,
)
from repro.core.observers import AccessKind, ProjectedLabel
from repro.core.tracedag import TraceDAG
from repro.isa import parse_asm
from repro.isa.registers import EAX, ESI
from repro.vm.cache import POLICIES, CacheConfig, SetAssociativeCache
from repro.vm.tracer import Trace


def label(*keys, count=None):
    return ProjectedLabel(keys=frozenset(keys), count=count or len(keys))


A, B, C = label("A"), label("B"), label("C")


def _linear_dag(*accesses):
    dag = TraceDAG()
    cursor = dag.root_cursor()
    for access in accesses:
        cursor = dag.access(cursor, access)
    return dag, dag.finalize(cursor)


class TestAdversaryBound:
    def test_bits(self):
        bound = AdversaryBound(kind=AccessKind.DATA, model="trace", count=8)
        assert bound.bits == 3.0
        assert not bound.is_non_interferent

    def test_non_interference(self):
        bound = AdversaryBound(kind=AccessKind.DATA, model="time", count=1)
        assert bound.is_non_interferent

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            AdversaryBound(kind=AccessKind.DATA, model="power", count=1)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            AdversaryBound(kind=AccessKind.DATA, model="trace", count=0)


class TestPathLengthSpan:
    def test_empty_trace(self):
        dag = TraceDAG()
        ends = dag.finalize(dag.root_cursor())
        assert dag.path_length_span(ends) == (0, 0)

    def test_single_path_counts_accesses(self):
        dag, ends = _linear_dag(A, A, A, B)
        assert dag.path_length_span(ends) == (4, 4)

    def test_branching_lengths(self):
        """Two merged arms with 2 vs 5 accesses span [2, 5]."""
        dag = TraceDAG()
        short = dag.access(dag.access(dag.root_cursor(), A), B)
        long = dag.root_cursor()
        for access in (A, A, A, A, C):
            long = dag.access(long, access)
        ends = dag.finalize(dag.merge(short, long))
        assert dag.path_length_span(ends) == (2, 5)


class TestDerivations:
    def test_trace_bound_equals_block_count(self):
        dag, ends = _linear_dag(label("A", "B"), C)
        assert trace_adversary_count(dag, ends) == dag.count(ends)

    def test_time_bound_constant_length(self):
        """Single achievable length n: at most n+1 (hits, misses) pairs."""
        dag, ends = _linear_dag(label("A", "B", "C", "D", "E", "F"), A, B)
        # trace bound is 6, but all traces have length 3 → 4 timing pairs.
        assert trace_adversary_count(dag, ends) == 6
        assert time_adversary_count(dag, ends) == 4

    def test_time_bound_never_exceeds_trace_bound(self):
        dag, ends = _linear_dag(label("A", "B"))
        # length 1 everywhere → 2 pairs, but only 2 block traces anyway.
        assert time_adversary_count(dag, ends) <= trace_adversary_count(dag, ends)

    def test_time_bound_empty_trace(self):
        dag = TraceDAG()
        ends = dag.finalize(dag.root_cursor())
        assert time_adversary_count(dag, ends) == 1

    def test_derive_selected_models(self):
        dag, ends = _linear_dag(A, B)
        bounds = derive_adversary_bounds(dag, ends, AccessKind.DATA, ("trace",))
        assert [(b.model, b.count) for b in bounds] == [("trace", 1)]

    def test_derive_rejects_unknown_model(self):
        dag, ends = _linear_dag(A)
        with pytest.raises(ValueError):
            derive_adversary_bounds(dag, ends, AccessKind.DATA, ("tempest",))

    def test_probe_bound_equals_block_count(self):
        """The spy's probe vector is a deterministic function of the
        interleaved block trace, so distinct vectors ≤ distinct traces."""
        dag, ends = _linear_dag(label("A", "B"), C, label("A", "C"))
        assert probe_adversary_count(dag, ends) == dag.count(ends)

    def test_derive_probe_model(self):
        dag, ends = _linear_dag(A, label("B", "C"))
        bounds = derive_adversary_bounds(dag, ends, AccessKind.SHARED, ("probe",))
        assert [(b.model, b.count) for b in bounds] == [("probe", 2)]


class TestPrimeProbeSpy:
    """The concrete active adversary: prime the shared LLC, run the victim
    on another core, then probe for evictions."""

    def _hierarchy(self):
        from repro.vm.cache import CacheHierarchy, default_hierarchy_spec

        return CacheHierarchy(default_hierarchy_spec(line_bytes=64))

    def test_spy_covers_every_llc_line(self):
        hierarchy = self._hierarchy()
        spy = PrimeProbeSpy(hierarchy)
        config = hierarchy.shared.config
        assert len(spy.addresses) == config.num_sets * config.associativity
        spy.prime()
        assert all(spy.probe())  # untouched LLC: every probe hits

    def test_victim_evictions_visible(self):
        """A victim streaming through one set evicts primed lines there."""
        hierarchy = self._hierarchy()
        spy = PrimeProbeSpy(hierarchy)
        spy.prime()
        config = hierarchy.shared.config
        ways = config.associativity
        # Enough distinct victim blocks mapping to set 0 to evict the spy.
        for tag in range(ways + 1):
            hierarchy.access((tag << (config.set_bits + config.offset_bits)),
                             core=0)
        vector = spy.probe()
        assert not all(vector)

    def test_probe_view_distinguishes_victim_sets(self):
        """Victims touching different LLC sets yield different vectors."""
        line = 64
        num_sets = self._hierarchy().shared.config.num_sets
        views = {
            spy_probe_view([set_index * line] * 8, self._hierarchy())
            for set_index in range(min(4, num_sets))
        }
        assert len(views) == 4

    def test_probe_view_deterministic(self):
        addresses = [0, 64, 4096, 64, 8192, 0]
        assert (spy_probe_view(addresses, self._hierarchy())
                == spy_probe_view(addresses, self._hierarchy()))

    def test_spy_requires_shared_level(self):
        from repro.vm.cache import CacheHierarchy, HierarchySpec, LevelSpec

        flat = CacheHierarchy(HierarchySpec(
            l1=LevelSpec(num_sets=8, associativity=2), shared=None, cores=1))
        with pytest.raises(ValueError):
            PrimeProbeSpy(flat)


class TestBlockTraceDeterminism:
    """The §3.2 argument the derivations rest on, executable: equal block
    views imply equal hit/miss traces — for every replacement policy."""

    def _trace(self, addresses):
        trace = Trace()
        for addr in addresses:
            trace.record("R", addr, 4)
        return trace

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_equal_block_views_equal_hit_miss_traces(self, policy):
        config = CacheConfig(line_bytes=64, num_sets=2, associativity=2)
        blocks = [0, 1, 5, 1, 9, 0, 5, 9, 1, 0, 3, 5]
        # Two traces touching the same blocks at different line offsets.
        first = self._trace([b * 64 + 4 for b in blocks])
        second = self._trace([b * 64 + 60 for b in blocks])
        assert first.view("D", 6) == second.view("D", 6)
        first_hm = first.hit_miss_view("D", SetAssociativeCache(config, policy))
        second_hm = second.hit_miss_view("D", SetAssociativeCache(config, policy))
        assert first_hm == second_hm
        assert first.time_view("D", SetAssociativeCache(config, policy)) == \
               second.time_view("D", SetAssociativeCache(config, policy))

    def test_time_view_sums_to_length(self):
        trace = self._trace([0, 64, 0, 128])
        hits, misses = trace.time_view("D", SetAssociativeCache())
        assert hits + misses == 4


ASM = """
.text
main:
    test eax, eax
    je .skip
    add esi, 64
.skip:
    mov ebx, [esi]
    ret
"""


class TestAnalyzerIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        image = parse_asm(ASM).assemble()
        spec = InputSpec(entry="main", registers=(
            InputSpec.reg_high(EAX, [0, 1]),
            InputSpec.reg_symbol(ESI, "x"),
        ))
        return analyze(image, spec, AnalysisConfig())

    def test_adversary_bounds_recorded_per_kind(self, result):
        recorded = set(result.report.adversaries)
        assert (AccessKind.DATA, "trace") in recorded
        assert (AccessKind.INSTRUCTION, "time") in recorded

    def test_trace_bound_matches_block_count(self, result):
        for kind in (AccessKind.INSTRUCTION, AccessKind.DATA):
            assert (result.report.adversary_bound(kind, "trace").count
                    == result.report.bound(kind, "block").count)

    def test_adversary_hierarchy(self, result):
        """time ≤ trace ≤ block-address observations, per kind."""
        for kind in (AccessKind.INSTRUCTION, AccessKind.DATA):
            time = result.report.adversary_bound(kind, "time").count
            trace = result.report.adversary_bound(kind, "trace").count
            assert time <= trace

    def test_models_can_be_disabled(self):
        image = parse_asm(ASM).assemble()
        spec = InputSpec(entry="main", registers=(
            InputSpec.reg_high(EAX, [0, 1]),
            InputSpec.reg_symbol(ESI, "x"),
        ))
        result = analyze(image, spec, AnalysisConfig(adversary_models=()))
        assert result.report.adversaries == {}

    def test_config_rejects_unknown_model(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(adversary_models=("power",))

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(cache_policy="belady")

    def test_concrete_validation_across_policies(self, result):
        image = parse_asm(ASM).assemble()
        validator = ConcreteValidator(image, result.spec)
        outcome = validator.check_adversaries(
            result, layouts=[{"x": 0x9000000}, {"x": 0x9000040}],
            policies=tuple(sorted(POLICIES)))
        # 3 policies x 2 layouts x 4 (kind, model) bounds
        assert outcome.checked == 3 * 2 * 4
        assert outcome.ok, outcome.violations

    def test_distinct_streams_replay_once_with_every_trace_views(
            self, monkeypatch):
        """Four secrets, two distinct streams per cache kind: the validator
        replays each distinct stream once and reports exactly what a replay
        of every trace reports.  Bounds of 1 make every leaking bound a
        violation that names its observed view count."""
        image = parse_asm(ASM).assemble()
        spec = InputSpec(entry="main", registers=(
            InputSpec.reg_high(EAX, [0, 1, 2, 3]),
            InputSpec.reg_symbol(ESI, "x"),
        ))
        result = analyze(image, spec, AnalysisConfig())
        for key, bound in list(result.report.adversaries.items()):
            monkeypatch.setitem(result.report.adversaries, key,
                                dataclasses.replace(bound, count=1))
        layouts = [{"x": 0x9000000}, {"x": 0x9000040}]
        policies = tuple(sorted(POLICIES))
        validator = ConcreteValidator(image, spec)
        line_bytes = result.context.config.geometry.line_bytes
        config = CacheConfig(line_bytes=line_bytes, banks=min(16, line_bytes))
        codes = {AccessKind.INSTRUCTION: "I", AccessKind.DATA: "D"}
        expected = []
        for lam in layouts:
            traces = validator._collect_traces(lam)
            for policy in policies:
                for (kind, model), bound in result.report.adversaries.items():
                    view = (Trace.hit_miss_view if model == "trace"
                            else Trace.time_view)
                    observed = {
                        view(trace, codes[kind],
                             SetAssociativeCache(config, policy))
                        for trace in traces}
                    if len(observed) > 1:
                        expected.append(
                            f"{kind.value}/{model}/{policy}: observed "
                            f"{len(observed)} views > bound 1 for λ={lam}")
        assert expected  # the program leaks: the check is not vacuous

        replays = []
        hit_miss_view = Trace.hit_miss_view

        def counted(trace, cache_kind, cache):
            replays.append(cache_kind)
            return hit_miss_view(trace, cache_kind, cache)

        monkeypatch.setattr(Trace, "hit_miss_view", counted)
        outcome = validator.check_adversaries(result, layouts,
                                              policies=policies)
        assert outcome.checked == len(layouts) * len(policies) * 4
        assert outcome.violations == expected
        # 2 layouts x 3 policies x 4 bounds x 2 distinct streams, not x 4.
        assert len(replays) == len(layouts) * len(policies) * 4 * 2

    def test_report_formats_adversary_table(self, result):
        table = result.report.format_full_table()
        assert "Adversary" in table and "trace" in table and "time" in table
        assert "ADVERSARY_MODELS" not in table  # sanity
        assert set(ADVERSARY_MODELS) == {"trace", "time", "probe"}


class TestCaseStudyConcreteValidation:
    """The grid's policy axis, exercised for real: the case-study targets'
    trace-/time-adversary bounds must dominate the concrete hit/miss and
    timing views under *every* registered replacement policy."""

    LAYOUTS = {
        "sqam_153": {"rp": 0x9000000, "tmp": 0x9001000,
                     "bp": 0x9002000, "mp": 0x9003000},
        "lookup_161": {"bp": 0x9000000, "bsize": 0x9000100},
    }

    @pytest.mark.parametrize("factory_name", ["sqam_target", "lookup_target"])
    def test_bounds_hold_under_every_policy(self, factory_name):
        from repro.casestudy import targets

        target = getattr(targets, factory_name)()
        result = target.analyze()
        validator = ConcreteValidator(target.image, target.spec)
        outcome = validator.check_adversaries(
            result, [self.LAYOUTS[target.name]],
            policies=tuple(sorted(POLICIES)))
        assert outcome.checked == len(POLICIES) * len(result.report.adversaries)
        assert outcome.ok, outcome.violations
