"""Spy-replay soundness for the shared-LLC catalogue: every ``probe``
bound in hierarchy_scenarios() must dominate the concrete prime+probe
views under LRU, FIFO, and tree-PLRU — and the grid must contain both a
real cross-core leak and its closure by hardening."""

import pytest

from repro.analysis import validation
from repro.analysis.analyzer import analyze
from repro.analysis.validation import ConcreteValidator, ValidationReport
from repro.casestudy import targets
from repro.casestudy.scenarios import hierarchy_scenarios
from repro.core.adversary import PROBE, spy_probe_view
from repro.core.observers import AccessKind
from repro.sweep.runner import _overridden_config
from repro.vm.cache import CacheHierarchy, HierarchySpec

POLICY_SWEEP = ("lru", "fifo", "plru")

CATALOGUE = hierarchy_scenarios()

SHARED_PROBE = (AccessKind.SHARED, PROBE)


@pytest.fixture(scope="module")
def analyses():
    """One analysis per distinct victim.

    The static bounds are independent of the concrete hierarchy shape and
    the validation policy, so the mode/policy variants of one victim share
    a single (expensive) analysis; only the interleaved replay differs.
    """
    cache = {}

    def get(scenario):
        key = (scenario.target, scenario.params, scenario.transforms)
        if key not in cache:
            target = scenario.build_target()
            config = _overridden_config(target.config, scenario)
            cache[key] = (target, analyze(target.image, target.spec, config))
        return cache[key]

    return get


class TestProbeBoundSoundness:
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_spy_replay_within_bound(self, name, analyses):
        """Interleaved prime+probe replay across all three policies."""
        scenario = CATALOGUE[name]
        target, result = analyses(scenario)
        assert SHARED_PROBE in result.report.adversaries
        validator = ConcreteValidator(target.image, target.spec)
        outcome = validator.check_adversaries(
            result, targets.default_layouts(target.name)[:1],
            policies=POLICY_SWEEP, models=(PROBE,),
            hierarchy=HierarchySpec.from_wire(scenario.hierarchy))
        assert outcome.checked == len(POLICY_SWEEP)
        assert outcome.ok, outcome.violations

    def test_each_distinct_stream_replays_once(self, analyses, monkeypatch):
        """A spy replay depends only on the victim's stream and a fresh
        hierarchy.  Preloading makes all 256 secrets of the first layout
        share one stream, so the spy replays it once per policy (3 replays,
        not 256 x 3) and the report is the all-clear one."""
        scenario = CATALOGUE["aes-O2-64B-preload-aligned-llc-incl-lru"]
        target, result = analyses(scenario)
        replays = []

        def counted(addresses, hierarchy, core=0):
            replays.append(len(addresses))
            return spy_probe_view(addresses, hierarchy, core)

        monkeypatch.setattr(validation, "spy_probe_view", counted)
        validator = ConcreteValidator(target.image, target.spec)
        outcome = validator.check_adversaries(
            result, targets.default_layouts(target.name)[:1],
            policies=POLICY_SWEEP, models=(PROBE,),
            hierarchy=HierarchySpec.from_wire(scenario.hierarchy))
        assert len(replays) == len(POLICY_SWEEP)
        assert outcome == ValidationReport(checked=len(POLICY_SWEEP))


class TestCrossCoreLeakAndClosure:
    """The grid's headline: the AES and lookup bases leak through the
    shared LLC; their preload-based hardened variants do not."""

    def test_aes_base_leaks_to_spy(self, analyses):
        _target, result = analyses(CATALOGUE["aes-O2-64B-llc-incl-lru"])
        assert result.report.adversaries[SHARED_PROBE].count > 1

    def test_lookup_base_leaks_to_spy(self, analyses):
        _target, result = analyses(CATALOGUE["lookup-O2-64B-llc-incl-lru"])
        assert result.report.adversaries[SHARED_PROBE].count > 1

    @pytest.mark.parametrize("name", [
        "aes-O2-64B-preload-aligned-llc-incl-lru",
        "aes-O2-64B-preload-aligned-llc-excl-plru",
        "lookup-O2-64B-hardened-llc-incl-lru",
    ])
    def test_hardened_variants_close_the_channel(self, name, analyses):
        _target, result = analyses(CATALOGUE[name])
        bound = result.report.adversaries[SHARED_PROBE]
        assert bound.count == 1 and bound.is_non_interferent

    def test_leak_concretely_observable(self, analyses):
        """Not just a loose bound: under the tree-PLRU inclusive LLC the
        spy really does collect several distinct probe vectors."""
        scenario = CATALOGUE["aes-O2-64B-llc-incl-plru"]
        target, result = analyses(scenario)
        validator = ConcreteValidator(target.image, target.spec)
        lam = targets.default_layouts(target.name)[0]
        spec = HierarchySpec.from_wire(scenario.hierarchy)
        views = {
            spy_probe_view(trace.view("shared", 0), CacheHierarchy(spec))
            for trace in validator._collect_traces(lam)}
        assert len(views) > 1
        assert len(views) <= result.report.adversaries[SHARED_PROBE].count


class TestHierarchyScenarioShape:
    """Catalogue hygiene for the new family (cheap, no execution)."""

    def test_grid_covers_both_modes_and_three_policies(self):
        modes = {scenario.hierarchy[1] for scenario in CATALOGUE.values()}
        policies = {scenario.cache_policy for scenario in CATALOGUE.values()}
        assert modes == {"inclusive", "exclusive"}
        assert policies == {"lru", "fifo", "plru"}

    def test_every_entry_requests_the_probe_model(self):
        for scenario in CATALOGUE.values():
            assert "SHARED" in scenario.kinds
            assert "probe" in scenario.adversaries
            assert scenario.hierarchy is not None

    def test_hierarchy_wire_round_trips(self):
        for scenario in CATALOGUE.values():
            spec = HierarchySpec.from_wire(scenario.hierarchy)
            assert spec.to_wire() == scenario.hierarchy
            assert spec.cores == 2
