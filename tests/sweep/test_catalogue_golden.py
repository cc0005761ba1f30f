"""Catalogue freeze: the pre-hierarchy scenario catalogue must stay
byte-identical — names, fingerprints, canonical scenario payloads, and
(mode-insensitive) result payloads — to the golden snapshot taken before
the hierarchy family landed.  The new ``*-llc-*`` entries ride alongside
without perturbing a single existing byte."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.casestudy.scenarios import all_scenarios, hierarchy_scenarios
from repro.sweep.results import ResultStore, SweepResult
from repro.sweep.runner import execute_scenario
from repro.sweep.scenario import Scenario
from tests.analysis.test_specialize import MODE_SENSITIVE_METRICS

GOLDEN_PATH = (Path(__file__).resolve().parents[1]
               / "data" / "catalogue_golden.json")


def _sha256(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _result_sha256(result: SweepResult) -> str:
    payload = result.to_payload()
    payload["metrics"] = {key: value
                          for key, value in payload["metrics"].items()
                          if key not in MODE_SENSITIVE_METRICS}
    return _sha256(payload)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def catalogue() -> dict:
    return all_scenarios()


class TestCatalogueFrozen:
    """Cheap structural freeze — no scenario execution."""

    def test_every_golden_scenario_still_exists(self, golden, catalogue):
        missing = sorted(set(golden) - set(catalogue))
        assert not missing, f"catalogue lost scenarios: {missing}"

    def test_fingerprints_unchanged(self, golden, catalogue):
        drifted = [name for name, entry in golden.items()
                   if catalogue[name].fingerprint() != entry["fingerprint"]]
        assert not drifted, f"fingerprints drifted: {sorted(drifted)}"

    def test_scenario_payload_bytes_unchanged(self, golden, catalogue):
        drifted = [
            name for name, entry in golden.items()
            if _sha256(catalogue[name].to_payload()) != entry["scenario_sha256"]
        ]
        assert not drifted, f"scenario payloads drifted: {sorted(drifted)}"

    def test_single_level_payloads_omit_hierarchy(self, golden, catalogue):
        """The hierarchy field must be invisible where it is unset —
        that's what keeps the golden hashes reachable at all."""
        for name in golden:
            assert "hierarchy" not in catalogue[name].to_payload()

    def test_hierarchy_entries_are_strictly_new(self, golden, catalogue):
        new = hierarchy_scenarios()
        assert set(new).isdisjoint(golden)
        assert set(new) <= set(catalogue)
        golden_prints = {entry["fingerprint"] for entry in golden.values()}
        for scenario in new.values():
            assert "hierarchy" in scenario.to_payload()
            assert scenario.fingerprint() not in golden_prints

    def test_payload_round_trip_entire_catalogue(self, catalogue):
        for scenario in catalogue.values():
            clone = Scenario.from_payload(scenario.to_payload())
            assert clone == scenario
            assert clone.fingerprint() == scenario.fingerprint()


class TestCatalogueExecutionDifferential:
    """Every golden scenario, executed on this revision, must reproduce
    the golden result hash (metrics above excluded) — the hierarchy
    subsystem may not change a single analysis outcome."""

    def test_results_bit_identical_to_golden(self, golden, catalogue):
        mismatches = []
        for name in sorted(golden):
            result = execute_scenario(catalogue[name])
            if _result_sha256(result) != golden[name]["result_sha256"]:
                mismatches.append(name)
        assert not mismatches, f"result payloads drifted: {mismatches}"

    def test_hierarchy_result_store_round_trip(self, tmp_path, catalogue):
        """A hierarchy result survives the on-disk store byte-identically,
        keyed by its own (hierarchy-bearing) fingerprint."""
        name = "lookup-O2-64B-llc-excl-fifo"
        result = execute_scenario(catalogue[name])
        assert any(row.model == "probe" for row in result.adversary_rows)
        store = ResultStore(tmp_path / "results.json")
        store.put(result)
        store.save()
        reloaded = ResultStore(tmp_path / "results.json")
        cached = reloaded.get(result.fingerprint)
        assert cached is not None
        assert cached.to_payload() == result.to_payload()
