"""Record ``reference.json``, the verdicts every benchmark pass is checked against.

Run once, from the repository root, on a revision whose results are known
good::

    PYTHONPATH=src python3 perfbench/record_reference.py

The benchmark itself never runs this script.  Before writing, the script
cross-checks what it recorded against three independent sources and
refuses to write on any disagreement:

- the 79 fingerprints and result hashes of
  ``tests/data/catalogue_golden.json`` (hashes computed the same way as
  ``tests/sweep/test_catalogue_golden.py``);
- ``FigureResult.all_match`` for Figures 14b, 14c and 14d at the paper's
  geometry, and the CacheBleed bank cell against the paper's value;
- the documented ``*-llc-*`` probe bounds: unhardened bases above 1,
  hardened variants exactly 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "data", "catalogue_golden.json")

# The engine counters that differ between execution tiers; the golden
# result hashes leave them out (tests/sweep/test_catalogue_golden.py).
MODE_SENSITIVE = frozenset((
    "spec_blocks", "spec_block_runs", "spec_steps", "interp_steps",
    "cache_evictions", "decode_hits", "decode_misses",
    "projection_hits", "projection_misses",
    "lift_memo_hits", "lift_memo_misses", "lift_memo_evictions",
    "vs_intern_hits", "vs_intern_misses",
    "sym_intern_hits", "sym_intern_misses",
    "vec_ops", "vec_pairs", "vec_scalar_pairs",
))


def result_sha256(result) -> str:
    payload = result.to_payload()
    payload["metrics"] = {key: value for key, value in payload["metrics"].items()
                          if key not in MODE_SENSITIVE}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def main() -> int:
    from workload import figure_verdict, scenario_verdict

    from repro.casestudy import experiments, targets
    from repro.casestudy.scenarios import all_scenarios
    from repro.sweep.runner import execute_scenario

    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    problems = []
    catalogue = {}
    for name, scenario in sorted(all_scenarios().items()):
        result = execute_scenario(scenario)
        if not result.ok:
            problems.append(f"{name}: status {result.status}")
        if name in golden and result_sha256(result) != golden[name]["result_sha256"]:
            problems.append(f"{name}: result differs from the golden hash")
        if name in golden and result.fingerprint != golden[name]["fingerprint"]:
            problems.append(f"{name}: fingerprint differs from the golden one")
        catalogue[name] = scenario_verdict(result)
        if "-llc-" in name:
            probe = [row[2] for row in catalogue[name]["adversaries"]
                     if row[1] == "probe"]
            hardened = "-preload-aligned-" in name or "-hardened-" in name
            if not probe or (probe[0] != 1 if hardened else probe[0] <= 1):
                problems.append(f"{name}: probe bound {probe} is off")
    missing = sorted(set(golden) - set(catalogue))
    if missing:
        problems.append(f"golden scenarios missing: {missing}")

    figures = {
        "figure14b": experiments.figure14b(nlimbs=targets.PAPER_LIMBS),
        "figure14c": experiments.figure14c(),
        "figure14d": experiments.figure14d(),
    }
    recorded = {}
    for name, figure in figures.items():
        if not figure.all_match:
            problems.append(f"{name}: does not match the paper")
        recorded[name] = figure_verdict(figure)
    measured, paper = experiments.cachebleed_bank_analysis()
    if measured != paper:
        problems.append(f"bank cell: {measured} bits, paper {paper}")
    recorded["cachebleed_bank"] = {"measured_bits": measured,
                                   "paper_bits": paper}

    if problems:
        print("not written:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"catalogue": catalogue, "figures": recorded}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}: {len(catalogue)} scenarios, {len(recorded)} "
          f"figure verdicts; {len(golden)} golden hashes matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
