"""One pass of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per pass, from the repository root with
``src`` on ``PYTHONPATH``, and reads the JSON object it prints last::

    python3 perfbench/workload.py --workload catalogue-inline --seed 7 \\
        --pass-index 0 --spawned <time.monotonic() at spawn> \\
        [--mode plain|traced|profiled]

The seed and the pass index only permute the order in which the workload
submits its scenarios (or figures); the program never sees them.  The
pass times the workload, then checks every verdict against
``reference.json``.  A plain pass records only the exact work counts (see
``layers.py``); a traced pass adds spans, a profiled pass cProfile.  The
only file a pass writes is ``work/pooled-grid/store.json`` beside this
script.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import sys
import time

import layers  # the benchmark's own module, beside this script

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalogue-inline", "paper-figures", "pooled-grid")

# Engine counters summed over the distinct analyses of a pass.
ENGINE_COUNTERS = (
    "steps", "merges", "forks", "decode_misses", "spec_blocks",
    "spec_block_runs", "spec_steps", "projection_hits", "projection_misses",
    "lift_memo_hits", "lift_memo_misses", "vs_intern_hits",
    "vs_intern_misses", "vec_pairs", "vec_scalar_pairs",
)
KERNEL_VERDICT = ("instructions", "cycles", "timing_classes")


def leakage_verdict(result) -> dict:
    """The fingerprint and the bound and adversary rows of one leakage
    result, as plain data."""
    return {
        "fingerprint": result.fingerprint,
        "rows": [[row.kind, row.observer, row.count, row.stuttering_count]
                 for row in result.rows],
        "adversaries": [[row.kind, row.model, row.count]
                        for row in result.adversary_rows],
    }


def scenario_verdict(result) -> dict:
    """What the reference pins for one catalogue scenario.

    The fingerprint pins the scenario's definition, so a scenario made
    cheaper (a smaller geometry, say) fails even where its verdict would
    come out the same.
    """
    if result.kind == "kernel":
        verdict = {key: result.metrics[key] for key in KERNEL_VERDICT
                   if key in result.metrics}
        verdict["fingerprint"] = result.fingerprint
        return verdict
    return leakage_verdict(result)


def figure_verdict(figure) -> dict:
    """What the reference pins for one paper figure."""
    verdict = leakage_verdict(figure.analysis)
    verdict["cells"] = [[cell.cache, cell.observer, cell.measured_bits,
                         cell.paper_bits] for cell in figure.cells]
    verdict["all_match"] = figure.all_match
    return verdict


def engine_totals(results) -> dict:
    """Engine counters summed over results that ran an analysis here."""
    totals = dict.fromkeys(ENGINE_COUNTERS, 0)
    totals["max_configs"] = 0
    for result in results:
        if result.cached or result.kind != "leakage" or not result.ok:
            continue
        for key in ENGINE_COUNTERS:
            totals[key] += result.metrics.get(key, 0)
        totals["max_configs"] = max(totals["max_configs"],
                                    result.metrics.get("max_configs", 0))
    return totals


def check_catalogue(results, reference: dict) -> tuple[int, list[str]]:
    """Check catalogue results against the reference.

    Returns how many verdicts were checked and the names that failed: each
    reference scenario with no result, and each result that failed or
    whose definition or verdict differs from the reference.
    """
    answered = {result.scenario for result in results}
    missing = [name for name in reference if name not in answered]
    return len(results) + len(missing), missing + [
        result.scenario for result in results
        if not result.ok
        or scenario_verdict(result) != reference.get(result.scenario)]


def catalogue(seed: int, index: int, reference: dict) -> list:
    """The reference's catalogue scenarios in the submission order of one pass.

    Only scenarios the reference names are submitted, so a scenario added
    to the catalogue later does not change the workload, and one dropped
    from it fails the check.  The permutation moves distinct analyses; the
    aliases of one analysis (same fingerprint, e.g. ``figure7a`` and
    ``sqm-O2-64B``) keep their catalogue order.  The first alias submitted
    names the stored result, so this keeps the store's bytes independent
    of the order.
    """
    from repro.casestudy.scenarios import all_scenarios

    scenarios = [scenario for name, scenario in all_scenarios().items()
                 if name in reference]
    aliases: dict[str, list] = {}
    for scenario in scenarios:
        aliases.setdefault(scenario.fingerprint(), []).append(scenario)
    shuffled = list(scenarios)
    random.Random(f"{seed}:{index}").shuffle(shuffled)
    return [aliases[scenario.fingerprint()].pop(0) for scenario in shuffled]


def run_catalogue_inline(seed: int, index: int, out: dict,
                         reference: dict) -> list:
    from repro.sweep import SweepRunner

    scenarios = catalogue(seed, index, reference["catalogue"])
    runner = SweepRunner(processes=1)
    out["submitted"] = time.monotonic()
    results = runner.run(scenarios)
    out["finished"] = time.monotonic()
    out["workers"] = 1
    out["attempted"], out["failed"] = check_catalogue(
        results, reference["catalogue"])
    return results


def run_pooled_grid(seed: int, index: int, out: dict,
                    reference: dict) -> list:
    from repro.sweep import SweepRunner

    scenarios = catalogue(seed, index, reference["catalogue"])
    work = os.path.join(HERE, "work", "pooled-grid")
    os.makedirs(work, exist_ok=True)
    store = os.path.join(work, "store.json")
    if os.path.exists(store):
        os.remove(store)
    runner = SweepRunner(processes=2, store=store)
    out["submitted"] = time.monotonic()
    results = runner.run(scenarios)
    out["finished"] = time.monotonic()
    out["workers"] = min(2, len(results))
    pool = runner.last_pool
    out["retries"] = pool.retries if pool else 0
    out["worker_deaths"] = pool.worker_deaths if pool else 0
    out["quarantined"] = pool.quarantined if pool else 0
    out["checkpoint_bytes"] = os.path.getsize(store)

    warm_start = time.monotonic()
    warm = SweepRunner(processes=2, store=store).run(scenarios)
    out["warm_s"] = time.monotonic() - warm_start
    cold_checked, failed = check_catalogue(results, reference["catalogue"])
    warm_checked, warm_failed = check_catalogue(warm, reference["catalogue"])
    failed += [f"warm:{result.scenario}" for result in warm
               if not result.cached]
    failed += [f"warm:{name}" for name in warm_failed]
    out["attempted"] = cold_checked + warm_checked
    out["failed"] = failed
    return results


def run_paper_figures(seed: int, index: int, out: dict,
                      reference: dict) -> list:
    from repro.casestudy import experiments, targets

    # Figure 14c's CacheBleed bank cell shares 14c's fingerprint, so it
    # rides with 14c and is answered from the runner's cache.
    jobs = [
        ("figure14b", lambda: {
            "figure14b": experiments.figure14b(nlimbs=targets.PAPER_LIMBS)}),
        ("figure14c", lambda: {
            "figure14c": experiments.figure14c(),
            "cachebleed_bank": experiments.cachebleed_bank_analysis()}),
        ("figure14d", lambda: {"figure14d": experiments.figure14d()}),
    ]
    # Peak RSS depends on the order: a pass that runs 14b before 14d peaks
    # about a tenth higher.  The passes of a run walk the six orders in a
    # seeded sequence, so any four consecutive passes include such an order.
    orders = list(itertools.permutations(jobs))
    random.Random(seed).shuffle(orders)
    jobs = orders[index % len(orders)]
    verdicts, figure_s, analyses = {}, {}, []
    out["submitted"] = time.monotonic()
    for name, job in jobs:
        started = time.monotonic()
        produced = job()
        figure_s[name] = time.monotonic() - started
        verdicts.update(produced)
    out["finished"] = time.monotonic()
    out["workers"] = 1
    out["figure_s"] = figure_s
    expected = reference["figures"]
    failed = []
    for name, produced in verdicts.items():
        if name == "cachebleed_bank":
            measured, paper = produced
            verdict = {"measured_bits": measured, "paper_bits": paper}
        else:
            verdict = figure_verdict(produced)
            analyses.append(produced.analysis)
        if verdict != expected.get(name):
            failed.append(name)
    out["attempted"] = len(verdicts)
    out["failed"] = failed
    return analyses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"),
                        default="plain")
    args = parser.parse_args(argv)

    log = layers.SpanLog()
    layers.install(log, spans=args.mode != "plain",
                   profile=args.mode == "profiled")

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    out: dict = {"workload": args.workload, "seed": args.seed,
                 "pass_index": args.pass_index, "mode": args.mode}
    if args.workload == "catalogue-inline":
        results = run_catalogue_inline(args.seed, args.pass_index, out,
                                       reference)
    elif args.workload == "pooled-grid":
        results = run_pooled_grid(args.seed, args.pass_index, out, reference)
    else:
        results = run_paper_figures(args.seed, args.pass_index, out,
                                    reference)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["setup_s"] = out["submitted"] - args.spawned
    out["wall_s"] = out["finished"] - out["submitted"]
    out["peak_rss_mb"] = (own + workers) / 1024.0   # ru_maxrss is in KiB
    out["engine"] = engine_totals(results)
    out["busy_s"] = sum(result.elapsed for result in results
                        if not result.cached)
    from repro.core.vectorize import numpy_version

    out["environment"] = {"python": sys.version.split()[0],
                          "numpy": numpy_version()}
    out["layers"] = log.drain()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # Skip the interpreter's teardown, which frees every analysis object
    # one by one and would only lengthen the run between passes.
    os._exit(status)
