"""Work budget: the exact work four catalogue slices cost, pinned.

The analysis is deterministic: its bounds are a function of program,
inputs and layout only (paper Theorem 1), so the work the engine does to
get them repeats exactly, while wall-clock on a shared host does not.
One fresh interpreter runs four fast-catalogue slices, always in the
order of ``SLICES`` (process-wide caches make the counts depend on
it), and records per slice:

- the engine counters ``steps``, ``merges``, ``forks``, ``decode_misses``;
- ``dag_vertices``: the trace-DAG vertices of the run's DAGs;
- ``sim_instructions``: instructions the concrete VM executed;
- ``calls``: Python calls into ``src/repro``, counted with
  ``sys.setprofile`` (the ``<specialized-blocks>`` clause of
  ``count_call`` named generated block code, which the engine no longer
  has; it matches nothing).
  List, set and dict comprehension frames are left out, because 3.12
  inlines them (PEP 709);
- ``tracked_objects``: GC-tracked objects that survive
  ``Engine._explore`` (``len(gc.get_objects())`` after it minus before).

The interpreter gets ``PYTHONHASHSEED=0`` and no ``REPRO_*`` variable, so
the trace switch and the resource guards of an outer run do not reach
it, and it keeps the cyclic collector off: the collector runs
the runner's ``gc.callbacks`` hook, and when it runs depends on
allocation counts that differ between Python versions.

Every count must equal ``tests/data/work_budget.json``.  A rise fails as a
regression; a fall fails too, so that the gain is recorded.  Re-pin with::

    PYTHONPATH=src python tests/test_work_budget.py > tests/data/work_budget.json

and say why in CHANGES.md.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET = REPO_ROOT / "tests" / "data" / "work_budget.json"
REPIN = ("PYTHONPATH=src python tests/test_work_budget.py "
         "> tests/data/work_budget.json")

SLICES = ("figure14b", "kernel-scatter_102f-32B", "aes-O2-64B-llc-incl-lru",
          "lookup-O2-64B-hardened")
COUNTERS = ("steps", "merges", "forks", "decode_misses", "dag_vertices",
            "sim_instructions", "calls", "tracked_objects")
INLINED_FRAMES = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>"})


def measure() -> dict[str, dict[str, int]]:
    """Run the slices in this process and return their counts."""
    import repro
    from repro.analysis.engine import Engine
    from repro.casestudy.scenarios import all_scenarios
    from repro.sweep.runner import execute_scenario
    from repro.vm.cpu import CPU

    package_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    explore, cpu_run = Engine._explore, CPU.run
    counts: dict[str, int] = {}

    def counted_explore(engine, heap, pending, finished, fuel, result,
                        *args, **kwargs):
        before = len(gc.get_objects())
        explore(engine, heap, pending, finished, fuel, result,
                *args, **kwargs)
        counts["tracked_objects"] += len(gc.get_objects()) - before
        counts["steps"] += result.steps
        counts["merges"] += result.merges
        counts["forks"] += result.forks
        counts["decode_misses"] += engine.stats.decode_misses
        counts["dag_vertices"] += sum(dag.size for dag in result.dags.values())

    def counted_run(cpu, *args, **kwargs):
        before = cpu.instructions_executed
        try:
            return cpu_run(cpu, *args, **kwargs)
        finally:
            counts["sim_instructions"] += cpu.instructions_executed - before

    def count_call(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_name not in INLINED_FRAMES and (
                    code.co_filename.startswith(package_root)
                    or code.co_filename == "<specialized-blocks>"):
                counts["calls"] += 1

    Engine._explore = counted_explore
    CPU.run = counted_run
    catalogue = all_scenarios()
    gc.disable()
    budget = {}
    for name in SLICES:
        counts.update(dict.fromkeys(COUNTERS, 0))
        sys.setprofile(count_call)
        try:
            result = execute_scenario(catalogue[name])
        finally:
            sys.setprofile(None)
        if not result.ok:
            raise RuntimeError(f"{name}: {result.status} {result.metrics}")
        budget[name] = dict(counts)
        gc.collect()
    return budget


def launch() -> dict[str, dict[str, int]]:
    """Measure in a fresh interpreter with the pinned environment."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"work-budget interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def test_work_matches_the_pinned_budget():
    pinned = json.loads(BUDGET.read_text(encoding="utf-8"))
    measured = launch()
    assert list(pinned) == list(SLICES), "re-pin: the slices changed"
    rises, falls = [], []
    for name in SLICES:
        for counter in COUNTERS:
            was, now = pinned[name][counter], measured[name][counter]
            row = f"  {name} {counter}: pinned {was:,}, measured {now:,}"
            if now > was:
                rises.append(row)
            elif now < was:
                falls.append(row)
    report = []
    if rises:
        report += ["work rose (a regression):", *rises]
    if falls:
        report += [f"work fell: re-pin with `{REPIN}` and say why in "
                   f"CHANGES.md:", *falls]
    assert not report, "\n".join(report)


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        json.dump(measure(), sys.stdout)
    else:
        json.dump(launch(), sys.stdout, indent=2)
        print()
