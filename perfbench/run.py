"""Layered benchmark of the reproduction: time to verdict, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload catalogue-inline --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

The system is a closed batch: one driving process and at most two pool
workers, so the end-to-end figures are times to verdict, not latency
under load.  Workloads, and why each is here:

- ``catalogue-inline``: the 87 scenarios of the fast catalogue
  ``all_scenarios()`` that ``reference.json`` names (78 distinct analyses)
  through ``SweepRunner(processes=1)``.
  Many short, distinct programs, so per-program fixed costs (compile,
  transform, assemble, code generation of the compile tier) dominate;
  variants that share compiled images exercise cache reuse.
- ``paper-figures``: Figures 14b (96 limbs), 14c (with its CacheBleed bank
  cell) and 14d (384-byte entries) at the paper's geometry, through
  ``casestudy.experiments``.  Three programs and ~146k abstract steps: the
  engine and the ``core`` domains do nearly all the work, and
  program-construction layers almost none.
- ``pooled-grid``: the same catalogue through ``SweepRunner(processes=2)``
  into a fresh on-disk ``ResultStore`` (one atomic rewrite per landed
  result), then a warm pass answered from that store.  The only workload
  that exercises the ``sweep`` layer: dispatch, sharding, payload IPC and
  checkpoint writes.

End-to-end metrics, all lower-is-better:

- ``setup_s``: from spawning a pass's interpreter to its first submission
  (imports, catalogue and runner construction); median over passes;
- ``wall_s``: from first submission to last verdict (the cold pass on
  ``pooled-grid``); median over passes;
- ``peak_rss_mb``: peak RSS of the driving process plus its largest pool
  worker; the highest over the passes.

Also printed, but not in the result line: ``figure14b_s``, ``figure14c_s``
and ``figure14d_s`` (time to each figure's verdict, ``paper-figures``
only) and ``failed_ratio`` (verdicts that differ from the reference, over
verdicts checked), which the result line carries as ``failed`` and
``attempted``.

Each pass runs ``perfbench/workload.py`` in a fresh interpreter.  Passes
repeat until ``--seconds`` of passes have run (at least ``MIN_PASSES``),
and each end-to-end metric is the median over the passes.  The seed and
the pass index permute the order in which scenarios are submitted;
verdicts and exact work counters must not depend on it.  Every verdict of
every pass is checked against ``perfbench/reference.json``, together with
the fingerprint of the scenario's definition; a reference scenario with no
result counts as failed.

``--trace 1`` runs the same untraced passes, then one traced pass (spans
around each layer's entry points, see ``layers.py``) and one profiled pass
(cProfile, for the ``analysis``/``core`` split), both in the submission
order of the first untraced pass, and reports the per-layer metrics
instead of the end-to-end ones.  The exact work counters come from every
pass, untraced ones included.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
every pass, the counter history and ``pooled-grid``'s store go to
``perfbench/work/``; nothing else is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers  # the benchmark's own module, beside this script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")

WORKLOADS = ("catalogue-inline", "paper-figures", "pooled-grid")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# Switches that change what the program does or how fast; numbers taken
# with any of them set would not describe the default program.
GUARDED_ENV = (
    "REPRO_NO_SPECIALIZE", "REPRO_NO_VECTORIZE", "REPRO_TRACE",
    "REPRO_FAULT", "REPRO_DEADLINE_S", "REPRO_MAX_RSS_MB",
    "REPRO_GUARD_STEPS", "REPRO_PROFILE_DIR",
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "casestudy.build_target_s": "s",
    "lang.compile_s": "s", "lang.programs": "count", "lang.code_bytes": "B",
    "transform.pipeline_s": "s", "transform.passes": "count",
    "isa.assemble_s": "s", "isa.decoded": "count",
    "specialize.compile_s": "s", "specialize.blocks": "count",
    "specialize.source_lines": "count", "specialize.runs_per_block": "ratio",
    "specialize.step_share": "ratio",
    "analysis.analyze_s": "s", "analysis.steps": "count",
    "analysis.merges": "count", "analysis.forks": "count",
    "analysis.max_configs": "count", "analysis.steps_per_s": "1/s",
    "core.count_s": "s", "core.dag_vertices": "count",
    "core.self_share": "ratio", "core.projection_hit_rate": "ratio",
    "core.lift_memo_hit_rate": "ratio", "core.vs_intern_hit_rate": "ratio",
    "core.vec_pairs": "count", "core.vec_batch_rate": "ratio",
    "vm.kernel_s": "s", "vm.sim_instructions": "count", "vm.sim_ips": "1/s",
    "sweep.first_result_s": "s", "sweep.utilization": "ratio",
    "sweep.imbalance": "ratio", "sweep.checkpoint_s": "s",
    "sweep.checkpoint_bytes": "B", "sweep.warm_s": "s",
    "sweep.retries": "count", "sweep.worker_deaths": "count",
    "sweep.quarantined": "count",
    "obs.trace_overhead": "ratio", "obs.uncovered_s": "s",
}

# Work counters that must repeat exactly between runs of the same code,
# whatever the seed; printed beside the timings.
EXACT_COUNTERS = (
    "analysis.steps", "analysis.merges", "analysis.forks", "isa.decoded",
    "specialize.blocks", "specialize.source_lines", "core.vec_pairs",
    "core.dag_vertices", "vm.sim_instructions", "lang.code_bytes",
    "sweep.checkpoint_bytes",
)


class BenchmarkError(Exception):
    """The benchmark cannot produce numbers; no result line is printed."""


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------

def pass_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run one child interpreter to completion; return its stdout.

    The child leads its own process group, so a pass that overruns is
    killed together with any pool workers it started.
    """
    what = " ".join(argv[1:4])
    child = subprocess.Popen(argv, cwd=ROOT, env=pass_env(), text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"{what} ran over {timeout:.0f}s") from None
    if child.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-12:])
        raise BenchmarkError(f"{what} exited {child.returncode}:\n{tail}")
    return stdout


def run_pass(workload: str, seed: int, index: int, mode: str) -> dict:
    spawned = time.monotonic()
    stdout = run_child([sys.executable, os.path.join(HERE, "workload.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--pass-index", str(index), "--spawned", repr(spawned),
                        "--mode", mode], PASS_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload} {mode} pass printed nothing")
    return json.loads(lines[-1])


def warm_up() -> None:
    """Import the program once, untimed, so every timed pass starts alike."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError("no program to measure: src/repro is missing")
    run_child([sys.executable, "-c",
               "import repro.casestudy.experiments, repro.sweep.supervisor"],
              PASS_TIMEOUT_S)


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced passes filling ``seconds`` (at least MIN_PASSES).

    A pass starts only if a typical pass still fits, so a run takes about
    ``seconds`` whatever the workload.  Each pass submits in its own order,
    drawn from the seed and the pass index, so the median is over orders:
    how the pool's shards break ties moves a single pass by up to a third.
    """
    passes, durations = [], []
    started = time.monotonic()
    while len(passes) < MIN_PASSES or (
            time.monotonic() - started + statistics.median(durations)
            <= seconds):
        began = time.monotonic()
        passes.append(run_pass(workload, seed, len(passes), "plain"))
        durations.append(time.monotonic() - began)
    return passes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def counters_of(one_pass: dict) -> dict:
    """The exact work counters of one pass, traced or not."""
    engine = one_pass["engine"]
    shipped = one_pass["layers"]
    return {
        "analysis.steps": engine["steps"],
        "analysis.merges": engine["merges"],
        "analysis.forks": engine["forks"],
        "isa.decoded": engine["decode_misses"],
        "specialize.blocks": engine["spec_blocks"],
        "specialize.source_lines": sum(shipped["programs"].values()),
        "core.vec_pairs": engine["vec_pairs"],
        "core.dag_vertices": shipped["counts"].get("core.dag_vertices", 0),
        "vm.sim_instructions": shipped["counts"].get("vm.sim_instructions", 0),
        "lang.code_bytes": sum(shipped["images"].values()),
        "sweep.checkpoint_bytes": one_pass.get("checkpoint_bytes", 0),
    }


def check_counters(workload: str, passes: list[dict], digest: str) -> tuple:
    """Merge the passes' exact counters; flag any that differ.

    Counters are compared across the passes of this run and against the
    first run of the same code (any seed), kept in
    ``perfbench/work/counters.json``.
    """
    merged: dict = {}
    flags = []
    for one_pass in passes:
        for name, value in counters_of(one_pass).items():
            if name in merged and merged[name] != value:
                flags.append(f"{name} differs between passes: "
                             f"{merged[name]} vs {value}")
            merged.setdefault(name, value)
    path = os.path.join(WORK, "counters.json")
    try:
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    except (OSError, ValueError):
        history = {}
    if history.get("code") != digest:
        history = {"code": digest, "workloads": {}}
    earlier = history["workloads"].setdefault(workload, {})
    for name, value in merged.items():
        if name in earlier and earlier[name]["value"] != value:
            flags.append(f"{name} = {value}, but {earlier[name]['value']} "
                         f"with seed {earlier[name]['seed']} on this code")
    for name, value in merged.items():
        earlier.setdefault(name, {"value": value, "seed": passes[0]["seed"]})
    write_json(path, history)
    return merged, flags


def end_to_end(passes: list[dict]) -> dict:
    """Medians over the passes; peak RSS is the highest peak of any pass.

    The peak depends on the submission order (what is still allocated
    when the largest analysis runs), so the run's peak is the largest.
    """
    metrics = {name: {"value": median_of(passes, name), "unit": unit}
               for name, unit in END_TO_END.items()}
    metrics["peak_rss_mb"]["value"] = max(p["peak_rss_mb"] for p in passes)
    return metrics


def per_layer(plain: list[dict], traced: dict, profiled: dict) -> tuple:
    """Per-layer metrics, plus each layer's self time for the accounting.

    Span-derived metrics come from the traced pass; what a plain pass also
    measures is the median over the untraced passes.  The base of
    ``obs.trace_overhead`` is the untraced pass in the traced pass's order
    (pass index 0), not the median: the order alone moves a
    ``paper-figures`` or ``pooled-grid`` pass by more than tracing does.
    """
    shipped = traced["layers"]
    spans = shipped["spans"]
    selfs = layers.self_times(spans)
    by_layer: dict[str, float] = {}
    for span in spans:
        layer = span[layers.LAYER]
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[
            (span[layers.PID], span[layers.ID])]
    engine = traced["engine"]
    counts = shipped["counts"]
    profile = profiled["layers"]["profile"]
    arrivals = [span[layers.START] for span in spans
                if span[layers.NAME] == "SweepRunner._remember"]
    per_pid: dict[int, float] = {}
    for span in spans:
        if span[layers.NAME] == "execute_scenario_safe":
            pid = span[layers.PID]
            per_pid[pid] = per_pid.get(pid, 0.0) + (
                span[layers.END] - span[layers.START])
    sim = counts.get("vm.sim_instructions", 0)
    steps = engine["steps"]
    values = {
        "casestudy.build_target_s": by_layer.get("casestudy", 0.0),
        "lang.compile_s": by_layer.get("lang", 0.0),
        "lang.programs": len(shipped["images"]),
        "lang.code_bytes": sum(shipped["images"].values()),
        "transform.pipeline_s": by_layer.get("transform", 0.0),
        "transform.passes": counts.get("transform.passes", 0),
        "isa.assemble_s": by_layer.get("isa", 0.0),
        "isa.decoded": engine["decode_misses"],
        "specialize.compile_s": by_layer.get("specialize", 0.0),
        "specialize.blocks": engine["spec_blocks"],
        "specialize.source_lines": sum(shipped["programs"].values()),
        "specialize.runs_per_block": ratio(engine["spec_block_runs"],
                                           engine["spec_blocks"]),
        "specialize.step_share": ratio(engine["spec_steps"], steps),
        "analysis.analyze_s": by_layer.get("analysis", 0.0),
        "analysis.steps": steps,
        "analysis.merges": engine["merges"],
        "analysis.forks": engine["forks"],
        "analysis.max_configs": engine["max_configs"],
        "analysis.steps_per_s": ratio(steps, by_layer.get("analysis", 0.0)),
        "core.count_s": by_layer.get("core", 0.0),
        "core.dag_vertices": counts.get("core.dag_vertices", 0),
        "core.self_share": ratio(profile.get("repro.core", 0.0),
                                 sum(profile.values())),
        "core.projection_hit_rate": ratio(
            engine["projection_hits"],
            engine["projection_hits"] + engine["projection_misses"]),
        "core.lift_memo_hit_rate": ratio(
            engine["lift_memo_hits"],
            engine["lift_memo_hits"] + engine["lift_memo_misses"]),
        "core.vs_intern_hit_rate": ratio(
            engine["vs_intern_hits"],
            engine["vs_intern_hits"] + engine["vs_intern_misses"]),
        "core.vec_pairs": engine["vec_pairs"],
        "core.vec_batch_rate": 1.0 - ratio(engine["vec_scalar_pairs"],
                                           engine["vec_pairs"])
        if engine["vec_pairs"] else 0.0,
        "vm.kernel_s": by_layer.get("vm", 0.0),
        "vm.sim_instructions": sim,
        "vm.sim_ips": ratio(sim, by_layer.get("vm", 0.0)),
        "sweep.first_result_s": (min(arrivals) - traced["submitted"]
                                 if arrivals else 0.0),
        "sweep.utilization": statistics.median(
            ratio(p["busy_s"], p["workers"] * p["wall_s"]) for p in plain),
        "sweep.imbalance": ratio(max(per_pid.values()),
                                 statistics.mean(per_pid.values()))
        if per_pid else 0.0,
        "sweep.checkpoint_s": sum(
            (span[layers.END] - span[layers.START] for span in spans
             if span[layers.NAME] in layers.CHECKPOINT_SPANS), 0.0),
        "sweep.checkpoint_bytes": plain[0].get("checkpoint_bytes", 0),
        "sweep.warm_s": statistics.median(p.get("warm_s", 0.0) for p in plain),
        "sweep.retries": sum(p.get("retries", 0) for p in plain),
        "sweep.worker_deaths": sum(p.get("worker_deaths", 0) for p in plain),
        "sweep.quarantined": sum(p.get("quarantined", 0) for p in plain),
        "obs.trace_overhead": ratio(traced["wall_s"], plain[0]["wall_s"]),
        "obs.uncovered_s": traced["wall_s"] - layers.covered(
            spans, traced["submitted"], traced["finished"]),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, by_layer, profile


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(temp, path)


def code_digest() -> str:
    """Content hash of the program and of this benchmark.

    Names the code a run measured when the checkout is not a git
    repository, and keys the counter history: counters may move only when
    this digest does.
    """
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs[:] = sorted(name for name in subdirs
                                if os.path.join(directory, name) != WORK)
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def report_workload(workload: str, seed: int, seconds: float,
                    trace: bool, environment: dict) -> dict:
    """Run one workload; print its report; return its result object."""
    tag = f"[{workload} seed={seed}]"
    warm_up()
    plain = measure(workload, seed, seconds)
    passes = list(plain)
    traced = profiled = None
    if trace:
        # Pass index 0: the submission order of the first untraced pass,
        # so that tracing is all that differs from it.
        traced = run_pass(workload, seed, 0, "traced")
        profiled = run_pass(workload, seed, 0, "profiled")
        passes += [traced, profiled]

    attempted = sum(p["attempted"] for p in passes)
    failures = [(p["mode"], name) for p in passes for name in p["failed"]]
    environment["numpy"] = plain[0]["environment"]["numpy"]
    environment["python"] = plain[0]["environment"]["python"]
    print(f"{tag} cpu_count={environment['cpu_count']} "
          f"python={environment['python']} numpy={environment['numpy']} "
          f"commit={environment['commit']} code={environment['code']}")
    summary = end_to_end(plain)
    for name, unit in END_TO_END.items():
        values = [p[name] for p in plain]
        statistic = "max" if name == "peak_rss_mb" else "median"
        print(f"{tag} {name:<14} {summary[name]['value']:10.4f} {unit:<5} "
              f"{statistic} ({spread(values)})")
    if workload == "paper-figures":
        for figure in ("figure14b", "figure14c", "figure14d"):
            values = [p["figure_s"][figure] for p in plain]
            print(f"{tag} {figure + '_s':<14} "
                  f"{statistics.median(values):10.4f} s     "
                  f"median ({spread(values)})")
    failed_ratio = ratio(len(failures), attempted)
    print(f"{tag} {'failed_ratio':<14} {failed_ratio:10.4f} ratio "
          f"({len(failures)} of {attempted} verdicts differ from the "
          f"reference)")
    for mode, name in failures[:20]:
        print(f"{tag}   verdict differs ({mode} pass): {name}")

    counters, flags = check_counters(workload, passes, environment["code"])
    print(f"{tag} counters: " + " ".join(
        f"{name}={counters[name]}" for name in EXACT_COUNTERS
        if name in counters))
    for flag in flags:
        print(f"{tag} FLAG counter moved: {flag}")

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "environment": environment, "counters": counters,
              "counter_flags": flags, "failures": failures,
              "passes": [{key: value for key, value in p.items()
                          if key != "layers"} for p in passes]}
    if trace:
        metrics, by_layer, profile = per_layer(plain, traced, profiled)
        print_layers(tag, metrics, by_layer, profile, traced, plain)
        record["layer_self_s"] = by_layer
        record["profile_self_s"] = profile
        record["spans"] = {"fields": ["id", "parent", "name", "layer", "start",
                                      "end", "scenario", "pid"],
                           "traced": traced["layers"]["spans"]}
    else:
        metrics = summary
    record["metrics"] = metrics
    write_json(os.path.join(WORK, f"last-{workload}.json"), record)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def print_layers(tag: str, metrics: dict, by_layer: dict, profile: dict,
                 traced: dict, plain: list[dict]) -> None:
    total = sum(by_layer.values())
    print(f"{tag} traced pass: wall_s {traced['wall_s']:.4f} s; self time "
          f"by layer (all processes, {total:.4f} s in spans):")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"{tag}   {layer:<12} {seconds:9.4f} s  "
              f"{ratio(seconds, total):6.1%}")
    uncovered = metrics["obs.uncovered_s"]["value"]
    print(f"{tag}   no span covers {uncovered:.4f} s of the traced wall_s "
          f"({ratio(uncovered, traced['wall_s']):.1%})")
    overhead = metrics["obs.trace_overhead"]["value"]
    print(f"{tag}   obs.trace_overhead {overhead:.4f} (traced "
          f"{traced['wall_s']:.4f} s / untraced pass in the same order "
          f"{plain[0]['wall_s']:.4f} s; untraced median over "
          f"{len(plain)} orders {median_of(plain, 'wall_s'):.4f} s)")
    profiled_total = sum(profile.values())
    print(f"{tag}   cProfile self time inside analyze (profiled pass): " +
          ", ".join(f"{package} {ratio(seconds, profiled_total):.1%}"
                    for package, seconds in sorted(
                        profile.items(), key=lambda kv: -kv[1])))
    for name, metric in metrics.items():
        marker = "*" if name in EXACT_COUNTERS else " "
        print(f"{tag} {marker}{name:<26} {metric['value']:14.6g} "
              f"{metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark: time to verdict, end to end and "
                    "per layer.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    armed = [name for name in GUARDED_ENV if os.environ.get(name)]
    try:
        if armed:
            raise BenchmarkError(
                "refusing to take numbers with " + ", ".join(armed) +
                " set: unset them to measure the default program")
        environment = {"cpu_count": os.cpu_count(), "commit": git_commit(),
                       "code": code_digest()}
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {workload: report_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), environment)
                   for workload in workloads}
    except BenchmarkError as problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}.{name}": metric
                        for workload, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
