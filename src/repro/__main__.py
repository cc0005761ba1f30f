"""``python -m repro`` — list, run, and transform scenarios and figures.

Subcommands
-----------
- ``list``                      — the scenario catalogue and figure names
  (``--filter SUBSTR`` narrows it, ``--policies`` shows the policy axis)
- ``figure NAME... | --all``    — regenerate paper figures (paper-style tables)
- ``run`` / ``sweep [NAME...]`` — run scenarios through the SweepRunner,
  optionally pool-parallel (``--jobs``, warm-started workers with chunked
  scheduling), selected by substring (``--select``), persisted
  (``--store``), with per-scenario wall-clock timings appended to a
  benchmark log (``--bench-out``), span-traced (``--trace OUT`` writes a
  Chrome ``trace_event`` JSON viewable in Perfetto), and optionally
  profiled (``--profile OUT`` dumps cProfile stats of the sweep; with
  ``--jobs N`` the workers profile themselves and the stats are merged)
- ``stats`` — inspect the observability outputs: summarize an exported
  trace (``--trace FILE``), render/diff per-scenario engine counters from
  result stores (``--store FILE [--against FILE]``), and diff
  timings/memory across two BENCH logs (``--baseline``/``--current``)
- ``transform NAME --passes P[,P...]`` — apply countermeasure passes to a
  base scenario, analyze original vs. transformed side by side, enforce the
  leakage ordering on the passes' targeted observers, and optionally replay
  semantic equivalence on the VM (``--validate``)
- ``bench-compare`` — gate freshly measured benchmark timings
  (``--current``) against a committed baseline (``--baseline``), failing
  only when a slow entry (``--min-seconds``) regresses beyond
  ``--max-ratio``

The catalogue includes the policy × adversary grid (``lookup-O2-64B-plru``,
``kernel-scatter_102f-32B-fifo``, …), the generated countermeasure grid
(``lookup-O2-64B-hardened``, ``sqm-O2-64B-balanced``, ``naive-32B-sg``, …),
and the AES T-table case study (``aes-O2-64B``,
``aes-O2-64B-preload-aligned``, ``aes-timing-2KB``, …).

Examples::

    python -m repro list --filter hardened
    python -m repro figure figure7a figure7b
    python -m repro sweep --all --jobs 4 --store sweep_results.json
    python -m repro run aes-O2-64B aes-O2-64B-preload-aligned
    python -m repro transform aes-O2-64B \\
        --passes preload,align-tables --validate
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.casestudy import experiments
from repro.casestudy.scenarios import all_scenarios, transformed_scenario
from repro.casestudy.targets import default_layouts
from repro.sweep import Scenario, SweepResult, SweepRunner
from repro.sweep.results import update_bench_log
from repro.sweep.scenario import ScenarioError

FIGURE_RUNNERS = {
    "figure7a": experiments.figure7a,
    "figure7b": experiments.figure7b,
    "figure8": experiments.figure8,
    "figure14a": experiments.figure14a,
    "figure14b": experiments.figure14b,
    "figure14c": experiments.figure14c,
    "figure14d": experiments.figure14d,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce and sweep the paper's cache-leakage analyses.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    listing = commands.add_parser("list", help="list figures and sweep scenarios")
    listing.add_argument("--filter", default=None, metavar="SUBSTR",
                         help="only show names containing this substring")
    listing.add_argument("--policies", action="store_true",
                         help="also list the cache replacement policy axis")

    figure = commands.add_parser("figure", help="regenerate paper figures")
    figure.add_argument("names", nargs="*", help="figure names (see list)")
    figure.add_argument("--all", action="store_true", help="run every figure")
    figure.add_argument("--entry-bytes", type=int, default=None,
                        help="table entry size for 14c/14d (default: paper's 384)")
    figure.add_argument("--nlimbs", type=int, default=None,
                        help="limb count for 14b (default: 24)")

    sweep = commands.add_parser("sweep", aliases=["run"],
                                help="run scenarios via SweepRunner")
    sweep.add_argument("names", nargs="*", help="scenario names (see list)")
    sweep.add_argument("--all", action="store_true", help="run the whole catalogue")
    sweep.add_argument("--select", default=None, metavar="SUBSTR",
                       help="run every catalogue scenario whose name "
                            "contains this substring")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default 1: inline; "
                            "--trace defaults to 2 so the trace shows the "
                            "worker timeline)")
    sweep.add_argument("--store", default=None,
                       help="JSON result store path (read/write cache)")
    sweep.add_argument("--entry-bytes", type=int, default=32,
                       help="entry size of the catalogue's §8.4 scenarios")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute even if cached")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep from the finished "
                            "fingerprints in --store (requires --store; "
                            "incompatible with --no-cache); reports how "
                            "many scenarios are already complete")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-scenario deadline: sets REPRO_DEADLINE_S "
                            "so the engine's resource guard (and pool "
                            "workers) abort runaway analyses as "
                            "status=timeout results; the pool supervisor "
                            "additionally kills workers that make no "
                            "progress for ~2x this budget")
    sweep.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="times a scenario that crashed or hung its "
                            "worker is retried (isolated, with backoff) "
                            "before being quarantined as a failed result "
                            "(default 2)")
    sweep.add_argument("--bench-out", default=None,
                       help="append per-scenario wall-clock timings to this "
                            "JSON log (BENCH_sweep.json format)")
    sweep.add_argument("--no-specialize", action="store_true",
                       help="disable the compile tier (block-specialized "
                            "abstract transformers): sets REPRO_NO_SPECIALIZE "
                            "so pool workers inherit it; results are "
                            "bit-identical either way, only slower")
    sweep.add_argument("--profile", default=None, metavar="OUT",
                       help="profile the sweep with cProfile and dump the "
                            "stats to this file (inspect with pstats or "
                            "snakeviz); a top-function summary and the "
                            "per-scenario specialization hit rates are "
                            "printed; with --jobs > 1 each pool worker "
                            "profiles itself and the stats are merged")
    sweep.add_argument("--trace", default=None, metavar="OUT",
                       help="record phase spans and write a Chrome "
                            "trace_event JSON file (load in ui.perfetto.dev "
                            "or chrome://tracing); sets REPRO_TRACE so pool "
                            "workers trace too, and defaults --jobs to 2 so "
                            "the trace shows the worker timeline; results "
                            "are bit-identical with tracing on or off")

    stats = commands.add_parser(
        "stats",
        help="inspect observability outputs: traces, counter stores, "
             "BENCH logs")
    stats.add_argument("--trace", default=None, metavar="FILE",
                       help="summarize an exported Chrome trace: span "
                            "totals by name, per-process breakdown")
    stats.add_argument("--store", default=None, metavar="FILE",
                       help="render per-scenario engine counters from a "
                            "sweep result store")
    stats.add_argument("--against", default=None, metavar="FILE",
                       help="second result store: show per-scenario "
                            "counter deltas against --store")
    stats.add_argument("--baseline", default=None, metavar="FILE",
                       help="BENCH log to diff --current against "
                            "(timings and cli/rss_mb memory entries)")
    stats.add_argument("--current", default=None, metavar="FILE",
                       help="freshly measured BENCH log (see --baseline)")
    stats.add_argument("--top", type=int, default=15,
                       help="rows per table (default 15)")

    bench = commands.add_parser(
        "bench-compare",
        help="compare a fresh benchmark timing log against a baseline")
    bench.add_argument("--baseline", default="BENCH_sweep.json",
                       help="committed baseline timings (default: "
                            "BENCH_sweep.json)")
    bench.add_argument("--current", default=".bench/BENCH_sweep.json",
                       help="freshly measured timings (default: "
                            ".bench/BENCH_sweep.json)")
    bench.add_argument("--max-ratio", type=float, default=2.0,
                       help="fail when current/baseline exceeds this ratio "
                            "(default 2.0)")
    bench.add_argument("--min-seconds", type=float, default=0.5,
                       help="only gate entries at least this slow in the "
                            "baseline (default 0.5s); faster entries are "
                            "reported but never fail the comparison")

    transform = commands.add_parser(
        "transform", help="apply countermeasure passes and compare leakage")
    transform.add_argument("name", help="base scenario (see list)")
    transform.add_argument("--passes", required=True,
                           help="comma-separated pass names: preload, "
                                "scatter-gather, align-tables, "
                                "balance-branches")
    transform.add_argument("--entry-bytes", type=int, default=32,
                           help="entry size of the catalogue's §8.4 scenarios")
    transform.add_argument("--validate", action="store_true",
                           help="replay original vs. transformed on the VM "
                                "and check semantic equivalence")
    return parser


def _command_list(args) -> int:
    needle = (args.filter or "").lower()
    if args.policies:
        from repro.vm.cache import POLICIES
        print("cache replacement policies (scenario suffixes):")
        for name in POLICIES:
            print(f"  {name}")
        print()
    figures = [name for name in FIGURE_RUNNERS if needle in name.lower()]
    if figures:
        print("figures (python -m repro figure NAME):")
        for name in figures:
            print(f"  {name}")
        print()
    catalogue = {
        name: scenario for name, scenario in all_scenarios().items()
        if needle in name.lower()
    }
    if catalogue:
        print("scenarios (python -m repro sweep NAME, fast geometry):")
        width = max(len(name) for name in catalogue)
        for name, scenario in sorted(catalogue.items()):
            print(f"  {name:<{width}}  [{scenario.kind}] {scenario.description}")
    if needle and not figures and not catalogue:
        print(f"nothing matches {args.filter!r}", file=sys.stderr)
        return 2
    return 0


def _command_figure(args) -> int:
    names = list(FIGURE_RUNNERS) if args.all else args.names
    if not names:
        print("no figures named; try --all or `python -m repro list`",
              file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in FIGURE_RUNNERS]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        runner = FIGURE_RUNNERS[name]
        kwargs = {}
        if args.entry_bytes is not None and name in ("figure14c", "figure14d"):
            kwargs["nbytes"] = args.entry_bytes
        if args.nlimbs is not None and name == "figure14b":
            kwargs["nlimbs"] = args.nlimbs
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        print(result.format())
        status = "matches the paper" if result.all_match else "DEVIATES"
        print(f"  -> {status} ({elapsed:.2f}s)\n")
        failures += 0 if result.all_match else 1
    return 1 if failures else 0


def _render_sweep_result(result: SweepResult) -> str:
    source = "cache" if result.cached else f"{result.elapsed:.2f}s"
    applied = f" transforms={'+'.join(result.transforms)}" if result.transforms else ""
    lines = [f"== {result.scenario} [{result.kind}]{applied} ({source})"]
    if not result.ok:
        error = result.metrics.get("error") or {}
        detail = ": ".join(part for part in (error.get("type"),
                                             error.get("message")) if part)
        lines.append(f"  FAILED [{result.status}] {detail}".rstrip())
        for warning in result.warnings:
            lines.append(f"  note: {warning}")
        return "\n".join(lines)
    if result.kind == "leakage":
        lines.append(result.report.format_full_table())
    else:
        metrics = ", ".join(f"{key}={value:,}"
                            for key, value in sorted(result.metrics.items())
                            if not isinstance(value, dict))
        lines.append(f"  {metrics}")
    environment = result.metrics.get("environment") or {}
    if environment.get("peak_rss_bytes"):
        lines.append(
            f"  peak_rss={environment['peak_rss_bytes'] / 1e6:.1f}MB"
            f"  gc_pauses={environment.get('gc_pause_s', 0.0) * 1000:.1f}ms"
            f" ({environment.get('gc_collections', 0)} collections)")
    return "\n".join(lines)


def _append_bench_log(path: str, results: list[SweepResult]) -> int:
    """Merge freshly measured sweep timings into a BENCH_sweep-style log.

    Cached results carry no meaningful wall-clock and are skipped; keys are
    ``cli/sweep/<scenario>`` so CLI timings sit beside the benchmark
    harness's per-figure entries.  When a result carries an environment
    block, its peak RSS lands as ``cli/rss_mb/<scenario>`` — a coarse
    (process-peak, hence monotone within a worker) memory figure that
    ``stats --baseline/--current`` and ``bench-compare`` can diff to flag
    memory regressions.  Returns the number of entries written.
    """
    entries: dict[str, float] = {}
    for result in results:
        if result.cached or not result.ok:
            # Cached results carry no fresh wall-clock; failed results
            # carry one that measures the failure, not the analysis.
            continue
        entries[f"cli/sweep/{result.scenario}"] = round(result.elapsed, 4)
        environment = result.metrics.get("environment") or {}
        rss = environment.get("peak_rss_bytes")
        if rss:
            entries[f"cli/rss_mb/{result.scenario}"] = round(rss / 1e6, 1)
    return update_bench_log(path, entries)


def _specialization_profile(results: list[SweepResult]) -> str | None:
    """Per-scenario compile-tier lines for ``sweep --profile`` output.

    Shows how much of each scenario's exploration ran through specialized
    block functions (hit rate of ``spec_steps`` against total steps) and
    how many blocks the tier compiled; scenarios without engine counters
    (kernel scenarios, results cached from older stores) are skipped.
    """
    lines = []
    for result in results:
        metrics = result.metrics
        if "spec_steps" not in metrics or "interp_steps" not in metrics:
            continue
        spec_steps = metrics["spec_steps"]
        total = spec_steps + metrics["interp_steps"]
        rate = spec_steps / total if total else 0.0
        lines.append(
            f"  {result.scenario:<44}"
            f"blocks={metrics.get('spec_blocks', 0):>4}"
            f"  spec_steps={spec_steps:>9,}"
            f"  hit_rate={rate:>7.1%}")
    if not lines:
        return None
    return "per-scenario specialization (compile tier):\n" + "\n".join(lines)


def _command_sweep(args) -> int:
    if args.resume and not args.store:
        print("--resume needs --store (the store holds the finished "
              "fingerprints to resume from)", file=sys.stderr)
        return 2
    if args.resume and args.no_cache:
        print("--resume and --no-cache contradict each other",
              file=sys.stderr)
        return 2
    if args.no_specialize:
        # The env var (not just a config flag) so fork/spawn pool workers
        # and every library layer observe the same mode.
        from repro.analysis.specialize import NO_SPECIALIZE_ENV
        os.environ[NO_SPECIALIZE_ENV] = "1"
    if args.trace:
        from repro.obs import trace as obs_trace
        # The env var (like the kill switch above) so fork/spawn pool
        # workers come up tracing; start() covers this parent process.
        os.environ[obs_trace.TRACE_ENV] = "1"
        obs_trace.start()
    # A trace of an inline sweep shows one process and answers few
    # questions, so --trace defaults to the smallest pool that shows the
    # parent/worker split.  An explicit --jobs (even --jobs 1) wins.
    jobs = args.jobs if args.jobs is not None else (2 if args.trace else 1)
    catalogue = all_scenarios(entry_bytes=args.entry_bytes)
    if args.all:
        selected: list[Scenario] = list(catalogue.values())
    elif args.select is not None:
        needle = args.select.lower()
        selected = [scenario for name, scenario in sorted(catalogue.items())
                    if needle in name.lower()]
        if not selected:
            print(f"no scenarios match {args.select!r}; see "
                  f"`python -m repro list`", file=sys.stderr)
            return 2
    else:
        if not args.names:
            print("no scenarios named; try --all or `python -m repro list`",
                  file=sys.stderr)
            return 2
        unknown = [name for name in args.names if name not in catalogue]
        if unknown:
            print(f"unknown scenarios: {', '.join(unknown)}", file=sys.stderr)
            return 2
        selected = [catalogue[name] for name in args.names]

    if args.timeout is not None:
        # The env var (like the mode switches above) so pool workers and
        # the inline path share one deadline; the engine's resource guard
        # turns breaches into status=timeout results.
        from repro.sweep.runner import DEADLINE_ENV
        os.environ[DEADLINE_ENV] = str(args.timeout)
    # A hung scenario never trips the in-engine deadline (it isn't
    # stepping), so the pool supervisor gets a no-progress budget a bit
    # past twice the deadline: the guard aborts cleanly first, the
    # supervisor's kill is the backstop for true wedges.
    task_timeout = (args.timeout * 2 + 5) if args.timeout is not None else None

    from repro.sweep import faults
    fault_dir = None
    if os.environ.get(faults.FAULT_ENV) and not os.environ.get(
            faults.FAULT_DIR_ENV):
        # A chaos run (REPRO_FAULT set) needs its firing budget shared
        # across the processes of this sweep — otherwise every replacement
        # worker re-fires the fault and the retry ladder never converges.
        import tempfile
        fault_dir = tempfile.mkdtemp(prefix="repro-faults-")
        os.environ[faults.FAULT_DIR_ENV] = fault_dir

    runner = SweepRunner(processes=jobs, store=args.store,
                         use_cache=not args.no_cache,
                         max_retries=args.max_retries,
                         task_timeout_s=task_timeout)
    if args.resume and runner.store is not None:
        finished = sum(1 for scenario in selected
                       if scenario.fingerprint() in runner.store)
        print(f"resuming from {args.store}: {finished}/{len(selected)} "
              f"scenario(s) already complete")
    profiler = None
    profile_dir = None
    if args.profile:
        import cProfile
        if jobs > 1:
            # The parent's profiler only sees IPC and bookkeeping; have the
            # pool workers profile themselves (supervisor._worker_main)
            # and merge their dumps into the requested output below.
            import tempfile
            from repro.sweep.runner import PROFILE_DIR_ENV
            profile_dir = tempfile.mkdtemp(prefix="repro-profile-")
            os.environ[PROFILE_DIR_ENV] = profile_dir
        profiler = cProfile.Profile()
        profiler.enable()
    started = time.perf_counter()
    try:
        results = runner.run(selected)
    except KeyboardInterrupt:
        # Workers are already terminated (the supervisor's shutdown path)
        # and every completed result is already checkpointed in the store.
        if profiler is not None:
            profiler.disable()
        _cleanup_fault_dir(fault_dir)
        saved = len(runner.store) if runner.store is not None else 0
        print(f"\ninterrupted; {saved} completed result(s) saved"
              + (f" in {args.store} (rerun with --resume)" if args.store
                 else ""),
              file=sys.stderr)
        return 130
    elapsed = time.perf_counter() - started
    _cleanup_fault_dir(fault_dir)
    if profiler is not None:
        import pstats
        profiler.disable()
        _atomic_dump_stats(profiler, args.profile)
        merged = 0
        if profile_dir is not None:
            import glob
            import shutil
            from repro.sweep.runner import PROFILE_DIR_ENV
            os.environ.pop(PROFILE_DIR_ENV, None)
            worker_dumps = sorted(
                glob.glob(os.path.join(profile_dir, "worker-*.pstats")))
            if worker_dumps:
                combined = pstats.Stats(args.profile)
                for dump in worker_dumps:
                    combined.add(dump)
                _atomic_dump_stats(combined, args.profile)
                merged = len(worker_dumps)
            shutil.rmtree(profile_dir, ignore_errors=True)
        stats = pstats.Stats(args.profile).sort_stats("cumulative")
        suffix = f" (merged {merged} worker profiles)" if merged else ""
        print(f"profile written to {args.profile}{suffix}; "
              f"hottest functions:")
        stats.print_stats(12)
        specialization = _specialization_profile(results)
        if specialization:
            print(specialization)
            print()
    for result in results:
        print(_render_sweep_result(result))
        print()
    hits = sum(1 for result in results if result.cached)
    failed = [result for result in results if not result.ok]
    print(f"{len(results)} scenarios in {elapsed:.2f}s "
          f"({hits} cached, jobs={jobs})")
    pool = runner.last_pool
    if pool is not None and (pool.retries or pool.worker_deaths
                             or pool.quarantined):
        print(f"pool supervision: {pool.worker_deaths} worker death(s), "
              f"{pool.retries} retrie(s), {pool.quarantined} quarantined")
    if args.store:
        print(f"results stored in {args.store}")
    if args.bench_out:
        written = _append_bench_log(args.bench_out, results)
        print(f"{written} timings appended to {args.bench_out}")
    if args.trace:
        from repro.obs import trace as obs_trace
        payload = obs_trace.write(args.trace)
        spans = sum(1 for event in payload["traceEvents"]
                    if event.get("ph") == "X")
        pids = {event["pid"] for event in payload["traceEvents"]}
        print(f"trace written to {args.trace} "
              f"({spans} spans across {len(pids)} processes); "
              f"load it in ui.perfetto.dev")
    if failed:
        # Degraded sweep: some scenarios timed out, errored, or were
        # quarantined.  Everything that succeeded is reported and stored;
        # the distinct exit code lets CI and scripts tell "complete but
        # degraded" (3) from clean (0) and interrupted (130).
        print(f"\n{len(failed)} scenario(s) failed:", file=sys.stderr)
        for result in failed:
            error = result.metrics.get("error") or {}
            print(f"  {result.scenario}: [{result.status}] "
                  f"{error.get('type', '')}: {error.get('message', '')}",
                  file=sys.stderr)
        return 3
    return 0


def _cleanup_fault_dir(fault_dir: str | None) -> None:
    """Remove an auto-provisioned fault-marker directory and its env var."""
    if fault_dir is None:
        return
    import shutil
    from repro.sweep import faults
    os.environ.pop(faults.FAULT_DIR_ENV, None)
    shutil.rmtree(fault_dir, ignore_errors=True)


def _atomic_dump_stats(profile, path: str) -> None:
    """Dump cProfile/pstats data atomically (tempfile + ``os.replace``)."""
    temp = f"{path}.tmp-{os.getpid()}"
    try:
        profile.dump_stats(temp)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def _stats_trace(path: str, top: int) -> int:
    """Summarize an exported Chrome ``trace_event`` file: where the wall
    clock went, by span name and by process."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as problem:
        print(f"cannot read trace {path}: {problem}", file=sys.stderr)
        return 2
    events = payload.get("traceEvents", []) if isinstance(payload, dict) else []
    spans = [event for event in events if event.get("ph") == "X"]
    if not spans:
        print(f"no spans in {path} (was the sweep run with --trace?)",
              file=sys.stderr)
        return 2
    pids = sorted({event["pid"] for event in spans})
    counters = sum(1 for event in events if event.get("ph") == "C")
    by_name: dict[str, list[float]] = {}
    for event in spans:
        bucket = by_name.setdefault(event["name"], [0, 0.0])
        bucket[0] += 1
        bucket[1] += float(event.get("dur", 0.0))
    print(f"{path}: {len(spans)} spans, {counters} counter samples, "
          f"{len(pids)} process(es)")
    print(f"{'span':<44}{'count':>7}{'total ms':>12}{'mean ms':>10}")
    ranked = sorted(by_name.items(), key=lambda item: -item[1][1])
    for name, (count, total_us) in ranked[:top]:
        print(f"{name:<44}{count:>7}{total_us / 1000:>12.2f}"
              f"{total_us / 1000 / count:>10.2f}")
    if len(ranked) > top:
        print(f"({len(ranked) - top} more span names; raise --top)")
    return 0


def _load_store_metrics(path: str) -> dict[str, dict] | None:
    """Scenario-name → numeric-metrics mapping of a result store file."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as problem:
        print(f"cannot read store {path}: {problem}", file=sys.stderr)
        return None
    results = data.get("results", {}) if isinstance(data, dict) else {}
    loaded: dict[str, dict] = {}
    for payload in results.values():
        if not isinstance(payload, dict):
            continue
        metrics = {
            key: value
            for key, value in (payload.get("metrics") or {}).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        loaded[payload.get("scenario", "?")] = metrics
    return loaded


def _stats_store(path: str, against: str | None, top: int) -> int:
    """Render (or diff) the per-scenario engine counters of result stores."""
    current = _load_store_metrics(path)
    if current is None:
        return 2
    if not current:
        print(f"no results in {path}", file=sys.stderr)
        return 2
    if against is None:
        print(f"{path}: {len(current)} scenarios")
        print(f"{'scenario':<44}{'steps':>10}{'merges':>8}{'forks':>7}"
              f"{'peak heap':>10}")
        for name in sorted(current):
            metrics = current[name]
            print(f"{name:<44}{metrics.get('steps', 0):>10,}"
                  f"{metrics.get('merges', 0):>8,}"
                  f"{metrics.get('forks', 0):>7,}"
                  f"{metrics.get('peak_heap_size', 0):>10,}")
        return 0
    baseline = _load_store_metrics(against)
    if baseline is None:
        return 2
    shared = sorted(set(current) & set(baseline))
    if not shared:
        print(f"no scenarios shared between {path} and {against}",
              file=sys.stderr)
        return 2
    changed = []
    for name in shared:
        for key in sorted(set(current[name]) | set(baseline[name])):
            was = baseline[name].get(key, 0)
            now = current[name].get(key, 0)
            if was != now:
                changed.append((name, key, was, now))
    skipped = len(set(current) ^ set(baseline))
    print(f"{len(shared)} scenarios compared"
          + (f" ({skipped} present in only one store, ignored)"
             if skipped else ""))
    if not changed:
        print("all deterministic counters identical")
        return 0
    print(f"{len(changed)} counter difference(s):")
    print(f"{'scenario':<40}{'counter':<22}{'base':>12}{'now':>12}")
    for name, key, was, now in changed[:top]:
        print(f"{name:<40}{key:<22}{was:>12,}{now:>12,}")
    if len(changed) > top:
        print(f"({len(changed) - top} more; raise --top)")
    return 0


def _stats_bench(baseline_path: str, current_path: str, top: int) -> int:
    """Diff two BENCH logs: timing table plus memory (cli/rss_mb) table.

    Informational (always exits 0 on readable inputs): regressions are
    flagged in the output, but *gating* is ``bench-compare``'s job.
    """
    from repro.sweep.results import load_bench_log

    baseline = load_bench_log(baseline_path)
    current = load_bench_log(current_path)
    if not baseline or not current:
        missing = baseline_path if not baseline else current_path
        print(f"no timings in {missing}", file=sys.stderr)
        return 2
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("no entries shared between the two logs", file=sys.stderr)
        return 2
    memory = [key for key in shared if key.startswith("cli/rss_mb/")]
    timing = [key for key in shared if key not in set(memory)]

    def table(title: str, keys: list[str], unit: str, flag_ratio: float):
        if not keys:
            return
        ranked = sorted(
            keys, key=lambda key: -(current[key] / baseline[key]
                                    if baseline[key] > 0 else float("inf")))
        print(f"{title} ({len(keys)} shared entries)")
        print(f"{'entry':<56}{'base':>10}{'now':>10}{'ratio':>8}")
        for key in ranked[:top]:
            base, now = baseline[key], current[key]
            ratio = now / base if base > 0 else float("inf")
            flag = f"  <- {unit} regression" if ratio > flag_ratio else ""
            print(f"{key:<56}{base:>10.3f}{now:>10.3f}{ratio:>8.2f}{flag}")
        if len(ranked) > top:
            print(f"({len(ranked) - top} more; raise --top)")
        print()

    table("timings (seconds)", timing, "timing", 2.0)
    table("peak RSS (MB)", memory, "memory", 1.5)
    return 0


def _command_stats(args) -> int:
    wants_bench = args.baseline is not None or args.current is not None
    if not (args.trace or args.store or wants_bench):
        print("nothing to do: pass --trace FILE, --store FILE "
              "[--against FILE], or --baseline/--current", file=sys.stderr)
        return 2
    if args.against and not args.store:
        print("--against needs --store", file=sys.stderr)
        return 2
    if wants_bench and not (args.baseline and args.current):
        print("--baseline and --current go together", file=sys.stderr)
        return 2
    status = 0
    if args.trace:
        status = max(status, _stats_trace(args.trace, args.top))
    if args.store:
        status = max(status, _stats_store(args.store, args.against, args.top))
    if wants_bench:
        status = max(status,
                     _stats_bench(args.baseline, args.current, args.top))
    return status


def _command_bench_compare(args) -> int:
    """Gate benchmark timings against a committed baseline.

    Entries present in both logs are compared as ``current / baseline``;
    only entries at least ``--min-seconds`` slow in the baseline can fail
    (fast entries are pure noise), and only when the ratio exceeds
    ``--max-ratio``.  Entries missing from either side are reported but
    never fail — partial benchmark runs stay usable.  When the baseline
    records a CPU count different from this machine's, regressions are
    reported as warnings instead of failing: cross-machine timing ratios
    (especially of parallel sweeps) say nothing about the code.  Baselines
    without a recorded environment gate normally.
    """
    from repro.sweep.results import load_bench_environment, load_bench_log

    baseline = load_bench_log(args.baseline)
    if not baseline:
        print(f"no baseline timings in {args.baseline}", file=sys.stderr)
        return 2
    current = load_bench_log(args.current)
    if not current:
        print(f"no current timings in {args.current}", file=sys.stderr)
        return 2
    # Environment comparison is key-tolerant: logs written before a key
    # existed (or after one was retired) still gate — only the keys present
    # in the baseline are consulted, and unknown keys are ignored.
    environment = load_bench_environment(args.baseline)
    recorded_cpus = environment.get("cpu_count")
    cpu_mismatch = (recorded_cpus is not None
                    and recorded_cpus != os.cpu_count())
    if cpu_mismatch:
        print(f"note: baseline recorded on a {recorded_cpus}-CPU machine, "
              f"this one has {os.cpu_count()} — regressions below are "
              f"warnings, not failures")

    shared = sorted(set(baseline) & set(current))
    regressions = []
    print(f"{'entry':<72}{'base':>9}{'now':>9}{'ratio':>8}")
    for key in shared:
        base, now = baseline[key], current[key]
        ratio = now / base if base > 0 else float("inf")
        gated = base >= args.min_seconds
        flag = ""
        if gated and ratio > args.max_ratio:
            regressions.append((key, base, now, ratio))
            flag = "  <- REGRESSION"
        marker = "*" if gated else " "
        name = key.split("::")[-1]
        print(f"{marker}{name:<71}{base:>9.3f}{now:>9.3f}{ratio:>8.2f}{flag}")
    skipped = sorted((set(baseline) | set(current)) - set(shared))
    if skipped:
        print(f"({len(skipped)} entries present in only one log, ignored)")
    if regressions:
        severity = "warning" if cpu_mismatch else "regression"
        print(f"\n{len(regressions)} benchmark {severity}(s) beyond "
              f"{args.max_ratio:.1f}x on gated (>= {args.min_seconds:.1f}s) "
              f"entries:", file=sys.stderr)
        for key, base, now, ratio in regressions:
            print(f"  {key}: {base:.3f}s -> {now:.3f}s ({ratio:.2f}x)",
                  file=sys.stderr)
        if cpu_mismatch:
            print("(not gating: baseline CPU count differs)", file=sys.stderr)
            return 0
        return 1
    gated_count = sum(1 for key in shared
                      if baseline[key] >= args.min_seconds)
    print(f"\nno regressions beyond {args.max_ratio:.1f}x "
          f"({gated_count} gated entries, marked *)")
    return 0


def _command_transform(args) -> int:
    catalogue = all_scenarios(entry_bytes=args.entry_bytes)
    base = catalogue.get(args.name)
    if base is None:
        print(f"unknown scenario {args.name!r}; see `python -m repro list`",
              file=sys.stderr)
        return 2
    if base.kind != "leakage" or base.transforms:
        print(f"{args.name!r} is not an untransformed leakage scenario",
              file=sys.stderr)
        return 2
    from repro.transform import TransformError, targeted_observers

    pass_names = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    try:
        hardened = transformed_scenario(base, pass_names)
        runner = SweepRunner()
        original, transformed = runner.run([base, hardened])
    except (ScenarioError, TransformError) as problem:
        # Unknown passes and passes that do not apply to this kernel (no
        # secret branch to balance, no table to preload, ...) are user
        # errors, not crashes.
        print(str(problem), file=sys.stderr)
        return 2
    for result in (original, transformed):
        if not result.ok:
            # The runner degrades per-scenario failures into status
            # results; for this command an inapplicable pass is still a
            # user error, so surface the diagnostic and exit like one.
            error = result.metrics.get("error") or {}
            print(error.get("message") or f"{result.scenario} failed "
                  f"({result.status})", file=sys.stderr)
            return 2
    print(f"== {base.name}  vs  {'+'.join(pass_names)}")
    header = f"{'cache/observer':<24}{'original':>16}{'transformed':>16}"
    print(header)
    regressions = []
    targeted = set(targeted_observers(hardened.transforms))
    before = {(row.kind, row.observer): row.count for row in original.rows}
    after = {(row.kind, row.observer): row.count for row in transformed.rows}
    for key in sorted(before):
        kind, observer = key
        note = ""
        if observer in targeted and key in after and after[key] > before[key]:
            regressions.append(key)
            note = "  <- REGRESSION"
        print(f"{kind[0]}-Cache/{observer:<16}{before[key]:>16,}"
              f"{after.get(key, 0):>16,}{note}")
    adversaries_before = {(row.kind, row.model): row.count
                          for row in original.adversary_rows}
    for row in transformed.adversary_rows:
        baseline = adversaries_before.get((row.kind, row.model))
        rendered = f"{baseline:,}" if baseline is not None else "-"
        print(f"{row.kind[0]}-Cache/{row.model + ' adv':<16}"
              f"{rendered:>16}{row.count:>16,}")

    status = 0
    if regressions:
        print(f"\nleakage ordering violated on targeted observers: "
              f"{sorted(regressions)}", file=sys.stderr)
        status = 1
    else:
        print(f"\nleakage ordering holds on targeted observers "
              f"({', '.join(sorted(targeted))})")

    if args.validate:
        from repro.analysis.validation import ConcreteValidator
        original_target = base.build_target()
        transformed_target = hardened.build_target()
        fills = _table_fills(original_target)
        validator = ConcreteValidator(original_target.image,
                                      original_target.spec)
        outcome = validator.check_equivalence(
            transformed_target.image,
            default_layouts(original_target.name), fills=fills)
        if outcome.ok:
            print(f"semantic equivalence: OK "
                  f"({outcome.checked} concrete executions)")
        else:
            print("semantic equivalence VIOLATED:", file=sys.stderr)
            for violation in outcome.violations:
                print(f"  {violation}", file=sys.stderr)
            status = 1
    return status


def _table_fills(target) -> dict[str, bytes]:
    """A deterministic byte pattern behind every pointer argument, so
    equivalence replay compares real table contents, not zero-fill."""
    from repro.analysis.validation import DEFAULT_FILL
    return {
        arg.symbol: DEFAULT_FILL for arg in target.spec.args
        if arg.symbol is not None
    }


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "transform":
        return _command_transform(args)
    if args.command == "bench-compare":
        return _command_bench_compare(args)
    if args.command == "stats":
        return _command_stats(args)
    return _command_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
