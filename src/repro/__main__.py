"""``python -m repro`` — list, run, and transform scenarios and figures.

Subcommands
-----------
- ``list``                      — the scenario catalogue and figure names
  (``--filter SUBSTR`` narrows it, ``--policies`` shows the policy axis)
- ``figure NAME... | --all``    — regenerate paper figures (paper-style tables)
- ``run`` / ``sweep [NAME...]`` — run scenarios through the SweepRunner,
  optionally pool-parallel (``--jobs``, warm-started workers that each
  take the next scenario when idle), selected by substring
  (``--select``), persisted (``--store``), span-traced (``--trace OUT``
  writes a Chrome ``trace_event`` JSON viewable in Perfetto), and
  optionally profiled (``--profile OUT`` dumps cProfile stats of the
  sweep, which then runs inline)
- ``stats`` — inspect the observability outputs: summarize an exported
  trace (``--trace FILE``) and render/diff per-scenario engine counters
  from result stores (``--store FILE [--against FILE]``)
- ``transform NAME --passes P[,P...]`` — apply countermeasure passes to a
  base scenario, analyze original vs. transformed side by side, enforce the
  leakage ordering on the passes' targeted observers, and optionally replay
  semantic equivalence on the VM (``--validate``)

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
import contextlib
import math
import os
import sys
import tempfile
import time

from repro.casestudy import experiments
from repro.casestudy.scenarios import all_scenarios, transformed_scenario
from repro.casestudy.targets import default_layouts
from repro.sweep import Scenario, SweepResult, SweepRunner
from repro.sweep.scenario import ScenarioError

# The exit status when stdout's reader closed the pipe: 128 + SIGPIPE,
# what a shell reports for a process killed by it.
BROKEN_PIPE_EXIT = 141

FIGURE_RUNNERS = {
    "figure7a": experiments.figure7a,
    "figure7b": experiments.figure7b,
    "figure8": experiments.figure8,
    "figure14a": experiments.figure14a,
    "figure14b": experiments.figure14b,
    "figure14c": experiments.figure14c,
    "figure14d": experiments.figure14d,
}


def _checked(convert, accept, requirement: str):
    """An argparse ``type=``: convert a flag's text, then range-check it.

    A rejected value is a usage error that names the flag (exit 2), raised
    while the command line is parsed, so no scenario is ever built from it.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


_POSITIVE = _checked(int, lambda value: value >= 1, ">= 1")
_COUNT = _checked(int, lambda value: value >= 0, ">= 0")
# A NaN deadline would make the supervisor kill healthy workers, and a
# negative one would fail every scenario.
_SECONDS = _checked(float, lambda value: math.isfinite(value) and value > 0,
                    "a finite number of seconds > 0")


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
    listing.set_defaults(run=_command_list)

    figure = commands.add_parser("figure", help="regenerate paper figures")
    figure.add_argument("names", nargs="*", help="figure names (see list)")
    figure.add_argument("--all", action="store_true", help="run every figure")
    figure.add_argument("--entry-bytes", type=_POSITIVE, default=None,
                        help="table entry size for 14c/14d (default: paper's 384)")
    figure.add_argument("--nlimbs", type=_POSITIVE, default=None,
                        help="limb count for 14b (default: 24)")
    figure.set_defaults(run=_command_figure)

    sweep = commands.add_parser("sweep", aliases=["run"],
                                help="run scenarios via SweepRunner")
    sweep.add_argument("names", nargs="*", help="scenario names (see list)")
    sweep.add_argument("--all", action="store_true", help="run the whole catalogue")
    sweep.add_argument("--select", default=None, metavar="SUBSTR",
                       help="run every catalogue scenario whose name "
                            "contains this substring")
    sweep.add_argument("--jobs", type=_POSITIVE, default=None,
                       help="worker processes (default 1: inline; "
                            "--trace without --profile defaults to 2 so "
                            "the trace shows the worker timeline)")
    sweep.add_argument("--store", default=None,
                       help="JSON result store path (read/write cache)")
    sweep.add_argument("--entry-bytes", type=_POSITIVE, default=32,
                       help="entry size of the catalogue's §8.4 scenarios")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute even if cached")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep from the finished "
                            "fingerprints in --store (requires --store; "
                            "incompatible with --no-cache); reports how "
                            "many scenarios are already complete")
    sweep.add_argument("--timeout", type=_SECONDS, default=None,
                       metavar="SECONDS",
                       help="per-scenario deadline: sets REPRO_DEADLINE_S "
                            "so the engine's resource guard (and pool "
                            "workers) abort runaway analyses as "
                            "status=timeout results; the pool supervisor "
                            "additionally kills workers that make no "
                            "progress for ~2x this budget")
    sweep.add_argument("--max-retries", type=_COUNT, default=2, metavar="N",
                       help="times a scenario that crashed or hung its "
                            "worker is retried (with backoff) "
                            "before being quarantined as a failed result "
                            "(default 2)")
    sweep.add_argument("--profile", default=None, metavar="OUT",
                       help="profile the sweep with cProfile and dump the "
                            "stats to this file (inspect with pstats or "
                            "snakeviz); a top-function summary and the "
                            "per-scenario share of steps run in block units "
                            "are printed; the sweep runs inline, so "
                            "--jobs > 1 is a usage error")
    sweep.add_argument("--trace", default=None, metavar="OUT",
                       help="record phase spans and write a Chrome "
                            "trace_event JSON file (load in ui.perfetto.dev "
                            "or chrome://tracing); sets REPRO_TRACE so pool "
                            "workers trace too, and without --profile "
                            "defaults --jobs to 2 so the trace shows the "
                            "worker timeline; results are bit-identical "
                            "with tracing on or off")
    sweep.set_defaults(run=_command_sweep)

    stats = commands.add_parser(
        "stats",
        help="inspect observability outputs: traces and counter stores")
    stats.add_argument("--trace", default=None, metavar="FILE",
                       help="summarize an exported Chrome trace: span "
                            "totals by name, per-process breakdown")
    stats.add_argument("--store", default=None, metavar="FILE",
                       help="render per-scenario engine counters from a "
                            "sweep result store")
    stats.add_argument("--against", default=None, metavar="FILE",
                       help="second result store: show per-scenario "
                            "counter deltas against --store")
    stats.add_argument("--top", type=_POSITIVE, default=15,
                       help="rows per table (default 15)")
    stats.set_defaults(run=_command_stats)

    transform = commands.add_parser(
        "transform", help="apply countermeasure passes and compare leakage")
    transform.add_argument("name", help="base scenario (see list)")
    transform.add_argument("--passes", required=True,
                           help="comma-separated pass names: preload, "
                                "scatter-gather, align-tables, "
                                "balance-branches")
    transform.add_argument("--entry-bytes", type=_POSITIVE, default=32,
                           help="entry size of the catalogue's §8.4 scenarios")
    transform.add_argument("--validate", action="store_true",
                           help="replay original vs. transformed on the VM "
                                "and check semantic equivalence")
    transform.set_defaults(run=_command_transform)
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
    deviations = failures = 0
    for name in names:
        runner = FIGURE_RUNNERS[name]
        kwargs = {}
        if args.entry_bytes is not None and name in ("figure14c", "figure14d"):
            kwargs["nbytes"] = args.entry_bytes
        if args.nlimbs is not None and name == "figure14b":
            kwargs["nlimbs"] = args.nlimbs
        started = time.perf_counter()
        try:
            result = runner(**kwargs)
        except experiments.ScenarioFailed as failure:
            print(f"{name}: FAILED {failure}\n")
            failures += 1
            continue
        elapsed = time.perf_counter() - started
        print(result.format())
        status = "matches the paper" if result.all_match else "DEVIATES"
        print(f"  -> {status} ({elapsed:.2f}s)\n")
        deviations += 0 if result.all_match else 1
    # A failed scenario is a degraded run, as for `sweep`.
    return 3 if failures else 1 if deviations else 0


def _render_sweep_result(result: SweepResult) -> str:
    source = "cache" if result.cached else f"{result.elapsed:.2f}s"
    applied = f" transforms={'+'.join(result.transforms)}" if result.transforms else ""
    lines = [f"== {result.scenario} [{result.kind}]{applied} ({source})"]
    if not result.ok:
        lines.append(f"  FAILED {result.failure()}")
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


def _block_unit_profile(results: list[SweepResult]) -> str | None:
    """Per-scenario block-unit lines for ``sweep --profile`` output.

    Shows how much of each scenario's exploration ran in block units (the
    share of ``spec_steps`` in all steps) and how many units the run bound;
    scenarios without engine counters (kernel scenarios, results cached
    from older stores) are skipped.
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
            f"units={metrics.get('spec_blocks', 0):>4}"
            f"  unit_steps={spec_steps:>9,}"
            f"  share={rate:>7.1%}")
    if not lines:
        return None
    return "per-scenario block units:\n" + "\n".join(lines)


def _package_self_time(stats) -> str:
    """Self time (cProfile ``tottime``) summed per ``repro.<package>``.

    Functions outside the ``repro`` tree (builtins, the standard library)
    are summed under ``other``.
    """
    package_root = os.path.dirname(os.path.abspath(__file__)) + os.sep
    totals: dict[str, float] = {}
    for (filename, _line, _name), (_, _, self_time, _, _) in stats.stats.items():
        if filename.startswith(package_root):
            head, nested, _ = filename[len(package_root):].partition(os.sep)
            package = f"repro.{head}" if nested else "repro"
        else:
            package = "other"
        totals[package] = totals.get(package, 0.0) + self_time
    overall = sum(totals.values()) or 1.0
    lines = [f"  {package:<18}{seconds:>9.3f}s {seconds / overall:>7.1%}"
             for package, seconds in sorted(
                 totals.items(), key=lambda item: -item[1])]
    return "self time by package (cProfile tottime):\n" + "\n".join(lines)


@contextlib.contextmanager
def _sweep_environment(args, jobs: int):
    """Set the sweep's environment variables for one run, then restore them.

    Variables rather than arguments, so fork/spawn pool workers and the
    inline path see the same run: ``REPRO_TRACE`` (workers come up
    tracing), ``REPRO_DEADLINE_S`` (one per-scenario deadline) and, for a
    pooled chaos run (``REPRO_FAULT`` set, ``jobs`` > 1), a
    ``REPRO_FAULT_DIR`` that shares the fault firing budget across worker
    generations, so a replacement worker does not re-fire the fault and
    the retry ladder converges.  An inline run counts firings in-process
    and gets no directory: its injected crash ends the process through
    ``os._exit``, which would skip the directory's cleanup.  A tracer the
    sweep started is stopped on the way out.
    """
    from repro.obs import trace as obs_trace
    from repro.sweep import faults
    from repro.sweep.runner import DEADLINE_ENV

    chaos = (jobs > 1 and os.environ.get(faults.FAULT_ENV)
             and not os.environ.get(faults.FAULT_DIR_ENV))
    with (tempfile.TemporaryDirectory(prefix="repro-faults-") if chaos
          else contextlib.nullcontext()) as fault_dir:
        planted = {}
        if args.trace:
            planted[obs_trace.TRACE_ENV] = "1"
        if args.timeout is not None:
            planted[DEADLINE_ENV] = str(args.timeout)
        if fault_dir is not None:
            planted[faults.FAULT_DIR_ENV] = fault_dir
        saved = {name: os.environ.get(name) for name in planted}
        os.environ.update(planted)
        started_tracer = bool(args.trace) and not obs_trace.enabled()
        if started_tracer:
            obs_trace.start()
        try:
            yield
        finally:
            if started_tracer:
                obs_trace.stop()
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def _command_sweep(args) -> int:
    if args.resume and not args.store:
        print("--resume needs --store (the store holds the finished "
              "fingerprints to resume from)", file=sys.stderr)
        return 2
    if args.resume and args.no_cache:
        print("--resume and --no-cache contradict each other",
              file=sys.stderr)
        return 2
    if args.profile and (args.jobs or 1) > 1:
        print(f"--profile profiles an inline sweep; drop --jobs {args.jobs}",
              file=sys.stderr)
        return 2
    # A trace of an inline sweep shows one process and answers few
    # questions, so --trace defaults to the smallest pool that shows the
    # parent/worker split; --profile keeps the analysis in this process.
    # An explicit --jobs (even --jobs 1) wins.
    jobs = args.jobs or (2 if args.trace and not args.profile else 1)
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

    # A hung scenario never trips the in-engine deadline (it isn't
    # stepping), so the pool supervisor gets a no-progress budget a bit
    # past twice the deadline: the guard aborts cleanly first, the
    # supervisor's kill is the backstop for true wedges.
    task_timeout = (args.timeout * 2 + 5) if args.timeout is not None else None
    runner = SweepRunner(processes=jobs, store=args.store,
                         use_cache=not args.no_cache,
                         max_retries=args.max_retries,
                         task_timeout_s=task_timeout)
    if args.resume and runner.store is not None:
        finished = sum(1 for scenario in selected
                       if scenario.fingerprint() in runner.store)
        print(f"resuming from {args.store}: {finished}/{len(selected)} "
              f"scenario(s) already complete")
    with _sweep_environment(args, jobs):
        profiler = None
        if args.profile:
            import cProfile
            profiler = cProfile.Profile()
        started = time.perf_counter()
        try:
            with profiler or contextlib.nullcontext():
                results = runner.run(selected)
        except KeyboardInterrupt:
            # Workers are already terminated (the supervisor's shutdown
            # path) and every completed result is already checkpointed.
            saved = len(runner.store) if runner.store is not None else 0
            print(f"\ninterrupted; {saved} completed result(s) saved"
                  + (f" in {args.store} (rerun with --resume)" if args.store
                     else ""),
                  file=sys.stderr)
            return 130
        elapsed = time.perf_counter() - started
        if profiler is not None:
            import pstats
            _atomic_dump_stats(profiler, args.profile)
            stats = pstats.Stats(profiler).sort_stats("cumulative")
            print(f"profile written to {args.profile}; hottest functions:")
            stats.print_stats(12)
            print(_package_self_time(stats))
            print()
            units = _block_unit_profile(results)
            if units:
                print(units)
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
            print(f"  {result.scenario}: {result.failure()}", file=sys.stderr)
        return 3
    return 0


def _atomic_dump_stats(profile, path: str) -> None:
    """Dump cProfile data atomically (tempfile + ``os.replace``)."""
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


def _command_stats(args) -> int:
    if not (args.trace or args.store):
        print("nothing to do: pass --trace FILE or --store FILE "
              "[--against FILE]", file=sys.stderr)
        return 2
    if args.against and not args.store:
        print("--against needs --store", file=sys.stderr)
        return 2
    status = 0
    if args.trace:
        status = max(status, _stats_trace(args.trace, args.top))
    if args.store:
        status = max(status, _stats_store(args.store, args.against, args.top))
    return status


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
            print(f"{result.scenario}: FAILED {result.failure()}",
                  file=sys.stderr)
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:  # usage errors (2) and --help (0) return
        return stop.code
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so
        # the interpreter's final flush of the dead pipe stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
