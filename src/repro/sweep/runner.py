"""The sweep runner: scenarios in, cached/parallel results out.

``SweepRunner`` fans a list of :class:`~repro.sweep.scenario.Scenario` out
across a supervised worker pool (or runs them inline for ``processes=1``),
with two cache layers keyed by the scenario fingerprint:

- an **in-process** dict, so figure runners and benchmarks that revisit a
  scenario within one interpreter (e.g. the CacheBleed bank analysis reusing
  the Figure 14c gather analysis) pay for it once;
- an optional **on-disk** :class:`~repro.sweep.results.ResultStore`, so
  repeated sweeps across processes skip finished scenarios entirely.

Execution is deterministic: a scenario's result payload is a pure function
of the scenario (the analysis allocates symbols in a fixed order and the
engine's worklist is totally ordered), so pool scheduling cannot change any
measured bit — only the wall-clock column.

Execution is also *fault-tolerant*: per-scenario failures (crashes, hangs,
resource-limit aborts, exceptions) degrade into ``status != "ok"`` results
instead of losing the batch, the pool supervisor
(:mod:`repro.sweep.supervisor`) retries and quarantines poison scenarios,
and every completed result is checkpointed into the store as it lands —
a killed sweep resumes from its finished fingerprints.  Failed results are
never cached or stored: the store's bytes stay a pure function of the
successfully analyzed scenarios.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import fields
from dataclasses import replace as dataclass_replace
from typing import Iterable

from repro.analysis.config import ResourceLimitError
from repro.core.observers import AccessKind, ProjectionPolicy
from repro.obs import timeline as obs_timeline
from repro.obs import trace as obs_trace
from repro.sweep import faults
from repro.sweep.results import (
    AdversaryRow,
    BoundRow,
    ResultStore,
    SweepResult,
)
from repro.sweep.scenario import KERNEL, LEAKAGE, Scenario, ScenarioError
from repro.vm.cache import HierarchySpec

__all__ = ["DEADLINE_ENV", "MAX_RSS_ENV", "SweepRunner", "default_runner",
           "execute_scenario", "execute_scenario_safe"]

# Sweep-wide resource-guard defaults, inherited by pool workers (fork or
# spawn) like the other mode switches.  A scenario's own AnalysisConfig
# limits win; these fill in when the config leaves them unset.
DEADLINE_ENV = "REPRO_DEADLINE_S"       # per-scenario deadline, seconds
MAX_RSS_ENV = "REPRO_MAX_RSS_MB"        # per-process RSS ceiling, MiB


def _overridden_config(config, scenario: Scenario):
    """Apply a scenario's AnalysisConfig overrides to a target's config."""
    overrides = scenario.config_overrides()
    if not overrides:
        return config
    translated = {}
    for name, value in overrides.items():
        if name == "observers":
            translated["observer_names"] = tuple(value)
        elif name == "kinds":
            translated["kinds"] = tuple(AccessKind[kind] for kind in value)
        elif name == "projection_policy":
            translated["projection_policy"] = ProjectionPolicy[value]
        elif name == "adversaries":
            translated["adversary_models"] = tuple(value)
        elif name == "hierarchy":
            translated["hierarchy"] = HierarchySpec.from_wire(value)
        else:
            translated[name] = value
    return dataclass_replace(config, **translated)


def _guarded_config(config):
    """Fill unset resource limits from the sweep-wide guard env vars.

    The env vars (not constructor plumbing) so fork/spawn pool workers and
    inline runs observe the same limits; a config that already carries its
    own ``deadline_s``/``max_rss_bytes`` keeps them.  Malformed values are
    ignored — a typo'd guard must not crash the sweep it guards.  That
    covers values out of range, too: a deadline that is not a finite
    number >= 0, and an RSS ceiling below one byte.
    """
    updates = {}
    if config.deadline_s is None:
        deadline = _env_number(DEADLINE_ENV)
        if deadline is not None and deadline >= 0:
            updates["deadline_s"] = deadline
    if config.max_rss_bytes is None:
        ceiling = int((_env_number(MAX_RSS_ENV) or 0) * (1 << 20))
        if ceiling > 0:
            updates["max_rss_bytes"] = ceiling
    return dataclass_replace(config, **updates) if updates else config


def _env_number(name: str) -> float | None:
    """The finite number an env var holds; None when unset or malformed."""
    try:
        value = float(os.environ.get(name, ""))
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _engine_metrics(engine_result) -> dict:
    """Deterministic engine counters recorded alongside the bounds.

    Every :class:`~repro.analysis.engine.SchedulerStats` field lands here
    under its own name, so a counter is declared once, on that dataclass.
    The intern counters are per-run deltas of the abstract domain's
    hash-consing layer; `AnalysisContext` clears the tables per analysis, so
    they are a pure function of the scenario (pool and inline runs agree).
    The ``spec_*``/``interp_steps`` counters additionally depend on the
    specialization mode (``REPRO_NO_SPECIALIZE`` zeroes ``spec_*``), and
    ``cache_evictions`` on process history — it stays 0 until a process has
    compiled more distinct programs than the compile-tier cache cap.
    """
    scheduler = engine_result.scheduler
    metrics = {
        "steps": engine_result.steps,
        "max_configs": engine_result.max_configs,
        "merges": engine_result.merges,
        "forks": engine_result.forks,
    }
    for spec in fields(scheduler):
        metrics[spec.name] = getattr(scheduler, spec.name)
    return metrics


def execute_scenario(scenario: Scenario) -> SweepResult:
    """Run one scenario to completion in this process (no caching).

    Alongside the deterministic result, the runner records per-scenario
    machine facts — peak RSS and cyclic-GC pause totals — into the result's
    ``metrics["environment"]`` block (object-only; excluded from the
    payload), and, when tracing is on, a ``scenario.<name>`` span plus the
    engine's timeline samples.

    Failures propagate: callers that want the degrade-into-a-result policy
    (the sweep paths) go through :func:`execute_scenario_safe`.
    """
    from repro.analysis.analyzer import analyze  # deferred: keep import cheap

    started = time.perf_counter()
    with (obs_trace.span(f"scenario.{scenario.name}", kind=scenario.kind),
          obs_timeline.GCPauses() as gc_pauses):
        obs_timeline.begin(scenario.name)
        try:
            faults.inject("scenario.start", scenario.name)
            result = _execute_scenario_inner(scenario, analyze)
        finally:
            timeline = obs_timeline.end()
    result.timeline = tuple(timeline)
    result.metrics["environment"] = {
        "peak_rss_bytes": obs_timeline.peak_rss_bytes(),
        "gc_pause_s": round(gc_pauses.total_s, 6),
        "gc_collections": gc_pauses.collections,
    }
    result.elapsed = time.perf_counter() - started
    return result


def execute_scenario_safe(scenario: Scenario) -> SweepResult:
    """Run one scenario, degrading any failure into a ``status`` result.

    Resource-limit aborts become ``status="timeout"``/``"oom"``; every
    other exception becomes ``status="error"`` carrying the exception class
    and a traceback summary under ``metrics["error"]``.  Interrupts
    (``KeyboardInterrupt``/``SystemExit``) are *not* failures and propagate.
    """
    started = time.perf_counter()
    try:
        return execute_scenario(scenario)
    except ResourceLimitError as problem:
        result = _failed_result(scenario, problem.reason, problem)
    except Exception as problem:
        result = _failed_result(scenario, "error", problem)
    result.elapsed = time.perf_counter() - started
    return result


def _failed_result(scenario: Scenario, status: str,
                   problem: BaseException) -> SweepResult:
    """The reported (never stored) form of one scenario's failure."""
    frames = "".join(traceback.format_exception(
        type(problem), problem, problem.__traceback__)).strip().splitlines()
    return SweepResult(
        scenario=scenario.name,
        fingerprint=scenario.fingerprint(),
        kind=scenario.kind,
        target=scenario.description or scenario.name,
        status=status,
        metrics={"error": {
            "type": type(problem).__name__,
            "message": str(problem),
            "traceback": frames[-8:],    # the useful tail, not the book
        }},
        warnings=(f"{status}: {type(problem).__name__}: {problem}",),
    )


def _execute_scenario_inner(scenario: Scenario, analyze) -> SweepResult:
    if scenario.kind == LEAKAGE:
        target = scenario.build_target()
        config = _guarded_config(_overridden_config(target.config, scenario))
        analysis = analyze(target.image, target.spec, config)
        rows = tuple(
            BoundRow(kind=kind.name, observer=observer,
                     count=bound.count, stuttering_count=bound.stuttering_count)
            for (kind, observer), bound in sorted(
                analysis.report.bounds.items(),
                key=lambda item: (item[0][0].name, item[0][1]))
        )
        adversary_rows = tuple(
            AdversaryRow(kind=kind.name, model=model, count=bound.count)
            for (kind, model), bound in sorted(
                analysis.report.adversaries.items(),
                key=lambda item: (item[0][0].name, item[0][1]))
        )
        result = SweepResult(
            scenario=scenario.name,
            fingerprint=scenario.fingerprint(),
            kind=LEAKAGE,
            target=analysis.report.target,
            rows=rows,
            adversary_rows=adversary_rows,
            transforms=tuple(
                name for name, _params in (scenario.transforms or ())),
            metrics=_engine_metrics(analysis.engine_result),
            warnings=tuple(analysis.report.notes),
        )
    elif scenario.kind == KERNEL:
        runner = scenario.build_target()  # kernel scenarios name a callable
        metrics = runner if isinstance(runner, dict) else dict(runner)
        result = SweepResult(
            scenario=scenario.name,
            fingerprint=scenario.fingerprint(),
            kind=KERNEL,
            target=scenario.description or scenario.name,
            metrics=metrics,
        )
    else:  # pragma: no cover - Scenario.__post_init__ rejects this
        raise ScenarioError(f"unknown scenario kind {scenario.kind!r}")
    return result


# ----------------------------------------------------------------------
# Worker wire format
# ----------------------------------------------------------------------

def _pool_worker_safe(scenario: Scenario) -> dict:
    """Worker entry point: run one scenario, return its wire payload.

    The payload is the deterministic result payload plus the object-only
    extras (timing, telemetry, buffered trace events) under ``_``-keys that
    the parent pops back off before reconstructing the result.  Failures
    ride the same wire as ``status`` payloads; an armed ``truncate`` fault
    corrupts the payload here, on its way out of the worker.
    """
    result = execute_scenario_safe(scenario)
    payload = result.to_payload()
    payload["_elapsed"] = result.elapsed
    payload["_environment"] = result.metrics.get("environment", {})
    if result.timeline:
        payload["_timeline"] = list(result.timeline)
    events = obs_trace.drain()
    if events:
        payload["_trace"] = events
    return faults.truncate_payload(scenario.name, payload)


def _unpack_wire(payload, scenario: Scenario) -> SweepResult | None:
    """Validate and rehydrate one worker wire payload.

    Returns ``None`` for anything that is not a well-formed result payload
    for *this* scenario — a truncated dict, a wrong type, a fingerprint
    mismatch — which the supervisor treats as a retryable failure.  The
    worker's buffered trace events are adopted into the parent's trace as
    a side effect (exactly once per valid payload).
    """
    if not isinstance(payload, dict):
        return None
    payload = dict(payload)
    elapsed = payload.pop("_elapsed", 0.0)
    environment = payload.pop("_environment", {})
    timeline = payload.pop("_timeline", ())
    trace_events = payload.pop("_trace", [])
    try:
        result = SweepResult.from_payload(payload)
    except (KeyError, TypeError, ValueError):
        return None
    if result.fingerprint != scenario.fingerprint():
        return None
    obs_trace.adopt(trace_events)
    result.elapsed = elapsed
    result.timeline = tuple(timeline)
    if environment:
        result.metrics["environment"] = environment
    return result


def _warm_worker() -> None:
    """Pool initializer: warm-start a worker before its first task.

    Pays the heavy imports (analyzer, engine, transfer, the kernel/target
    catalogue with its compile caches, and the transform pipeline) during
    pool spin-up — concurrently across workers — instead of inside the first
    scenario's measured wall-clock.  ``execute_scenario`` defers these
    imports precisely so that *inline* runners stay cheap to construct; the
    initializer is where pool workers opt back in.

    Also clears this worker's trace buffer: under the fork start method the
    child's buffer begins as a copy of the parent's, and shipping those
    events back would duplicate them in the stitched trace.
    """
    import repro.analysis.analyzer  # noqa: F401
    import repro.analysis.specialize  # noqa: F401
    import repro.casestudy.targets  # noqa: F401
    import repro.transform.pipeline  # noqa: F401

    obs_trace.reset()


class SweepRunner:
    """Runs scenario batches with caching and optional process parallelism."""

    def __init__(
        self,
        processes: int = 1,
        store: ResultStore | str | os.PathLike | None = None,
        use_cache: bool = True,
        max_retries: int = 2,
        task_timeout_s: float | None = None,
    ) -> None:
        self.processes = max(1, processes)
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.use_cache = use_cache
        # Supervised-pool knobs: how often a crashing/hanging scenario is
        # retried before quarantine, and how long a worker may go without
        # finishing a scenario before it is declared wedged and killed.
        self.max_retries = max_retries
        self.task_timeout_s = task_timeout_s
        # The most recent pool supervisor, exposing its retry/death/
        # quarantine telemetry for the CLI's degraded-sweep summary.
        self.last_pool = None
        self._memory: dict[str, SweepResult] = {}

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _lookup(self, scenario: Scenario) -> SweepResult | None:
        if not self.use_cache:
            return None
        fingerprint = scenario.fingerprint()
        cached = self._memory.get(fingerprint)
        if cached is None and self.store is not None:
            cached = self.store.get(fingerprint)
            if cached is not None:
                self._memory[fingerprint] = cached
        if cached is None:
            return None
        # Fingerprints ignore cosmetic fields, so a hit may carry another
        # alias of the same analysis — relabel it for this caller.
        return dataclass_replace(cached, cached=True, scenario=scenario.name)

    def _remember(self, result: SweepResult) -> None:
        """Cache one result — successful results only.

        A failed/degraded result is reported to the caller but never enters
        the in-process cache or the on-disk store: caching a failure would
        pin it (the scenario deserves a retry next run), and storing one
        would break the store's bytes-are-a-pure-function-of-the-scenarios
        contract.
        """
        if not result.ok:
            return
        self._memory[result.fingerprint] = result
        if self.store is not None:
            self.store.put(result)

    def _checkpoint(self) -> None:
        """Journal the store to disk (atomic; cheap per-scenario)."""
        if self.store is not None:
            self.store.save()

    def adopt(self, results: Iterable[SweepResult]) -> None:
        """Seed the cache with results computed elsewhere.

        Lets a pool-parallel pre-warm pass feed the process-wide
        :func:`default_runner`, so subsequent figure runners hit the cache.
        """
        for result in results:
            self._remember(result)
        self._checkpoint()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, scenario: Scenario) -> SweepResult:
        """Run (or recall) a single scenario."""
        return self.run([scenario])[0]

    def run(self, scenarios: Iterable[Scenario]) -> list[SweepResult]:
        """Run a batch, returning results in input order.

        Cached scenarios are answered immediately; the misses are executed
        inline or fanned out over the supervised pool, whichever the runner
        was configured for.  Per-scenario failures come back as
        ``status != "ok"`` results (see :func:`execute_scenario_safe`);
        completed results are checkpointed into the store *as they land*,
        so an interrupted or crashed sweep keeps its finished work.
        """
        batch = list(scenarios)
        results: list[SweepResult | None] = [None] * len(batch)
        misses: list[tuple[int, Scenario]] = []
        aliases: list[tuple[int, Scenario, int]] = []  # duplicates of a miss
        first_miss: dict[str, int] = {}  # fingerprint → index of first miss
        for index, scenario in enumerate(batch):
            cached = self._lookup(scenario)
            if cached is not None:
                results[index] = cached
                continue
            fingerprint = scenario.fingerprint()
            if fingerprint in first_miss:
                # Same analysis under another name in this very batch: run it
                # once, share the result.
                aliases.append((index, scenario, first_miss[fingerprint]))
            else:
                first_miss[fingerprint] = index
                misses.append((index, scenario))

        if misses:
            # A traced sweep engages the pool even for a single miss: the
            # acceptance shape of `--trace` is a multi-pid timeline, and a
            # one-scenario --select should still produce one.
            with obs_trace.span("sweep.batch", scenarios=len(batch),
                                misses=len(misses)):
                if self.processes > 1 and (
                        len(misses) > 1 or obs_trace.enabled()):
                    fresh = self._run_pool(
                        [scenario for _, scenario in misses])
                else:
                    fresh = self._run_inline(
                        [scenario for _, scenario in misses])
            for (index, _), result in zip(misses, fresh):
                results[index] = result
            for index, scenario, source_index in aliases:
                results[index] = dataclass_replace(
                    results[source_index], cached=True, scenario=scenario.name)
        return results  # type: ignore[return-value]

    def _run_inline(self, scenarios: list[Scenario]) -> list[SweepResult]:
        """Execute misses in this process, checkpointing as each completes.

        An interrupt (or any other non-``Exception``) mid-batch propagates,
        but everything finished before it is already remembered and
        journaled — nothing completed is ever lost to a late failure.
        """
        fresh = []
        try:
            for scenario in scenarios:
                result = execute_scenario_safe(scenario)
                self._remember(result)
                self._checkpoint()
                fresh.append(result)
        except BaseException:
            self._checkpoint()  # defensive: results above are already saved
            raise
        return fresh

    def _run_pool(self, scenarios: list[Scenario]) -> list[SweepResult]:
        from repro.sweep.supervisor import SupervisedPool  # lazy: cycle

        pool = SupervisedPool(self.processes, max_retries=self.max_retries,
                              task_timeout_s=self.task_timeout_s)
        self.last_pool = pool

        def checkpoint(_index: int, result: SweepResult) -> None:
            self._remember(result)
            self._checkpoint()

        # The supervisor returns results in input order with no holes:
        # every scenario ends as a worker result or a quarantine report.
        return pool.run(scenarios, on_result=checkpoint)


_DEFAULT_RUNNER: SweepRunner | None = None


def default_runner() -> SweepRunner:
    """The process-wide inline runner (shared in-memory cache)."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = SweepRunner(processes=1)
    return _DEFAULT_RUNNER
