"""Path-exploration engine with join-point merging.

The engine drives the abstract transfer function over the binary, maintaining
a set of *configurations* — (call frames, pc, abstract state, one DAG cursor
per observer).  Its scheduling rule makes fork/join precise for the
compiler-generated, reducible kernels the paper analyzes:

- always advance the configuration with the smallest ``(frames..., pc)`` key
  (so both arms of a forward branch reach the join point before anything
  beyond it executes);
- whenever two configurations agree on call frames and pc, *merge* them:
  abstract states are joined and the trace-DAG cursors are merged (which is
  where identical projected traces collapse, per §6.4).

Scheduling is implemented as a ``heapq`` worklist keyed by ``(frames..., pc)``
plus an index of the pending configurations by that same key: successors are
merged into the pending configuration with the same key *at insertion time*,
so the invariant "at most one pending configuration per key" holds without
ever re-sorting or re-scanning the whole worklist.  The key determines the
call frames and the pc and is determined by them, so merged-away entries
never reach the heap and no lazy-deletion pass is needed.

Loops must be concretely bounded (as in the analyzed kernels: loop counters
are known constants, compared through flag inference or pointer offsets) —
secret-dependent loop bounds make the configuration set diverge and are
reported as an :class:`AnalysisError` via the fuel bound, never as a silently
wrong result.
"""

from __future__ import annotations

import gc
import heapq
import os
import time
from dataclasses import dataclass, field
from itertools import count as _count

from repro.analysis.config import AnalysisConfig, AnalysisError, ResourceLimitError
from repro.analysis.specialize import (
    HOT_RUNS,
    compile_tier_evictions,
    specialization_enabled,
    specialized_program,
)
from repro.analysis.state import AbsState, AnalysisContext
from repro.analysis.transfer import SENTINEL_RETURN, Transfer
from repro.core.masked import intern_counters as masked_intern_counters
from repro.core.observers import AccessKind, Observer, ProjectedLabel, project_value_set
from repro.core.tracedag import EMPTY_ENDS, Cursor, EndSet, TraceDAG
from repro.core.valueset import ValueSet
from repro.core.valueset import intern_counters as valueset_intern_counters
from repro.isa.image import Image
from repro.obs import timeline as obs_timeline
from repro.obs import trace as obs_trace

__all__ = ["Engine", "DagKey", "EngineResult", "GUARD_STEPS_ENV",
           "SchedulerStats"]

DagKey = tuple[AccessKind, str]  # (cache kind, observer name)

# Resource-guard check cadence, in abstract steps.  Rides the same
# step-count idea as the timeline sampler: the hot pop loop pays one
# integer comparison, and the wall-clock/RSS syscalls run only every
# ``interval`` steps.  The env override exists for tests (tiny scenarios
# never reach 50k steps) and for callers that want tighter deadlines.
GUARD_STEPS_ENV = "REPRO_GUARD_STEPS"
DEFAULT_GUARD_INTERVAL_STEPS = 50_000


class _ResourceGuard:
    """Deadline/RSS ceiling checks for one engine run.

    Raises :class:`ResourceLimitError` from the worklist loop — the
    cooperative alternative to a worker hanging until the supervisor
    shoots it, or growing until the kernel OOM-killer does.
    """

    __slots__ = ("deadline_s", "max_rss_bytes", "interval", "next_due",
                 "_t0")

    def __init__(self, deadline_s: float | None, max_rss_bytes: int | None,
                 interval: int) -> None:
        self.deadline_s = deadline_s
        self.max_rss_bytes = max_rss_bytes
        self.interval = max(1, interval)
        self.next_due = self.interval
        self._t0 = time.perf_counter()

    @classmethod
    def from_config(cls, config: AnalysisConfig) -> "_ResourceGuard | None":
        if config.deadline_s is None and config.max_rss_bytes is None:
            return None
        interval = DEFAULT_GUARD_INTERVAL_STEPS
        override = os.environ.get(GUARD_STEPS_ENV)
        if override and override.isdigit():
            interval = int(override)
        return cls(config.deadline_s, config.max_rss_bytes, interval)

    def check(self, steps: int) -> None:
        self.next_due = steps + self.interval
        if self.deadline_s is not None:
            elapsed = time.perf_counter() - self._t0
            if elapsed > self.deadline_s:
                raise ResourceLimitError(
                    "timeout",
                    f"deadline of {self.deadline_s:g}s exceeded after "
                    f"{elapsed:.2f}s ({steps} abstract steps)")
        if self.max_rss_bytes is not None:
            rss = obs_timeline.current_rss_bytes()
            if rss > self.max_rss_bytes:
                raise ResourceLimitError(
                    "oom",
                    f"RSS {rss} bytes exceeds the {self.max_rss_bytes}-byte "
                    f"ceiling after {steps} abstract steps")


class _Config:
    """One in-flight execution path (or merged bundle of paths)."""

    __slots__ = ("frames", "pc", "state", "cursors", "order_key")

    def __init__(self, frames: tuple[int, ...], pc: int, state: AbsState,
                 cursors: list[Cursor]) -> None:
        self.frames = frames
        self.pc = pc
        self.state = state
        self.cursors = cursors  # positional, one slot per (kind, observer) DAG
        # Orders the worklist and indexes the pending configurations: two
        # configurations with equal keys share frames and pc, so they merge.
        self.order_key = frames + (pc,)


@dataclass(slots=True)
class SchedulerStats:
    """Worklist and cache statistics of one engine run.

    ``full_sorts`` counts full-worklist sorts; the heapq scheduler never
    performs one, so the field exists to let regression tests assert it
    stays zero if a fallback path is ever (re)introduced.

    The ``*_intern_*`` counters are per-run deltas of the abstract domain's
    hash-consing tables (value sets and masked symbols): because
    :class:`~repro.analysis.state.AnalysisContext` clears those tables when
    it is built, the counters are deterministic per scenario and quantify
    how much sharing the interning layer achieves.

    ``lift_memo_hits``/``lift_memo_misses`` count lookups of the run's
    lifting memo (:class:`~repro.core.valueset.ValueSetOps`), which never
    evicts: it lives and dies with the run's context.

    Every field lands in the result payload under its own name (see
    ``repro.sweep.runner._engine_metrics``), so adding, removing or
    renaming one is a ``METRICS_SCHEMA`` change — except for a
    mode-sensitive counter, which the golden result hashes leave out: it
    keeps the schema (see the ``METRICS_SCHEMA`` comment).
    """

    peak_heap_size: int = 0
    full_sorts: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    projection_hits: int = 0
    projection_misses: int = 0
    lift_memo_hits: int = 0
    lift_memo_misses: int = 0
    vs_intern_hits: int = 0
    vs_intern_misses: int = 0
    sym_intern_hits: int = 0
    sym_intern_misses: int = 0
    # Compile tier: how much of the run went through specialized block
    # functions (repro.analysis.specialize) instead of Transfer.step, and
    # how many compile-tier LRU cache evictions the run incurred.
    spec_blocks: int = 0
    spec_block_runs: int = 0
    spec_steps: int = 0
    interp_steps: int = 0
    cache_evictions: int = 0

    @property
    def spec_step_rate(self) -> float:
        total = self.spec_steps + self.interp_steps
        return self.spec_steps / total if total else 0.0

    @property
    def decode_cache_hit_rate(self) -> float:
        total = self.decode_hits + self.decode_misses
        return self.decode_hits / total if total else 0.0

    @property
    def projection_cache_hit_rate(self) -> float:
        total = self.projection_hits + self.projection_misses
        return self.projection_hits / total if total else 0.0

    @property
    def lift_memo_hit_rate(self) -> float:
        total = self.lift_memo_hits + self.lift_memo_misses
        return self.lift_memo_hits / total if total else 0.0

    @property
    def vs_intern_hit_rate(self) -> float:
        total = self.vs_intern_hits + self.vs_intern_misses
        return self.vs_intern_hits / total if total else 0.0

    @property
    def sym_intern_hit_rate(self) -> float:
        total = self.sym_intern_hits + self.sym_intern_misses
        return self.sym_intern_hits / total if total else 0.0


@dataclass(slots=True)
class EngineResult:
    """Final vertices per DAG plus run statistics."""

    dags: dict[DagKey, TraceDAG]
    final_vertices: dict[DagKey, EndSet]
    steps: int = 0
    max_configs: int = 0
    merges: int = 0
    forks: int = 0
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)


class Engine:
    """pc-ordered abstract executor."""

    def __init__(
        self,
        image: Image,
        context: AnalysisContext,
        transfer: Transfer,
        observers: list[Observer] | None = None,
        kinds: tuple[AccessKind, ...] | None = None,
    ) -> None:
        self.image = image
        self.context = context
        self.transfer = transfer
        config: AnalysisConfig = context.config
        self.observers = observers if observers is not None else config.observers()
        self.kinds = kinds if kinds is not None else config.kinds
        # Engine-owned DAGs skip commit-key deduplication until the first
        # fork: a never-duplicated cursor chain cannot repeat a key, and the
        # run loop flips the flag the moment a step forks.
        self.dags: dict[DagKey, TraceDAG] = {
            (kind, observer.name): TraceDAG(dedupe=False)
            for kind in self.kinds
            for observer in self.observers
        }
        # Cursor storage is positional: each (kind, observer) DAG gets a slot
        # index so the per-access hot loop indexes lists instead of hashing
        # (AccessKind, name) tuples.
        self._dag_keys: list[DagKey] = list(self.dags)
        self._dag_slots: list[TraceDAG] = [self.dags[key] for key in self._dag_keys]
        slot_of = {key: slot for slot, key in enumerate(self._dag_keys)}
        # An engine runs once (run() raises on a second call), so its DAGs,
        # stats and the caches below all belong to that one run.
        self.stats = SchedulerStats()
        # Decoded instructions per pc.  Image.decode_at has its own
        # per-address cache; this front dict only skips the method-call
        # overhead on the hot loop and gives the run its hit/miss counters.
        self._decode_cache: dict[int, object] = {}
        # Projected labels per (address set, offset bits): the projection of
        # an address depends only on the observer's blinding, so one access
        # re-observed by several (kind, observer) DAGs — and the same address
        # re-accessed by later loop iterations — projects exactly once.
        # Keyed by ``(address set's interned id << 8) | offset_bits``: equal
        # sets are the same canonical object within a run, and offset bits
        # fit 8 bits with room to spare, so the packed int is bijective with
        # the old (ValueSet, bits) tuple while hashing a single small int.
        self._projection_cache: dict[int, ProjectedLabel] = {}
        # Canonical label per distinct projection: different addresses often
        # project to *equal* labels (every address in one block), and handing
        # the DAGs one shared object makes their registry-key comparisons
        # identity hits.
        self._label_intern: dict[ProjectedLabel, ProjectedLabel] = {}
        # The active configuration's cursor list, set per step by run().
        self._emit_cursors: list[Cursor] | None = None
        # Emit plan: for each access kind ("I"/"D"), every observer paired
        # with the (dag, slot) pairs its projection feeds.  Built once so
        # _emit does no per-access set algebra.
        self._emit_plan: dict[str, list[tuple[Observer, list[tuple[TraceDAG, int]]]]] = {}
        for access_kind, cache_kind in (("I", AccessKind.INSTRUCTION),
                                        ("D", AccessKind.DATA)):
            matched = {AccessKind.SHARED, cache_kind}
            self._emit_plan[access_kind] = [
                (observer,
                 [(self.dags[(kind, observer.name)], slot_of[(kind, observer.name)])
                  for kind in self.kinds if kind in matched])
                for observer in self.observers
            ]

    # ------------------------------------------------------------------
    # Access routing
    # ------------------------------------------------------------------
    def _emit(self, access_kind: str, address: ValueSet, size: int) -> None:
        """Record one access in every (kind, observer) DAG it is visible to.

        Each (observer, kind) pair receives the label projected for *that*
        observer's ``offset_bits`` — the projection cache (not cross-kind
        label reuse inside the loop) is what deduplicates the computation,
        so a kind can never observe a label projected for a different
        blinding.  The cache probe is inlined and the active configuration's
        cursor list is read from ``_emit_cursors`` (set per step by the main
        loop, avoiding a ``partial`` allocation per instruction) — this is
        the single hottest call site of the engine.
        """
        cursors = self._emit_cursors
        cache = self._projection_cache
        stats = self.stats
        key_base = address._id << 8
        for observer, slots in self._emit_plan[access_kind]:
            cache_key = key_base | observer.offset_bits
            label = cache.get(cache_key)
            if label is not None:
                stats.projection_hits += 1
            else:
                stats.projection_misses += 1
                label = project_value_set(
                    address, observer.offset_bits, self.context.table,
                    self.context.config.projection_policy,
                )
                label = self._label_intern.setdefault(label, label)
                cache[cache_key] = label
            for dag, slot in slots:
                cursors[slot] = dag.access(cursors[slot], label)

    def _project_runs(self, access_kind: str, addresses) -> list:
        """Project a compiled block's address batch, run-length compressed.

        ``addresses`` is a block's fetch or data-access address sequence
        (``access_kind`` "I" or "D") in program order.  Per observer the
        addresses project through the same cache (and counters) as the
        stepwise ``_emit``, and consecutive equal single labels collapse
        into one ``[label, count]`` run, so each DAG advances in one
        ``access_seq`` call per batch instead of one ``access`` per
        address.  Returns one ``(slots, runs)`` pair per observer.

        Per-kind access sequences are unchanged; only the I/D interleaving
        differs, which no I- or D-observing DAG can see (the SHARED guard
        in ``run`` keeps mixed-kind DAGs on the interpreter).
        """
        cache = self._projection_cache
        stats = self.stats
        table = self.context.table
        policy = self.context.config.projection_policy
        intern = self._label_intern
        batches = []
        for observer, slots in self._emit_plan[access_kind]:
            offset_bits = observer.offset_bits
            runs: list[list] = []
            last_label = None
            for address in addresses:
                cache_key = (address._id << 8) | offset_bits
                label = cache.get(cache_key)
                if label is not None:
                    stats.projection_hits += 1
                else:
                    stats.projection_misses += 1
                    label = project_value_set(address, offset_bits, table, policy)
                    label = intern.setdefault(label, label)
                    cache[cache_key] = label
                if label is last_label and label.is_single:
                    runs[-1][1] += 1
                else:
                    runs.append([label, 1])
                    last_label = label
            batches.append((slots, runs))
        return batches

    # ------------------------------------------------------------------
    # Instruction decode
    # ------------------------------------------------------------------
    def _decode(self, pc: int):
        """Decode the instruction at ``pc`` through the per-run cache."""
        instruction = self._decode_cache.get(pc)
        if instruction is not None:
            self.stats.decode_hits += 1
            return instruction
        self.stats.decode_misses += 1
        instruction = self.image.decode_at(pc)
        self._decode_cache[pc] = instruction
        return instruction

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, entry: int, initial_state: AbsState) -> EngineResult:
        """Explore every path from ``entry`` to the sentinel return.

        An engine runs once: a second call raises ``RuntimeError``.  Its
        DAGs skip registry dedupe until the run's first fork, so a second
        exploration from the root could commit keys they never registered.
        """
        if self.stats.peak_heap_size:  # set when a run starts
            raise RuntimeError("an Engine runs once; build one per analysis")
        # Observability is annotation-only: spans/samples record wall-clock
        # *around* the phases below and never feed back into scheduling or
        # the abstract domain (the on/off catalogue differential enforces
        # bit-identical results).
        run_span = obs_trace.span("engine.run", entry=entry)
        run_span.__enter__()
        try:
            return self._run(entry, initial_state, run_span)
        except BaseException:
            # Close the span on aborts (fuel, resource guards) too: a pool
            # worker's trace buffer must stay balanced across scenarios.
            run_span.__exit__(None, None, None)
            raise

    def _run(self, entry: int, initial_state: AbsState, run_span) -> EngineResult:
        # Compile tier: look up the specialized program for this (image,
        # entry).  Its blocks compile and bind one at a time, as they turn
        # hot in the exploration loop.
        evictions_base = compile_tier_evictions()
        program = None
        if specialization_enabled() and AccessKind.SHARED not in self.kinds:
            # A SHARED-kind DAG observes instruction and data accesses
            # interleaved in program order; the compile tier emits a block's
            # fetches batched ahead of its data accesses (identical per-kind
            # sequences, different interleaving), so SHARED runs interpret.
            with obs_trace.span("engine.specialize") as lookup_span:
                program = specialized_program(self.image, entry)
                lookup_span.arg("blocks", len(program.blocks))

        result = EngineResult(dags=self.dags, final_vertices={},
                              scheduler=self.stats)
        cursors = [dag.root_cursor() for dag in self._dag_slots]
        root = _Config(frames=(), pc=entry, state=initial_state, cursors=cursors)

        # Worklist: a heap of (order_key, seq, config) plus an index of the
        # pending configurations by order key.  The seq tiebreaker keeps the
        # heap from ever comparing _Config objects.  Peak-size bookkeeping
        # happens at push/insert time (sizes only grow there), keeping the
        # hot pop loop free of per-iteration max() calls.
        heap: list[tuple[tuple, int, _Config]] = []
        pending: dict[tuple, _Config] = {root.order_key: root}
        heapq.heappush(heap, (root.order_key, 0, root))
        self.stats.peak_heap_size = 1
        result.max_configs = 1

        finished: list[_Config] = []
        fuel = self.context.config.fuel
        vs_base = valueset_intern_counters()
        sym_base = masked_intern_counters()
        emit = self._emit  # bound once; cursors are threaded via attribute
        sampler = obs_timeline.active()
        guard = _ResourceGuard.from_config(self.context.config)

        # The exploration loop allocates strictly acyclic objects (masks,
        # masked symbols, value sets, DAG vertices, cursor tuples), so the
        # cyclic collector can never reclaim anything here — but its
        # generation sweeps scan the whole heap many times per run (measured:
        # every gen-2 pass collecting 0 objects).  Pause it for the loop;
        # reference counting frees the run's garbage as usual.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            # Promote what the run set up (DAGs, caches) out of the young
            # generation first: the first collection after the loop would
            # otherwise traverse every entry those containers gained in it.
            gc.collect(0)
            gc.disable()
        try:
            with obs_trace.span("engine.explore") as explore_span:
                self._explore(heap, pending, finished, fuel, result, emit,
                              program, sampler, guard)
                explore_span.arg("steps", result.steps)
                explore_span.arg("merges", result.merges)
                explore_span.arg("forks", result.forks)
        finally:
            if gc_was_enabled:
                gc.enable()

        self.stats.cache_evictions = compile_tier_evictions() - evictions_base
        self._sync_lift_stats(vs_base, sym_base)
        if sampler is not None:
            sampler.sample(result.steps, len(heap), len(pending))
        # Finalize all cursors per DAG.
        with obs_trace.span("engine.finalize"):
            for slot, key in enumerate(self._dag_keys):
                dag = self._dag_slots[slot]
                ends = EMPTY_ENDS
                for config in finished:
                    ends = ends.union(dag.finalize(config.cursors[slot]))
                result.final_vertices[key] = ends
        run_span.arg("steps", result.steps)
        run_span.__exit__(None, None, None)
        return result

    def _explore(self, heap, pending, finished, fuel, result, emit,
                 program=None, sampler=None, guard=None) -> None:
        """The scheduler loop, split out so run() can bracket it (GC pause)."""
        seq = _count(1)
        stats = self.stats
        # Compile tier, per run: executions so far of each eligible block
        # start, and the blocks that turned hot, bound to this run.
        heat = dict.fromkeys(program.blocks, 0) if program is not None else {}
        hot: dict = {}
        # Data-address collector handed to specialized block functions; one
        # list reused across block executions (cleared after each batch).
        d_log: list = []
        d_append = d_log.append

        while heap:
            # Timeline telemetry: cadenced by step count (deterministic
            # sample positions), one None-check per pop when disabled.
            if sampler is not None and result.steps >= sampler.next_due:
                sampler.sample(result.steps, len(heap), len(pending))
            # Resource guards ride the same step-count cadence: one integer
            # comparison per pop, syscalls only every guard interval.
            if guard is not None and result.steps >= guard.next_due:
                guard.check(result.steps)
            _, _, config = heapq.heappop(heap)
            del pending[config.order_key]
            if config.pc == SENTINEL_RETURN:
                finished.append(config)
                continue

            if program is not None:
                block = hot.get(config.pc)
                if block is None and config.pc in heat:
                    heat[config.pc] += 1
                    if heat[config.pc] == HOT_RUNS:
                        block = hot[config.pc] = self._bind_block(
                            program, config.pc)
                # The fuel guard requires headroom for the whole prefix:
                # without it the interpreted path below replays the block one
                # instruction at a time and raises at the exact step the
                # interpreter always did.  Interior prefix pcs are never CFG
                # leaders, so no pending configuration can name them and
                # atomic execution pops in the interpreted order.
                if block is not None and result.steps + block.n_steps <= fuel:
                    # The fetch batch projects once per run, on the block's
                    # first compiled execution; the data batch every time.
                    batches = block.i_runs
                    if batches is None:
                        batches = block.i_runs = self._project_runs(
                            "I", block.fetches)
                    block.fn(config.state, d_append)
                    if d_log:
                        batches = batches + self._project_runs("D", d_log)
                        d_log.clear()
                    cursors = config.cursors
                    for slots, runs in batches:
                        for dag, slot in slots:
                            cursors[slot] = dag.access_seq(cursors[slot], runs)
                    n_steps = block.n_steps
                    result.steps += n_steps
                    stats.spec_block_runs += 1
                    stats.spec_steps += n_steps
                    # Earlier interpreted executions decoded every pc.
                    stats.decode_hits += n_steps
                    candidate = _Config(
                        frames=config.frames, pc=block.end_pc,
                        state=config.state, cursors=config.cursors,
                    )
                    existing = pending.get(candidate.order_key)
                    if existing is None:
                        pending[candidate.order_key] = candidate
                        if len(pending) > result.max_configs:
                            result.max_configs = len(pending)
                        heapq.heappush(
                            heap, (candidate.order_key, next(seq), candidate))
                        if len(heap) > stats.peak_heap_size:
                            stats.peak_heap_size = len(heap)
                    else:
                        self._merge_into(existing, candidate, result)
                    continue

            if result.steps >= fuel:
                raise AnalysisError(
                    f"fuel exhausted after {result.steps} abstract steps "
                    f"(diverging loop or bound too small)"
                )
            result.steps += 1
            stats.interp_steps += 1

            instruction = self._decode(config.pc)
            self._emit_cursors = config.cursors
            successors = self.transfer.step(config.state, instruction, emit)

            if len(successors) > 1:
                result.forks += 1
                for dag in self._dag_slots:
                    dag.enable_dedupe()
            for position, successor in enumerate(successors):
                frames = config.frames
                if successor.frame_op == "push":
                    frames = frames + (instruction.addr,)
                elif successor.frame_op == "pop":
                    if frames:
                        frames = frames[:-1]
                new_cursors = (
                    config.cursors if position == len(successors) - 1
                    else list(config.cursors)
                )
                candidate = _Config(
                    frames=frames, pc=successor.pc,
                    state=successor.state, cursors=new_cursors,
                )
                existing = pending.get(candidate.order_key)
                if existing is None:
                    pending[candidate.order_key] = candidate
                    if len(pending) > result.max_configs:
                        result.max_configs = len(pending)
                    heapq.heappush(heap, (candidate.order_key, next(seq), candidate))
                    if len(heap) > self.stats.peak_heap_size:
                        self.stats.peak_heap_size = len(heap)
                else:
                    self._merge_into(existing, candidate, result)

    def _bind_block(self, program, pc: int):
        """Compile (or reuse) the block turning hot at ``pc``; bind it."""
        with obs_trace.span("engine.compile_block", pc=pc) as compile_span:
            block = program.bind(pc, self.context)
            compile_span.arg("steps", block.n_steps)
        self.stats.spec_blocks += 1
        return block

    def _merge_into(self, existing: _Config, incoming: _Config,
                    result: EngineResult) -> None:
        """Merge ``incoming`` into the pending config with the same key.

        The merged config keeps its heap position: the keys are equal, so
        its priority is unchanged.
        """
        result.merges += 1
        existing.state = existing.state.join(incoming.state, self.context)
        for slot, dag in enumerate(self._dag_slots):
            existing.cursors[slot] = dag.merge(
                existing.cursors[slot], incoming.cursors[slot]
            )

    def _sync_lift_stats(self, vs_base: tuple[int, int],
                         sym_base: tuple[int, int]) -> None:
        """Copy the lifting-memo and interning counters into the run stats.

        Intern counters are global and monotonic; the run's share is the
        delta against the snapshot taken when the run started.
        """
        ops = self.context.ops
        self.stats.lift_memo_hits = ops.memo_hits
        self.stats.lift_memo_misses = ops.memo_misses
        vs_hits, vs_misses = valueset_intern_counters()
        self.stats.vs_intern_hits = vs_hits - vs_base[0]
        self.stats.vs_intern_misses = vs_misses - vs_base[1]
        sym_hits, sym_misses = masked_intern_counters()
        self.stats.sym_intern_hits = sym_hits - sym_base[0]
        self.stats.sym_intern_misses = sym_misses - sym_base[1]
