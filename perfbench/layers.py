"""Per-layer spans around ``repro``'s entry points, recorded from outside.

A traced pass calls :func:`install`, which replaces each layer's public
entry point with a wrapper that records one span per call: name, layer,
start, end, parent span, scenario and process.  Nothing under ``src/``
changes; the wrappers only time calls and read their results.  Pool
workers are forked after :func:`install`, so they inherit the wrappers;
each worker's spans ride back to the parent inside the scenario's wire
payload and are adopted there.

A plain pass calls ``install(log, spans=False)``: only the wrappers that
count exact work (image bytes, generated source lines, trace-DAG vertices,
simulated instructions) are installed, and they record no spans, so the
untraced timings carry their counts at the cost of a few hundred cheap
calls.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.  One split has no outside entry point: the
``analysis`` engine versus the ``core`` domains inside ``analyze``.  A
profiled pass (``install(profile=True)``) settles it with cProfile self
time grouped by ``repro.<package>``, with the profiler paused inside the
compile tier and ``TraceDAG.count`` so that it covers exactly the
``analysis.analyze_s`` share.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time

# Span fields, as positions in the list each span is stored as.
ID, PARENT, NAME, LAYER, START, END, SCENARIO, PID = range(8)

# Wire key under which a pool worker ships its spans with each payload.
WIRE_KEY = "_layer_spans"

CHECKPOINT_SPANS = ("ResultStore.put", "ResultStore.save")


class SpanLog:
    """The spans and exact work counts of one process.

    Counts that a pool could repeat in both workers (a program compiled in
    each) are keyed by what they describe, so merging the workers' logs
    counts each program once and the totals do not depend on sharding.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scenario: str | None = None
        self.next_id = 1
        self.images: dict[str, int] = {}      # image fingerprint → text bytes
        self.programs: dict[str, int] = {}    # (image, entry) → source lines
        self.counts: dict[str, int] = {}      # summed counts
        self.profile: dict[str, float] = {}   # package → cProfile self time
        self.profiler: cProfile.Profile | None = None

    def own_process(self) -> None:
        """Start a fresh log in a forked worker (drop the parent's copy)."""
        if self.pid != os.getpid():
            self.__init__()

    def open(self, name: str, layer: str) -> list:
        span = [self.next_id, self.stack[-1] if self.stack else 0, name,
                layer, time.monotonic(), 0.0, self.scenario, self.pid]
        self.next_id += 1
        self.stack.append(span[ID])
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.monotonic()
        self.stack.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def drain(self) -> dict:
        """Everything recorded since the last drain, as plain data."""
        shipped = {"spans": self.spans, "images": self.images,
                   "programs": self.programs, "counts": self.counts,
                   "profile": self.profile}
        self.spans, self.images, self.programs = [], {}, {}
        self.counts, self.profile = {}, {}
        return shipped

    def adopt(self, shipped: dict) -> None:
        """Merge a worker's drained log into this one."""
        self.spans.extend(shipped["spans"])
        self.images.update(shipped["images"])
        self.programs.update(shipped["programs"])
        for counter, amount in shipped["counts"].items():
            self.add(counter, amount)
        for package, seconds in shipped["profile"].items():
            self.profile[package] = self.profile.get(package, 0.0) + seconds


def _package(filename: str) -> str:
    """Group a profiled function by the ``repro`` package it lives in."""
    marker = os.sep + "repro" + os.sep
    if marker in filename:
        rest = filename.split(marker, 1)[1]
        head = rest.split(os.sep, 1)[0]
        return "repro." + head.removesuffix(".py")
    if filename == "~":
        return "builtins"
    return "other"


def _spanned(log: SpanLog, name: str, layer: str, func, after=None,
             pause_profile: bool = False):
    """Wrap ``func`` so each call records a span (and optional counts)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        profiler = log.profiler if pause_profile else None
        if profiler is not None:
            profiler.disable()
        span = log.open(name, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            log.close(span)
            if profiler is not None:
                profiler.enable()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _counted(func, after):
    """Wrap ``func`` so each call only records counts, with no span."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return wrapper


def install(log: SpanLog, spans: bool = True, profile: bool = False) -> None:
    """Wrap the layer entry points of ``repro`` to record into ``log``.

    With ``spans`` false only the counting wrappers go in, without spans;
    ``profile`` (which needs spans) adds cProfile inside ``analyze``.
    """
    from repro.analysis import analyzer, engine
    from repro.casestudy import performance
    from repro.core.tracedag import TraceDAG
    from repro.isa.image import Assembler
    from repro.lang import driver
    from repro.sweep import runner
    from repro.sweep.results import ResultStore
    from repro.sweep.scenario import Scenario
    from repro.transform import pipeline
    from repro.vm.cpu import CPU

    def patch(owner, attribute: str, name: str, layer: str, after=None,
              pause_profile: bool = False) -> None:
        original = getattr(owner, attribute)
        if spans:
            setattr(owner, attribute, _spanned(log, name, layer, original,
                                               after, pause_profile))
        elif after is not None:
            setattr(owner, attribute, _counted(original, after))

    # sweep: one root span per scenario, carrying the scenario's name.
    execute = runner.execute_scenario_safe

    @functools.wraps(execute)
    def execute_scenario_safe(scenario):
        log.scenario = scenario.name
        span = log.open("execute_scenario_safe", "sweep")
        try:
            return execute(scenario)
        finally:
            log.close(span)
            log.scenario = None

    if spans:
        runner.execute_scenario_safe = execute_scenario_safe
    patch(runner.SweepRunner, "_remember", "SweepRunner._remember", "sweep")
    patch(ResultStore, "put", "ResultStore.put", "sweep")
    patch(ResultStore, "save", "ResultStore.save", "sweep")

    # Pool wire: workers ship their spans with each payload; the parent
    # takes them off again before the payload is validated.
    worker_safe = runner._pool_worker_safe
    unpack = runner._unpack_wire

    @functools.wraps(worker_safe)
    def pool_worker_safe(scenario):
        log.own_process()
        payload = worker_safe(scenario)
        if isinstance(payload, dict):
            payload[WIRE_KEY] = log.drain()
        return payload

    @functools.wraps(unpack)
    def unpack_wire(payload, scenario):
        if isinstance(payload, dict) and WIRE_KEY in payload:
            payload = dict(payload)
            log.adopt(payload.pop(WIRE_KEY))
        return unpack(payload, scenario)

    runner._pool_worker_safe = pool_worker_safe
    runner._unpack_wire = unpack_wire

    # casestudy: target construction (kernel scenarios measure in here).
    patch(Scenario, "build_target", "Scenario.build_target", "casestudy")

    # lang and isa: compile, then assemble; distinct images are counted
    # once by fingerprint.
    def count_image(_args, _kwargs, image) -> None:
        text = next((section for section in image.sections
                     if section.name == "text"), None)
        log.images[image.fingerprint] = len(text.data) if text else 0

    patch(driver, "compile_to_assembler", "compile_to_assembler", "lang")
    # The pipeline calls compile_ir_program through its own import.
    patch(pipeline, "compile_ir_program", "compile_ir_program", "lang")
    patch(Assembler, "assemble", "Assembler.assemble", "isa", count_image)

    # transform: unit construction and the pass pipeline.
    def count_passes(args, kwargs, _unit) -> None:
        specs = args[1] if len(args) > 1 else kwargs.get("specs", ())
        log.add("transform.passes", len(specs))

    patch(pipeline, "build_unit", "build_unit", "transform")
    patch(pipeline, "apply_pipeline", "apply_pipeline", "transform",
          count_passes)

    # analysis.specialize: the compile tier's code generation.
    def count_source(args, kwargs, program) -> None:
        image, entry = args[0], args[1]
        source = program.source
        log.programs[f"{image.fingerprint}:{entry}"] = (
            source.count("\n") + 1 if source else 0)

    patch(engine, "specialized_program", "specialized_program", "specialize",
          count_source, pause_profile=True)

    # analysis: the engine run; core: trace-DAG counting.
    def count_vertices(_args, _kwargs, analysis) -> None:
        log.add("core.dag_vertices", sum(
            dag.size for dag in analysis.engine_result.dags.values()))

    if spans:
        analyze = _spanned(log, "analyze", "analysis", analyzer.analyze,
                           count_vertices)
        if profile:
            analyze = _profiled(log, analyze)
    else:
        analyze = _counted(analyzer.analyze, count_vertices)
    analyzer.analyze = analyze
    patch(TraceDAG, "count", "TraceDAG.count", "core", pause_profile=True)

    # vm: kernel measurements, and every simulated instruction.
    patch(performance, "measure_kernel", "measure_kernel", "vm")
    patch(performance, "measure_aes", "measure_aes", "vm")
    cpu_run = CPU.run

    @functools.wraps(cpu_run)
    def run(cpu, *args, **kwargs):
        before = cpu.instructions_executed
        try:
            return cpu_run(cpu, *args, **kwargs)
        finally:
            log.add("vm.sim_instructions",
                    cpu.instructions_executed - before)

    CPU.run = run


def _profiled(log: SpanLog, analyze):
    """Profile each ``analyze`` call and fold its self time by package."""

    @functools.wraps(analyze)
    def wrapper(*args, **kwargs):
        profiler = cProfile.Profile()
        log.profiler = profiler
        profiler.enable()
        try:
            return analyze(*args, **kwargs)
        finally:
            profiler.disable()
            log.profiler = None
            stats = pstats.Stats(profiler).stats
            for (filename, _line, _name), entry in stats.items():
                package = _package(filename)
                log.profile[package] = log.profile.get(package, 0.0) + entry[2]

    return wrapper


def self_times(spans: list[list]) -> dict[tuple, float]:
    """Each span's duration minus the time its direct children cover."""
    child_time: dict[tuple, float] = {}
    for span in spans:
        if span[PARENT]:
            key = (span[PID], span[PARENT])
            child_time[key] = child_time.get(key, 0.0) + span[END] - span[START]
    return {(span[PID], span[ID]):
            span[END] - span[START] - child_time.get((span[PID], span[ID]), 0.0)
            for span in spans}


def covered(spans: list[list], start: float, end: float) -> float:
    """Length of ``[start, end]`` that at least one span covers."""
    intervals = sorted((max(span[START], start), min(span[END], end))
                       for span in spans)
    total, reach = 0.0, start
    for low, high in intervals:
        if high <= reach:
            continue
        total += high - max(low, reach)
        reach = high
    return total
