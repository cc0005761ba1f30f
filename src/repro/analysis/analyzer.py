"""Top-level analyzer: image + input spec + config → leakage report.

This is the library's main entry point (the role CacheAudit's driver plays in
the paper): it builds the initial abstract state from the input spec, runs
the path-exploration engine, counts each observer's trace DAG, and packages
the results as a :class:`~repro.core.leakage.LeakageReport` whose rows are
exactly the tables of the paper's §8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.config import AnalysisConfig, AnalysisError, InputSpec, MemInit
from repro.analysis.engine import Engine, EngineResult
from repro.analysis.state import AbsState, AnalysisContext
from repro.analysis.transfer import SENTINEL_RETURN, Transfer
from repro.core.adversary import PROBE, derive_adversary_bounds
from repro.core.leakage import LeakageReport, ObservationBound
from repro.core.masked import MaskedSymbol
from repro.core.observers import AccessKind
from repro.core.valueset import ValueSet, intern_clear
from repro.isa.image import Image
from repro.isa.registers import ESP
from repro.obs import trace as obs_trace

__all__ = ["analyze", "AnalysisResult", "build_initial_state"]

WIDTH = 32


@dataclass(slots=True)
class AnalysisResult:
    """Leakage report plus everything needed for inspection and figures."""

    report: LeakageReport
    engine_result: EngineResult
    context: AnalysisContext
    spec: InputSpec
    symbol_addresses: dict[str, MaskedSymbol] = field(default_factory=dict)


def build_initial_state(
    context: AnalysisContext, spec: InputSpec, image: Image
) -> tuple[AbsState, dict[str, MaskedSymbol]]:
    """Materialize the initial abstract state described by an input spec."""
    state = AbsState.initial(context)
    table = context.table
    named: dict[str, MaskedSymbol] = {}

    def symbol_for(name: str) -> MaskedSymbol:
        if name not in named:
            named[name] = MaskedSymbol.symbol(table.input_symbol(name), WIDTH)
        return named[name]

    def value_set(constant, high_values, symbol) -> ValueSet:
        populated = [v for v in (constant, high_values, symbol) if v is not None]
        if len(populated) != 1:
            raise AnalysisError("exactly one of constant/high_values/symbol required")
        if constant is not None:
            return ValueSet.constant(constant, WIDTH)
        if high_values is not None:
            return ValueSet.constants(high_values, WIDTH)
        return ValueSet([symbol_for(symbol)])

    for reg_init in spec.registers:
        state.regs[reg_init.reg] = value_set(
            reg_init.constant, reg_init.high_values, reg_init.symbol)

    # Set up the stack: arguments (cdecl order) above the sentinel return
    # address, ESP pointing at the sentinel — exactly the layout the concrete
    # VM produces when the validator pushes arguments and calls the entry.
    stack_top = context.config.stack_top
    esp = stack_top - 4 * (len(spec.args) + 1)
    state.regs[ESP] = ValueSet.constant(esp, WIDTH)
    state.memory.write(
        ValueSet.constant(esp, WIDTH),
        ValueSet.constant(SENTINEL_RETURN, WIDTH), 4, context)
    for index, arg in enumerate(spec.args):
        state.memory.write(
            ValueSet.constant(esp + 4 * (index + 1), WIDTH),
            value_set(arg.constant, arg.high_values, arg.symbol), 4, context)

    for mem_init in spec.memory:
        value = value_set(mem_init.constant, mem_init.high_values, mem_init.symbol)
        address = _mem_init_address(context, mem_init, named, symbol_for)
        state.memory.write(address, value, mem_init.size, context)
    return state, named


def _mem_init_address(context, mem_init: MemInit, named, symbol_for) -> ValueSet:
    at = mem_init.at
    if isinstance(at, int):
        return ValueSet.constant(at, WIDTH)
    if isinstance(at, str):
        return ValueSet([symbol_for(at)])
    name, offset = at
    base = ValueSet([symbol_for(name)])
    # Go through the abstract ADD so the (origin, offset) machinery records
    # the location, keeping it consistent with pointer arithmetic in code.
    address, _ = context.ops.add(base, ValueSet.constant(offset, WIDTH))
    return address


def analyze(
    image: Image,
    spec: InputSpec,
    config: AnalysisConfig | None = None,
) -> AnalysisResult:
    """Analyze one region of an image and bound its leakage per observer.

    The domain's hash-consing tables are released on every exit: the result
    holds the values it needs, and equality never depends on the tables.
    """
    try:
        return _analyze(image, spec, config)
    finally:
        intern_clear()


def _analyze(image: Image, spec: InputSpec,
             config: AnalysisConfig | None) -> AnalysisResult:
    with obs_trace.span("analyze.build_state"):
        context = AnalysisContext(config or AnalysisConfig())
        state, named = build_initial_state(context, spec, image)

    extern_clobbers = {
        image.symbol(name): name for name in spec.extern_clobbers
    }
    transfer = Transfer(context, image, extern_clobbers=extern_clobbers)
    engine = Engine(image, context, transfer)
    engine_result = engine.run(image.symbol(spec.entry), state)

    with obs_trace.span("analyze.count"):
        report = LeakageReport(target=spec.description or spec.entry)
        for (kind, observer_name), dag in engine_result.dags.items():
            final = engine_result.final_vertices[(kind, observer_name)]
            report.record(ObservationBound(
                kind=kind,
                observer=observer_name,
                count=dag.count(final),
                stuttering_count=dag.count(final, stuttering=True),
            ))
        # Trace-/time-adversary bounds derive from the block DAG: the
        # hit/miss trace of any deterministic replacement policy is a
        # function of the block trace, so no extra exploration is needed.
        # The active probe adversary (LLC prime+probe) observes the shared
        # level, whose state is a function of the *interleaved* block trace
        # only — its bound attaches to the SHARED-kind DAG alone.
        models = tuple(context.config.adversary_models)
        if models:
            for (kind, observer_name), dag in engine_result.dags.items():
                if observer_name != "block":
                    continue
                kind_models = models if kind == AccessKind.SHARED else tuple(
                    model for model in models if model != PROBE)
                if not kind_models:
                    continue
                final = engine_result.final_vertices[(kind, observer_name)]
                for adversary in derive_adversary_bounds(dag, final, kind,
                                                         kind_models):
                    report.record_adversary(adversary)
    report.notes = list(context.warnings)
    return AnalysisResult(
        report=report,
        engine_result=engine_result,
        context=context,
        spec=spec,
        symbol_addresses=named,
    )
