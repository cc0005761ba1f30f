"""Compile-tier fidelity: specialized blocks match the interpreter, bit for bit.

Three layers of evidence:

1. **Catalogue differential.**  Every scenario in the sweep catalogue runs
   twice — specialization on and off — and the full result payloads (figure
   counts, leakage bounds, adversary rows, warnings, and the step/merge/fork
   scheduler counters) must be identical.  Only the counters that *describe*
   the execution mode (``spec_*``, cache hit counters) may differ.
2. **Random-program differential.**  Hypothesis generates straight-line
   instruction sequences over the supported mnemonic set; the specialized
   block function and the stepwise ``Transfer.step`` path must produce the
   same abstract state (registers, flags, flag provenance) and the same
   data-access sequence, starting from fresh, identical contexts.
3. **Counter invariants.**  ``spec_steps + interp_steps == steps`` and
   ``decode_hits + decode_misses == steps`` hold in every mode, and both
   the config knob and the ``REPRO_NO_SPECIALIZE`` env var actually turn
   the tier off.
4. **The hotness gate.**  A block compiles on its ``HOT_RUNS``-th execution
   in a run: code that runs once compiles nothing, a loop body compiles
   once and its code is reused by later analyses of the same image.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import engine as engine_module
from repro.analysis.analyzer import build_initial_state
from repro.analysis.config import AnalysisConfig, InputSpec
from repro.analysis.engine import Engine
from repro.analysis.specialize import (
    HOT_RUNS,
    NO_SPECIALIZE_ENV,
    specialization_enabled,
    specialized_program,
)
from repro.analysis.state import AnalysisContext
from repro.analysis.transfer import Transfer
from repro.casestudy.scenarios import all_scenarios
from repro.isa import parse_asm
from repro.isa.instructions import CONDITIONS
from repro.isa.registers import EAX, EBX, ESI, ESP
from repro.obs import trace
from repro.sweep.runner import execute_scenario

# Metric keys that legitimately depend on the execution mode (how the work
# was done) or process history, as opposed to what the analysis computed.
# Everything else in the payload must be bit-identical across modes.
MODE_SENSITIVE_METRICS = frozenset((
    "spec_blocks", "spec_block_runs", "spec_steps", "interp_steps",
    "cache_evictions",
    "decode_hits", "decode_misses",
    "projection_hits", "projection_misses",
    "lift_memo_hits", "lift_memo_misses",
    "vs_intern_hits", "vs_intern_misses",
    "sym_intern_hits", "sym_intern_misses",
))


def _comparable_payload(result) -> dict:
    payload = result.to_payload()
    payload["metrics"] = {
        key: value for key, value in payload["metrics"].items()
        if key not in MODE_SENSITIVE_METRICS
    }
    return payload


class TestCatalogueDifferential:
    """Every catalogue scenario, specialization on vs off."""

    def test_every_scenario_bit_identical(self, monkeypatch):
        mismatches = []
        for name, scenario in sorted(all_scenarios().items()):
            monkeypatch.delenv(NO_SPECIALIZE_ENV, raising=False)
            with_tier = _comparable_payload(execute_scenario(scenario))
            monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
            without_tier = _comparable_payload(execute_scenario(scenario))
            if with_tier != without_tier:
                mismatches.append(name)
        assert not mismatches, mismatches


# ----------------------------------------------------------------------
# Random straight-line programs through both paths
# ----------------------------------------------------------------------

_REGS = ("eax", "ebx", "ecx", "edx")
_DISPS = (0, 4, 8, 12)

_reg = st.sampled_from(_REGS)
_reg8 = st.sampled_from(("al", "bl", "cl", "dl"))
_imm = st.integers(min_value=0, max_value=0xFFFFFFFF)
_small = st.integers(min_value=0, max_value=31)
_disp = st.sampled_from(_DISPS)
_scale = st.sampled_from((1, 2, 4, 8))
_condition = st.sampled_from(CONDITIONS)

# One entry per instruction shape, so every shape is drawn about equally
# often: (template, operand strategies...).  A pair template renders two
# instructions.
_TEMPLATES = (
    ("mov {}, {}", _reg, _reg),
    ("mov {}, {}", _reg, _imm),
    *((f"{op} {{}}, {{}}", _reg, _reg)
      for op in ("add", "sub", "and", "or", "xor", "imul")),
    *((f"{op} {{}}, {{}}", _reg, _imm) for op in ("add", "and", "xor", "cmp")),
    *((f"{op} {{}}", _reg) for op in ("inc", "dec", "neg", "not", "push")),
    ("test {}, {}", _reg, _reg),
    ("test {0}, {0}", _reg),
    *((f"{op} {{}}, {{}}", _reg, _small) for op in ("shl", "shr", "sar")),
    ("mov {}, [esi + {}]", _reg, _disp),
    ("mov [esi + {}], {}", _disp, _reg),
    ("movzx {}, byte [esi + {}]", _reg, _disp),
    ("movzx {}, {}", _reg, _reg8),
    ("movb [esi + {}], {}", _disp, _reg8),
    ("lea {}, [{} + {}*{} + {}]", _reg, _reg, _reg, _scale, _disp),
    ("push {}\npop {}", _reg, _reg),
    ("cmp {}, {}\nset{} {}", _reg, _reg, _condition, _reg8),
    ("imul {}, {}, {}", _reg, _reg, _imm),
    ("nop",),
    ("cmp [esi + {}], {}", _disp, _reg),
    # Read-modify-write memory destinations: the address is computed twice.
    *((f"{op} [esi + {{}}], {{}}", _disp, operand)
      for op in ("add", "sub", "xor") for operand in (_reg, _imm)),
    *((f"{op} [esi + {{}}]", _disp) for op in ("inc", "neg", "not")),
)

_instruction = st.one_of(*(st.tuples(st.just(template), *operands)
                           for template, *operands in _TEMPLATES))

# Every shape once, with fixed operands (registers in rotation): an
# explicit example, so each run reaches every codegen branch whatever
# Hypothesis draws.
_registers = itertools.cycle(_REGS)
_FIXED = {_reg8: "al", _imm: 0x8000_0001, _small: 3, _disp: 4, _scale: 4,
          _condition: "b"}
_EVERY_SHAPE = [
    (template, *(next(_registers) if operand is _reg else _FIXED[operand]
                 for operand in operands))
    for template, *operands in _TEMPLATES]


def _render(parts) -> list[str]:
    """One template's instructions (a pair template renders two)."""
    template, *operands = parts
    return template.format(*operands).split("\n")


def _assemble(lines):
    source = ".text\nmain:\n" + "".join(f"    {line}\n" for line in lines)
    source += "    ret\n"
    return parse_asm(source).assemble()


def _fresh_run_state(image):
    """A fresh context + initial state: one symbolic secret, one public
    pointer, a concrete stack — exercises constants, masked symbols, and
    fresh-symbol allocation on both paths."""
    spec = InputSpec(
        entry="main",
        registers=(
            InputSpec.reg_high(EAX, (0, 1, 2, 3)),
            InputSpec.reg_symbol(EBX, "pub"),
            InputSpec.reg_constant(ESI, 0x080E_B000),
            InputSpec.reg_constant(ESP, 0x0900_0000),
        ),
    )
    context = AnalysisContext(AnalysisConfig())
    state, _ = build_initial_state(context, spec, image)
    return context, state


@settings(max_examples=80, deadline=None)
@given(parts=st.lists(_instruction, min_size=2, max_size=8))
@example(parts=_EVERY_SHAPE)
# A shift by a zero count keeps the flags and their provenance; with a
# count in {0, 1} (EAX is in {0, 1, 2, 3}) the old flags join the new.
@example(parts=[("cmp {}, {}", "eax", "eax"), ("shl {}, {}", "ebx", 0)])
@example(parts=[("mov {}, {}", "ecx", "eax"), ("and {}, {}", "ecx", 1),
                ("cmp {}, {}", "edx", "edx"), ("shl {}, cl", "ebx")])
def test_specialized_block_matches_stepwise_transfer(parts):
    lines = [line for instruction_parts in parts
             for line in _render(instruction_parts)]
    image = _assemble(lines)
    entry = image.symbol("main")
    program = specialized_program(image, entry)
    assert entry in program.blocks, lines  # every template is supported
    n_steps = len(lines)

    # Interpreted reference: Transfer.step over each instruction.
    context_interp, state_interp = _fresh_run_state(image)
    transfer = Transfer(context_interp, image)
    data_accesses_interp = []

    def record(kind, address, size):
        if kind == "D":
            data_accesses_interp.append(repr(address))

    pc = entry
    for _ in range(n_steps):
        instruction = image.decode_at(pc)
        successors = transfer.step(state_interp, instruction, record)
        assert len(successors) == 1  # straight-line by construction
        pc = successors[0].pc

    # Specialized path: compile the block directly (no execution count)
    # and make one call on a fresh identical context.
    context_spec, state_spec = _fresh_run_state(image)
    block = program.bind(entry, context_spec)
    assert block.n_steps == n_steps and block.end_pc == pc, lines
    data_accesses_spec = []
    block.fn(state_spec, data_accesses_spec.append)

    # Fresh contexts allocate symbols in the same order, so identical
    # abstract values have identical printed forms.
    for reg in range(8):
        assert repr(state_spec.regs[reg]) == repr(state_interp.regs[reg]), reg
    assert state_spec.flags == state_interp.flags
    assert repr(state_spec.flag_source) == repr(state_interp.flag_source)
    assert [repr(a) for a in data_accesses_spec] == data_accesses_interp


# ----------------------------------------------------------------------
# Counter invariants and kill switches
# ----------------------------------------------------------------------

_COUNTER_PROGRAM = """
.text
main:
    mov ebx, [esi]
    add ebx, 1
    xor ebx, 81
    mov [esi], ebx
    ret
"""

# A counted loop: the body block runs _LOOP_ITERATIONS times, interprets
# until it turns hot, then runs compiled for the remaining executions.
_LOOP_ITERATIONS = HOT_RUNS + 4
_LOOP_BODY_STEPS = 6  # the body's supported prefix: everything but the jl
_LOOP_PROGRAM = f"""
.text
main:
    mov ecx, 0
.loop:
    mov ebx, [esi]
    add ebx, ecx
    xor ebx, 81
    mov [esi], ebx
    inc ecx
    cmp ecx, {_LOOP_ITERATIONS}
    jl .loop
    ret
"""


def _run_engine(source: str = _COUNTER_PROGRAM):
    image = parse_asm(source).assemble()
    spec = InputSpec(entry="main",
                     registers=(InputSpec.reg_constant(ESI, 0x080E_B000),))
    context = AnalysisContext(AnalysisConfig())
    engine = Engine(image, context, Transfer(context, image))
    state, _ = build_initial_state(context, spec, image)
    result = engine.run(image.symbol("main"), state)
    return result, engine.stats


class TestCounterInvariants:
    @pytest.fixture(autouse=True)
    def _tier_enabled(self, monkeypatch):
        """These tests choose the mode explicitly; an inherited
        REPRO_NO_SPECIALIZE (e.g. a full-suite ablation run) must not
        decide it for them."""
        monkeypatch.delenv(NO_SPECIALIZE_ENV, raising=False)

    def test_spec_plus_interp_steps_is_steps(self):
        result, stats = _run_engine(source=_LOOP_PROGRAM)
        assert stats.spec_steps > 0
        assert stats.spec_steps + stats.interp_steps == result.steps
        assert stats.decode_hits + stats.decode_misses == result.steps

    def test_env_var_disables_tier(self, monkeypatch):
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        result, stats = _run_engine()
        assert stats.spec_steps == 0 and stats.spec_blocks == 0
        assert stats.interp_steps == result.steps

    def test_specialization_enabled_gate(self, monkeypatch):
        monkeypatch.delenv(NO_SPECIALIZE_ENV, raising=False)
        assert specialization_enabled()
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        assert not specialization_enabled()

    def test_spec_step_rate_bounded(self):
        _, stats = _run_engine(source=_LOOP_PROGRAM)
        assert 0.0 < stats.spec_step_rate <= 1.0

    def test_hot_block_runs_compiled_from_its_hot_run_on(self):
        _, stats = _run_engine(source=_LOOP_PROGRAM)
        assert stats.spec_blocks == 1
        assert stats.spec_block_runs == _LOOP_ITERATIONS - HOT_RUNS + 1
        assert stats.spec_steps == stats.spec_block_runs * _LOOP_BODY_STEPS

    def test_decode_misses_match_the_interpreter(self, monkeypatch):
        _, compiled = _run_engine(source=_LOOP_PROGRAM)
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        _, interpreted = _run_engine(source=_LOOP_PROGRAM)
        assert compiled.decode_misses == interpreted.decode_misses

    def test_program_cache_reuses_compiled_code(self):
        image = parse_asm(_COUNTER_PROGRAM).assemble()
        entry = image.symbol("main")
        first = specialized_program(image, entry)
        assert specialized_program(image, entry) is first


@pytest.fixture(scope="module")
def single_run_scenario():
    """One traced analysis of a catalogue scenario whose blocks each run
    once: its result, the specialized programs it looked up, its trace."""
    lookup = engine_module.specialized_program
    programs = []

    def recording(image, entry):
        programs.append(lookup(image, entry))
        return programs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(NO_SPECIALIZE_ENV, raising=False)
        patch.delenv(trace.TRACE_ENV, raising=False)
        patch.setattr(engine_module, "specialized_program", recording)
        trace.stop()
        trace.start()
        try:
            result = execute_scenario(
                all_scenarios()["aes-O2-64B-preload-aligned"])
        finally:
            events = trace.stop()
    return result, programs, events


def _compile_spans(events) -> list[dict]:
    return [event for event in events
            if event["name"] == "engine.compile_block"]


class TestHotnessGate:
    """A block compiles on its HOT_RUNS-th execution in a run, not before."""

    @pytest.fixture(autouse=True)
    def _tier_enabled(self, monkeypatch):
        monkeypatch.delenv(NO_SPECIALIZE_ENV, raising=False)
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        trace.stop()
        yield
        trace.stop()

    def test_straight_line_program_compiles_nothing(self):
        result, stats = _run_engine()
        assert stats.spec_blocks == 0
        assert stats.interp_steps == result.steps
        image = parse_asm(_COUNTER_PROGRAM).assemble()
        assert specialized_program(image, image.symbol("main")).source == ""

    def test_single_run_scenario_compiles_nothing(self, single_run_scenario):
        result, programs, _ = single_run_scenario
        assert result.ok
        assert result.metrics["spec_blocks"] == 0
        assert programs and all(program.source == "" for program in programs)

    def test_kill_switches_keep_a_hot_loop_interpreted(self, monkeypatch):
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        result, stats = _run_engine(source=_LOOP_PROGRAM)
        assert stats.spec_blocks == 0 and stats.interp_steps == result.steps

    def test_second_analysis_compiles_nothing_new(self):
        image = parse_asm(_LOOP_PROGRAM).assemble()
        # Looked up before either run, so neither run inserts into the
        # program cache: cache_evictions depends on what the process
        # cached before, every other counter only on the run.
        program = specialized_program(image, image.symbol("main"))
        _, first = _run_engine(source=_LOOP_PROGRAM)
        source = program.source
        assert source
        _, second = _run_engine(source=_LOOP_PROGRAM)
        assert program.source == source
        assert second == first

    def test_each_compile_records_one_span(self):
        trace.start()
        _, stats = _run_engine(source=_LOOP_PROGRAM)
        spans = _compile_spans(trace.drain())
        assert len(spans) == stats.spec_blocks == 1
        image = parse_asm(_LOOP_PROGRAM).assemble()
        assert spans[0]["args"] == {"pc": image.symbol("main.loop"),
                                    "steps": _LOOP_BODY_STEPS}

    def test_single_run_scenario_records_no_compile_span(
            self, single_run_scenario):
        _, _, events = single_run_scenario
        assert events  # the run was traced
        assert _compile_spans(events) == []
