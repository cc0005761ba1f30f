"""Block units match single steps, bit for bit.

The engine runs the straight-line prefix of each CFG block as one unit
(``repro.analysis.specialize``) and everything else one instruction at a
time, through the same per-instruction handlers.  The single-step path is
taken by substituting ``engine.specialized_program`` with a lookup that
returns no blocks.  Three layers of evidence:

1. **Catalogue differential.**  Every scenario in the sweep catalogue runs
   both ways, and the full result payloads (figure counts, leakage bounds,
   adversary rows, warnings, and the step/merge/fork scheduler counters)
   must be identical.  Only the counters that *describe* how the work ran
   (``spec_*``, cache hit counters) may differ.
2. **Random-program differential.**  Hypothesis generates straight-line
   instruction sequences; the engine runs each as one unit and as single
   steps from fresh, identical contexts, and must end in the same abstract
   state (registers, flags, flag provenance, memory) with the same trace
   DAGs and warnings.
3. **Counter invariants.**  ``spec_steps + interp_steps == steps`` and
   ``decode_hits + decode_misses == steps`` hold on both paths, and a loop
   body runs as one unit on every iteration, its first included.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import engine as engine_module
from repro.analysis.analyzer import build_initial_state
from repro.analysis.config import AnalysisConfig, InputSpec
from repro.analysis.engine import Engine
from repro.analysis.specialize import SpecializedProgram, specialized_program
from repro.analysis.state import AnalysisContext
from repro.analysis.transfer import Transfer
from repro.casestudy.scenarios import all_scenarios
from repro.isa import parse_asm
from repro.isa.instructions import CONDITIONS
from repro.isa.registers import EAX, EBX, ESI, ESP
from repro.sweep.runner import execute_scenario
from tests.sweep.test_catalogue_golden import MODE_SENSITIVE_METRICS


def _no_units(image, entry):
    """A block-unit lookup that finds none: every step runs alone."""
    return SpecializedProgram({})


def _comparable_payload(result) -> dict:
    payload = result.to_payload()
    payload["metrics"] = {
        key: value for key, value in payload["metrics"].items()
        if key not in MODE_SENSITIVE_METRICS
    }
    return payload


class TestCatalogueDifferential:
    """Every catalogue scenario, block units vs single steps."""

    def test_every_scenario_bit_identical(self, monkeypatch):
        mismatches = []
        for name, scenario in sorted(all_scenarios().items()):
            monkeypatch.setattr(engine_module, "specialized_program",
                                specialized_program)
            with_units = _comparable_payload(execute_scenario(scenario))
            monkeypatch.setattr(engine_module, "specialized_program",
                                _no_units)
            single_steps = _comparable_payload(execute_scenario(scenario))
            if with_units != single_steps:
                mismatches.append(name)
        assert not mismatches, mismatches


# ----------------------------------------------------------------------
# Random straight-line programs both ways
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
    *((f"{op} {{}}", _reg) for op in ("inc", "dec", "neg", "not", "push",
                                      "mul")),
    ("test {}, {}", _reg, _reg),
    ("test {0}, {0}", _reg),
    *((f"{op} {{}}, {{}}", _reg, _small) for op in ("shl", "shr", "sar")),
    ("mov ecx, {}\nshl {}, cl", _small, _reg),
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
# explicit example, so each run reaches every handler whatever Hypothesis
# draws.
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
    # ebp (which no template touches) restores the stack pointer, so the
    # program returns to the run's sentinel whatever it pushed.
    source = ".text\nmain:\n    mov ebp, esp\n"
    source += "".join(f"    {line}\n" for line in lines)
    source += "    mov esp, ebp\n    ret\n"
    return parse_asm(source).assemble()


def _engine_run(image, units: bool):
    """One engine run from a fresh context: one symbolic secret, one public
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
    engine = Engine(image, context, Transfer(context, image))
    with pytest.MonkeyPatch.context() as patch:
        if not units:
            patch.setattr(engine_module, "specialized_program", _no_units)
        result = engine.run(image.symbol("main"), state)
    # Straight-line code updates the initial state in place.
    return result, context, state


def _dag_shape(dag):
    return ([(v.label, v.parents, v.run, v.count_value)
             for v in dag.vertices()],
            [(v.label, v.parents, v.count_value)
             for v in dag.stutter_vertices()])


@settings(max_examples=80, deadline=None)
@given(parts=st.lists(_instruction, min_size=1, max_size=8))
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
    n_steps = len(lines) + 3  # with the stack save, restore and ret

    unit_result, unit_context, unit_state = _engine_run(image, units=True)
    step_result, step_context, step_state = _engine_run(image, units=False)

    # Everything but the ret ran as one unit; single steps ran it all.
    assert unit_result.scheduler.spec_steps == n_steps - 1, lines
    assert unit_result.scheduler.spec_block_runs == 1
    assert step_result.scheduler.interp_steps == n_steps
    assert unit_result.steps == step_result.steps == n_steps
    assert (unit_result.scheduler.decode_misses
            == step_result.scheduler.decode_misses == n_steps)

    # Fresh contexts allocate symbols in the same order, so identical
    # abstract values have identical printed forms.
    for reg in range(8):
        assert repr(unit_state.regs[reg]) == repr(step_state.regs[reg]), reg
    assert unit_state.flags == step_state.flags
    assert repr(unit_state.flag_source) == repr(step_state.flag_source)
    assert (repr(sorted(unit_state.memory._slots.items()))
            == repr(sorted(step_state.memory._slots.items())))
    assert unit_context.warnings == step_context.warnings
    # The same access sequences: the address observer's DAGs label every
    # access with its full address set.
    for key, dag in unit_result.dags.items():
        assert _dag_shape(dag) == _dag_shape(step_result.dags[key]), key
        assert (unit_result.final_vertices[key]
                == step_result.final_vertices[key]), key


# ----------------------------------------------------------------------
# Counter invariants
# ----------------------------------------------------------------------

# A counted loop: the body block runs _LOOP_ITERATIONS times, as one unit
# from its first execution on.
_LOOP_ITERATIONS = 8
_LOOP_BODY_STEPS = 6  # the body's straight-line prefix: everything but jl
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


def _run_engine():
    image = parse_asm(_LOOP_PROGRAM).assemble()
    spec = InputSpec(entry="main",
                     registers=(InputSpec.reg_constant(ESI, 0x080E_B000),))
    context = AnalysisContext(AnalysisConfig())
    engine = Engine(image, context, Transfer(context, image))
    state, _ = build_initial_state(context, spec, image)
    result = engine.run(image.symbol("main"), state)
    return result, engine.stats


class TestCounterInvariants:
    def test_spec_plus_interp_steps_is_steps(self):
        result, stats = _run_engine()
        assert stats.spec_steps > 0
        assert stats.spec_steps + stats.interp_steps == result.steps
        assert stats.decode_hits + stats.decode_misses == result.steps

    def test_spec_step_rate_bounded(self):
        _, stats = _run_engine()
        assert 0.0 < stats.spec_step_rate <= 1.0

    def test_loop_body_runs_as_one_unit_from_its_first_execution(self):
        _, stats = _run_engine()
        assert stats.spec_blocks == 1
        assert stats.spec_block_runs == _LOOP_ITERATIONS
        assert stats.spec_steps == _LOOP_ITERATIONS * _LOOP_BODY_STEPS

    def test_decode_misses_match_the_interpreter(self, monkeypatch):
        """Units bind each pc once, as single steps do: the decode misses
        are the distinct pcs either way."""
        unit_result, with_units = _run_engine()
        monkeypatch.setattr(engine_module, "specialized_program", _no_units)
        step_result, single_steps = _run_engine()
        assert single_steps.spec_steps == 0
        assert with_units.decode_misses == single_steps.decode_misses
        assert (single_steps.decode_hits + single_steps.decode_misses
                == step_result.steps == unit_result.steps)

    def test_program_cache_reuses_compiled_code(self):
        """A later analysis of the same image takes its units from the
        program cache and repeats every counter of the first."""
        image = parse_asm(_LOOP_PROGRAM).assemble()
        entry = image.symbol("main")
        first = specialized_program(image, entry)
        assert specialized_program(image, entry) is first
        assert first.source == ""  # the benchmark's specialize layer reads it
        # Looked up before either run, so neither run inserts into the
        # program cache: cache_evictions depends on what the process
        # cached before, every other counter only on the run.
        _, stats = _run_engine()
        _, again = _run_engine()
        assert again == stats
