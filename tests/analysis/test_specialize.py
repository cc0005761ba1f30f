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
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.analyzer import build_initial_state
from repro.analysis.config import AnalysisConfig, InputSpec
from repro.analysis.engine import Engine
from repro.analysis.specialize import (
    NO_SPECIALIZE_ENV,
    specialization_enabled,
    specialized_program,
)
from repro.analysis.state import AnalysisContext
from repro.analysis.transfer import Transfer
from repro.casestudy.scenarios import all_scenarios
from repro.isa import parse_asm
from repro.isa.registers import EAX, EBX, ESI, ESP
from repro.sweep.runner import execute_scenario

# Metric keys that legitimately depend on the execution mode (how the work
# was done) or process history, as opposed to what the analysis computed.
# Everything else in the payload must be bit-identical across modes.
MODE_SENSITIVE_METRICS = frozenset((
    "spec_blocks", "spec_block_runs", "spec_steps", "interp_steps",
    "cache_evictions",
    "decode_hits", "decode_misses",
    "projection_hits", "projection_misses",
    "lift_memo_hits", "lift_memo_misses", "lift_memo_evictions",
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
_imm = st.integers(min_value=0, max_value=0xFFFFFFFF)
_small = st.integers(min_value=0, max_value=31)
_disp = st.sampled_from(_DISPS)

_instruction = st.one_of(
    st.tuples(st.just("mov {}, {}"), _reg, _reg),
    st.tuples(st.just("mov {}, {}"), _reg, _imm),
    st.tuples(st.sampled_from(
        ["add {}, {}", "sub {}, {}", "and {}, {}",
         "or {}, {}", "xor {}, {}", "imul {}, {}"]), _reg, _reg),
    st.tuples(st.sampled_from(
        ["add {}, {}", "and {}, {}", "xor {}, {}", "cmp {}, {}"]),
        _reg, _imm),
    st.tuples(st.sampled_from(
        ["inc {}", "dec {}", "neg {}", "not {}", "push {}"]), _reg),
    st.tuples(st.just("test {}, {}"), _reg, _reg),
    st.tuples(st.sampled_from(
        ["shl {}, {}", "shr {}, {}", "sar {}, {}"]), _reg, _small),
    st.tuples(st.just("mov {}, [esi + {}]"), _reg, _disp),
    st.tuples(st.just("mov [esi + {}], {}"), _disp, _reg),
)


def _render(parts) -> str:
    template, *operands = parts
    return template.format(*operands)


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


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(_instruction, min_size=2, max_size=8))
def test_specialized_block_matches_stepwise_transfer(parts):
    lines = [_render(instruction_parts) for instruction_parts in parts]
    image = _assemble(lines)
    entry = image.symbol("main")
    program = specialized_program(image, entry)
    assert entry in program.blocks, lines  # every template is supported
    n_steps = program.blocks[entry][0]
    assert n_steps == len(lines)

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

    # Specialized path: one compiled call on a fresh identical context.
    context_spec, state_spec = _fresh_run_state(image)
    bound = program.bind(context_spec)
    block = bound[entry]
    assert block.n_steps == n_steps and block.end_pc == pc
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


def _run_engine(specialize: bool):
    image = parse_asm(_COUNTER_PROGRAM).assemble()
    spec = InputSpec(entry="main",
                     registers=(InputSpec.reg_constant(ESI, 0x080E_B000),))
    context = AnalysisContext(AnalysisConfig(specialize=specialize))
    engine = Engine(image, context, Transfer(context, image))
    state, _ = build_initial_state(context, spec, image)
    result = engine.run(image.symbol("main"), state)
    return result, engine.stats


class TestCounterInvariants:
    @pytest.fixture(autouse=True)
    def _tier_enabled(self, monkeypatch):
        """These tests choose the mode explicitly; an inherited
        REPRO_NO_SPECIALIZE (e.g. a full-suite ablation run) must not
        override the config knob under test."""
        monkeypatch.delenv(NO_SPECIALIZE_ENV, raising=False)

    def test_spec_plus_interp_steps_is_steps(self):
        result, stats = _run_engine(specialize=True)
        assert stats.spec_steps > 0
        assert stats.spec_steps + stats.interp_steps == result.steps
        assert stats.decode_hits + stats.decode_misses == result.steps

    def test_config_knob_disables_tier(self):
        result, stats = _run_engine(specialize=False)
        assert stats.spec_steps == 0 and stats.spec_blocks == 0
        assert stats.interp_steps == result.steps
        assert stats.decode_hits + stats.decode_misses == result.steps

    def test_env_var_disables_tier(self, monkeypatch):
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        result, stats = _run_engine(specialize=True)
        assert stats.spec_steps == 0 and stats.spec_blocks == 0
        assert stats.interp_steps == result.steps

    def test_specialization_enabled_gate(self, monkeypatch):
        monkeypatch.delenv(NO_SPECIALIZE_ENV, raising=False)
        assert specialization_enabled(AnalysisConfig())
        assert not specialization_enabled(AnalysisConfig(specialize=False))
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        assert not specialization_enabled(AnalysisConfig())

    def test_spec_step_rate_bounded(self):
        _, stats = _run_engine(specialize=True)
        assert 0.0 < stats.spec_step_rate <= 1.0

    def test_program_cache_reuses_compiled_code(self):
        image = parse_asm(_COUNTER_PROGRAM).assemble()
        entry = image.symbol("main")
        first = specialized_program(image, entry)
        assert specialized_program(image, entry) is first
