"""The concrete VM agrees with the abstract transfer on concrete inputs.

Hypothesis generates straight-line programs over the instruction shapes of
``test_specialize.py`` plus shifts by ``cl`` (a zero count included),
``mul`` and every ``setcc``.  Every register starts constant and the data
words are stored before the program runs, so the abstract run describes
exactly one concrete run.  Each program runs once on the VM and once
through the abstract handlers ``Transfer.bind`` builds, one instruction at
a time, and the abstract result must cover the concrete one (Theorem 1's
premise, instruction by instruction):

- every register value lies in the concretization of its abstract value
  (it matches the known bits of one of its masked symbols);
- the VM's ``(zf, cf, sf, of)`` is one of the abstract ``FlagState``'s
  tuples;
- the data addresses agree, in program order.

This is the oracle of the VM's predecoded handlers, independent of any
other interpreter.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.analyzer import build_initial_state
from repro.analysis.config import AnalysisConfig, InputSpec, MemInit
from repro.analysis.state import AnalysisContext
from repro.analysis.transfer import SENTINEL_RETURN, Transfer
from repro.isa import parse_asm
from repro.isa.instructions import CONDITIONS
from repro.isa.registers import EAX, EBP, EBX, ECX, EDI, EDX, ESI
from repro.vm.cpu import CPU
from repro.vm.memory import FlatMemory
from repro.vm.tracer import Trace

DATA = 0x0900_0000  # esi: the data words live at [esi + 0 .. 12]
_DISPS = (0, 4, 8, 12)
_REGS = ("eax", "ebx", "ecx", "edx")

_reg = st.sampled_from(_REGS)
_reg8 = st.sampled_from(("al", "bl", "cl", "dl"))
_imm = st.integers(min_value=0, max_value=0xFFFFFFFF)
_small = st.integers(min_value=0, max_value=31)
_count = st.integers(min_value=0, max_value=40)  # cl is masked to 5 bits
_disp = st.sampled_from(_DISPS)
_scale = st.sampled_from((1, 2, 4, 8))
_condition = st.sampled_from(CONDITIONS)
_word = st.integers(min_value=0, max_value=0xFFFFFFFF)

# One entry per instruction shape: (template, operand strategies...).  A
# pair template renders two instructions.  A lone push is left out: the
# program ends in the ret that returns to the run's sentinel.
_TEMPLATES = (
    ("mov {}, {}", _reg, _reg),
    ("mov {}, {}", _reg, _imm),
    *((f"{op} {{}}, {{}}", _reg, _reg)
      for op in ("add", "sub", "and", "or", "xor", "imul")),
    *((f"{op} {{}}, {{}}", _reg, _imm) for op in ("add", "and", "xor", "cmp")),
    *((f"{op} {{}}", _reg) for op in ("inc", "dec", "neg", "not", "mul")),
    ("test {}, {}", _reg, _reg),
    ("test {0}, {0}", _reg),
    *((f"{op} {{}}, {{}}", _reg, _small) for op in ("shl", "shr", "sar")),
    *((f"mov ecx, {{}}\n{op} {{}}, cl", _count, _reg)
      for op in ("shl", "shr", "sar")),
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
    *((f"{op} [esi + {{}}], {{}}", _disp, operand)
      for op in ("add", "sub", "xor") for operand in (_reg, _imm)),
    *((f"{op} [esi + {{}}]", _disp) for op in ("inc", "neg", "not")),
)

_instruction = st.one_of(*(st.tuples(st.just(template), *operands)
                           for template, *operands in _TEMPLATES))

# Every shape once with fixed operands (registers in rotation), then every
# setcc after a signed/unsigned split comparison.
_registers = itertools.cycle(_REGS)
_FIXED = {_reg8: "bl", _imm: 0x8000_0001, _small: 3, _count: 33, _disp: 4,
          _scale: 4, _condition: "l"}
_EVERY_SHAPE = [
    (template, *(next(_registers) if operand is _reg else _FIXED[operand]
                 for operand in operands))
    for template, *operands in _TEMPLATES
] + [("cmp {}, {}\nset{} {}", "eax", "ebx", condition, "dl")
     for condition in CONDITIONS]

# x86 leaves the flags alone on a zero shift count (32 masks to 0), so the
# program ends with the flags of `cmp eax, eax`.
_ZERO_COUNT_SHIFT = [("cmp {}, {}\nset{} {}", "eax", "eax", "e", "al"),
                     ("mov ecx, {}\nshl {}, cl", 32, "ebx")]

_INITIAL = dict(zip((EAX, ECX, EDX, EBX), (7, 0x8000_0000, 0xFFFF_FFFF, 1)))


def _render(parts) -> list[str]:
    template, *operands = parts
    return template.format(*operands).split("\n")


def _concretizes(value_set, value: int) -> bool:
    """Whether ``value`` matches the known bits of some element."""
    return any((value ^ element.mask.value) & element.mask.known == 0
               for element in value_set)


def _vm_run(image, registers, words):
    memory = FlatMemory()
    for disp, word in zip(_DISPS, words):
        memory.write(DATA + disp, word, 4)
    cpu = CPU(image, memory=memory, trace=Trace())
    for reg, value in registers.items():
        cpu.set_reg(reg, value)
    cpu.run("main")
    return cpu


def _abstract_run(image, registers, words):
    spec = InputSpec(
        entry="main",
        registers=tuple(InputSpec.reg_constant(reg, value)
                        for reg, value in registers.items()),
        memory=tuple(MemInit(at=DATA + disp, constant=word)
                     for disp, word in zip(_DISPS, words)),
    )
    context = AnalysisContext(AnalysisConfig())
    state, _ = build_initial_state(context, spec, image)
    transfer = Transfer(context, image)
    addresses = []
    pc = image.symbol("main")
    while pc != SENTINEL_RETURN:
        handler, _fetch, pc = transfer.bind(image.decode_at(pc))
        successors = handler(state, addresses.append)
        if successors is not None:  # the closing ret
            (successor,) = successors
            pc, state = successor.pc, successor.state
    return state, addresses


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(_instruction, min_size=1, max_size=10),
       values=st.lists(_word, min_size=4, max_size=4),
       words=st.lists(_word, min_size=4, max_size=4))
@example(parts=_EVERY_SHAPE, values=list(_INITIAL.values()),
         words=[1, 0x80, 0xFFFF_FFFF, 0x1234_5678])
@example(parts=_ZERO_COUNT_SHIFT, values=list(_INITIAL.values()),
         words=[0, 0, 0, 0])
def test_vm_agrees_with_abstract_transfer(parts, values, words):
    lines = [line for instruction in parts for line in _render(instruction)]
    image = parse_asm(".text\nmain:\n" + "".join(
        f"    {line}\n" for line in lines) + "    ret\n").assemble()
    registers = {**dict(zip((EAX, ECX, EDX, EBX), values)),
                 ESI: DATA, EDI: 0, EBP: 0}

    cpu = _vm_run(image, registers, words)
    state, addresses = _abstract_run(image, registers, words)

    for reg in range(8):
        assert _concretizes(state.regs[reg], cpu.regs[reg]), (lines, reg)
    flags = cpu.flags
    assert (flags.zf, flags.cf, flags.sf, flags.of) in state.flags.tuples, lines
    # The VM's first data access is run()'s sentinel push, which the
    # abstract initial state holds already.
    concrete = cpu.trace.data_accesses()[1:]
    assert len(concrete) == len(addresses), lines
    for address, abstract in zip(concrete, addresses):
        assert _concretizes(abstract, address), lines
