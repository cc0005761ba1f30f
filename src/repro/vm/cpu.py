"""Concrete CPU for the x86-subset ISA, with predecoded dispatch.

Executes assembled images instruction by instruction with exact flag
semantics, recording the fetch and data access streams.  The VM serves three
roles in the reproduction:

1. **Validation**: for small secrets the test suite enumerates all secret
   values, collects the concrete adversary views, and checks that the number
   of distinct views never exceeds the static bound (Theorem 1, executable).
2. **Performance study** (paper Figure 16): instruction and cycle counts via
   :mod:`repro.vm.perf`.
3. **Correctness of the workloads**: the mini-C compiled crypto kernels are
   compared against their Python reference implementations.

Dispatch is predecoded.  The first time :meth:`CPU.run` reaches an address,
it decodes the instruction there and turns it into one *handler*: a closure
with the instruction's register indices, effective-address function,
immediate, flag update and fall-through address already resolved, which
executes the instruction on a CPU and returns the next ``eip``.  Each
mnemonic has one function that makes its handlers out of operand reader and
writer closures, and the flag arithmetic is :mod:`repro.core.bitvec`'s.
Handlers live in the image's ``handlers`` table (``{addr: (handler, size,
instruction)}``, next to its decode cache), so every CPU that runs an image
shares them and each instruction is predecoded once per image.  ``run``
binds the trace and cost-model hooks that exist once per run; each
instruction then records its fetch through those hooks only, charges the
cost model, and calls its handler.  Every fetch and data access reaches
:class:`~repro.vm.tracer.Trace` and ``CostModel.memory_access`` exactly
once, in program order.

Extern calls can be hooked with Python callbacks (``ExternHook``); this is the
hybrid-simulation mechanism used to charge multi-precision arithmetic calls
without simulating every limb operation (documented in DESIGN.md §2).  A
hook runs in place of the call, with ``cpu.eip`` at the call instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bitvec import (
    add_with_carry,
    sign_bit,
    sub_with_borrow,
    to_signed,
    truncate,
)
from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Mem, Reg, condition_holds
from repro.isa.registers import EAX, EDX, ESP, Reg8
from repro.vm.memory import DEFAULT_STACK_TOP, FlatMemory
from repro.vm.tracer import FETCH, READ, WRITE, Trace

__all__ = ["CPU", "CPUError", "ExternHook", "StepLimitExceeded"]

WIDTH = 32
_MASK = 0xFFFF_FFFF

# run() calls the entry like a function: it pushes this return address, and
# executing RET to it stops the machine.
_SENTINEL = 0xFFFF_FFF0


class CPUError(Exception):
    """Raised on invalid executions (bad opcode usage, division by zero...)."""


class StepLimitExceeded(CPUError):
    """Raised when an execution exceeds its fuel budget."""


ExternHook = Callable[["CPU"], None]

# A handler executes one predecoded instruction and returns the next eip.
Handler = Callable[["CPU"], int]


@dataclass(slots=True)
class Flags:
    """Concrete flag register."""

    zf: int = 0
    cf: int = 0
    sf: int = 0
    of: int = 0


class CPU:
    """A single-core concrete machine executing one image."""

    def __init__(
        self,
        image: Image,
        memory: FlatMemory | None = None,
        trace: Trace | None = None,
        perf=None,
        stack_top: int = DEFAULT_STACK_TOP,
    ) -> None:
        self.image = image
        self.memory = memory or FlatMemory()
        self.memory.load_image(image)
        self.trace = trace
        self.perf = perf
        self.regs = [0] * 8
        self.regs[ESP] = stack_top
        self.flags = Flags()
        self.eip = 0
        self.halted = False
        self.instructions_executed = 0
        self.hooks: dict[int, ExternHook] = {}

    # ------------------------------------------------------------------
    # Register and memory helpers
    # ------------------------------------------------------------------
    def get_reg(self, reg: int) -> int:
        """Read a 32-bit register."""
        return self.regs[reg]

    def set_reg(self, reg: int, value: int) -> None:
        """Write a 32-bit register."""
        self.regs[reg] = truncate(value, WIDTH)

    def get_reg8(self, reg: int) -> int:
        """Read the low byte of a register."""
        return self.regs[reg] & 0xFF

    def set_reg8(self, reg: int, value: int) -> None:
        """Write the low byte of a register, preserving the upper bits."""
        self.regs[reg] = (self.regs[reg] & 0xFFFFFF00) | (value & 0xFF)

    def push(self, value: int) -> None:
        """Push a 32-bit value (records the stack write)."""
        self.set_reg(ESP, self.regs[ESP] - 4)
        self._record(WRITE, self.regs[ESP], 4)
        self.memory.write(self.regs[ESP], value, 4)

    def pop(self) -> int:
        """Pop a 32-bit value (records the stack read)."""
        self._record(READ, self.regs[ESP], 4)
        value = self.memory.read(self.regs[ESP], 4)
        self.set_reg(ESP, self.regs[ESP] + 4)
        return value

    def _record(self, kind: str, addr: int, size: int) -> None:
        if self.trace is not None:
            self.trace.record(kind, addr, size)
        if self.perf is not None:
            self.perf.memory_access(kind, addr, size)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, entry: int | str, fuel: int = 5_000_000) -> None:
        """Run from ``entry`` until HLT or a RET with an empty call stack.

        The entry is called like a function: a sentinel return address is
        pushed, and executing RET to the sentinel stops the machine.  The
        fuel counts the instructions of this CPU's lifetime, previous runs
        included.
        """
        if isinstance(entry, str):
            entry = self.image.symbol(entry)
        self.push(_SENTINEL)
        self.halted = False
        record = self.trace.record if self.trace is not None else None
        perf = self.perf
        if perf is not None:
            charge, count = perf.memory_access, perf.instruction
        table = self.image.handlers
        eip = entry
        try:
            while True:
                if self.instructions_executed >= fuel:
                    raise StepLimitExceeded(f"exceeded {fuel} instructions")
                try:
                    handler, size, instruction = table[eip]
                except KeyError:
                    handler, size, instruction = self._predecode(eip)
                if record is not None:
                    record(FETCH, eip, size)
                if perf is not None:
                    charge(FETCH, eip, size)
                    count(instruction)
                self.instructions_executed += 1
                eip = handler(self)
                if eip == _SENTINEL or self.halted:
                    break
        finally:
            self.eip = eip
        self.halted = True

    def _predecode(self, addr: int) -> tuple[Handler, int, Instruction]:
        """Decode the instruction at ``addr`` and file its handler."""
        instruction = self.image.decode_at(addr)
        entry = (_handler(instruction), instruction.encoded_size, instruction)
        self.image.handlers[addr] = entry
        return entry


# ----------------------------------------------------------------------
# Predecoding: one handler per instruction
# ----------------------------------------------------------------------

def _handler(instruction: Instruction) -> Handler:
    """Build the handler of one decoded instruction."""
    mnemonic = instruction.mnemonic
    ops = instruction.operands
    after = instruction.addr + instruction.encoded_size
    if mnemonic == "mov":
        return _move(_reader(ops[1]), _writer(ops[0]), after)
    if mnemonic in _BINARY:
        compute, store = _BINARY[mnemonic]
        return _binary(compute, store, ops, after)
    if mnemonic in _UNARY:
        return _unary(_UNARY[mnemonic], ops, after)
    if mnemonic in _SHIFTS:
        return _shift(_SHIFTS[mnemonic], ops, after)
    if mnemonic == "movzx":
        read = _reader(ops[1])
        return _move(lambda cpu: read(cpu) & 0xFF, _writer(ops[0]), after)
    if mnemonic == "movb":  # always stores one byte
        mem = ops[0]
        byte = Mem(mem.base, mem.index, mem.scale, mem.disp, 1)
        return _move(_reader(ops[1]), _writer(byte), after)
    if mnemonic == "lea":
        address = _address(ops[1])
        return _move(lambda cpu: address(cpu.regs), _writer(ops[0]), after)
    if mnemonic == "imul":
        return _imul(ops, after)
    if mnemonic == "mul":
        return _mul(ops, after)
    if mnemonic == "div":
        return _div(ops, after, instruction.addr)
    if mnemonic == "push":
        return _move(_reader(ops[0]), CPU.push, after)
    if mnemonic == "pop":
        return _move(CPU.pop, _writer(ops[0]), after)
    if mnemonic == "jmp":
        target = ops[0]
        return lambda cpu: target
    if mnemonic == "call":
        return _call(ops, after, instruction.addr)
    if mnemonic == "ret":
        return CPU.pop
    if mnemonic.startswith("set"):
        return _setcc(mnemonic[3:], ops, after)
    if mnemonic.startswith("j"):
        return _jcc(mnemonic[1:], ops, after)
    if mnemonic == "nop":
        return lambda cpu: after
    if mnemonic == "hlt":
        return _hlt(after)
    return _fail(f"unimplemented instruction {mnemonic}")


def _fail(message: str):
    """A handler (or operand accessor) that raises ``CPUError`` when run."""

    def fail(cpu, *_value):
        raise CPUError(message)

    return fail


# -- operands ----------------------------------------------------------

def _address(mem: Mem) -> Callable[[list[int]], int]:
    """The effective-address function of a memory operand: regs -> addr."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp

    def address(regs):
        addr = disp
        if base is not None:
            addr += regs[base]
        if index is not None:
            addr += regs[index] * scale
        return addr & _MASK

    return address


def _reader(op) -> Callable[[CPU], int]:
    """Read one operand; a memory read records its access."""
    if isinstance(op, Reg):
        reg = op.reg
        return lambda cpu: cpu.regs[reg]
    if isinstance(op, Reg8):
        reg = op.reg
        return lambda cpu: cpu.regs[reg] & 0xFF
    if isinstance(op, Imm):
        value = op.value
        return lambda cpu: value
    if isinstance(op, Mem):
        address, size = _address(op), op.size

        def load(cpu):
            addr = address(cpu.regs)
            cpu._record(READ, addr, size)
            return cpu.memory.read(addr, size)

        return load
    return _fail(f"cannot read operand {op!r}")


def _writer(op) -> Callable[[CPU, int], None]:
    """Write one operand; a memory write records its access."""
    if isinstance(op, Reg):
        reg = op.reg

        def put(cpu, value):
            cpu.regs[reg] = value & _MASK

        return put
    if isinstance(op, Reg8):
        reg = op.reg

        def put8(cpu, value):
            regs = cpu.regs
            regs[reg] = (regs[reg] & 0xFFFFFF00) | (value & 0xFF)

        return put8
    if isinstance(op, Mem):
        address, size = _address(op), op.size

        def store(cpu, value):
            addr = address(cpu.regs)
            cpu._record(WRITE, addr, size)
            cpu.memory.write(addr, value, size)

        return store
    return _fail(f"cannot write operand {op!r}")


# -- data movement -------------------------------------------------------

def _move(read, write, after: int) -> Handler:
    def move(cpu):
        write(cpu, read(cpu))
        return after

    return move


# -- ALU -------------------------------------------------------------------
# Each compute function takes the operand values and the flag register,
# updates the flags as x86 does, and returns the 32-bit result.

def _zf_sf(result: int, flags: Flags) -> int:
    flags.zf = 1 if result == 0 else 0
    flags.sf = sign_bit(result, WIDTH)
    return result


def _add(x: int, y: int, flags: Flags) -> int:
    result, flags.cf, flags.of = add_with_carry(x, y, 0, WIDTH)
    return _zf_sf(result, flags)


def _sub(x: int, y: int, flags: Flags) -> int:
    result, flags.cf, flags.of = sub_with_borrow(x, y, 0, WIDTH)
    return _zf_sf(result, flags)


def _logic(result: int, flags: Flags) -> int:
    flags.cf = flags.of = 0
    return _zf_sf(truncate(result, WIDTH), flags)


def _and(x: int, y: int, flags: Flags) -> int:
    return _logic(x & y, flags)


def _or(x: int, y: int, flags: Flags) -> int:
    return _logic(x | y, flags)


def _xor(x: int, y: int, flags: Flags) -> int:
    return _logic(x ^ y, flags)


# mnemonic -> (compute, whether the result is written back)
_BINARY = {
    "add": (_add, True), "sub": (_sub, True), "cmp": (_sub, False),
    "and": (_and, True), "or": (_or, True), "xor": (_xor, True),
    "test": (_and, False),
}


def _binary(compute, store: bool, ops, after: int) -> Handler:
    read_x, read_y, write = _reader(ops[0]), _reader(ops[1]), _writer(ops[0])

    def binary(cpu):
        result = compute(read_x(cpu), read_y(cpu), cpu.flags)
        if store:
            write(cpu, result)
        return after

    return binary


def _inc(x: int, flags: Flags) -> int:
    result = truncate(x + 1, WIDTH)
    flags.of = 1 if result == 0x8000_0000 else 0  # x86: INC/DEC preserve CF
    return _zf_sf(result, flags)


def _dec(x: int, flags: Flags) -> int:
    result = truncate(x - 1, WIDTH)
    flags.of = 1 if result == 0x7FFF_FFFF else 0
    return _zf_sf(result, flags)


def _neg(x: int, flags: Flags) -> int:
    result, _, flags.of = sub_with_borrow(0, x, 0, WIDTH)
    flags.cf = 0 if x == 0 else 1
    return _zf_sf(result, flags)


def _not(x: int, _flags: Flags) -> int:
    return truncate(~x, WIDTH)  # NOT leaves the flags alone


_UNARY = {"inc": _inc, "dec": _dec, "neg": _neg, "not": _not}


def _unary(compute, ops, after: int) -> Handler:
    read, write = _reader(ops[0]), _writer(ops[0])

    def unary(cpu):
        write(cpu, compute(read(cpu), cpu.flags))
        return after

    return unary


# Shifts take a count already masked to 5 bits and not zero: a zero count
# leaves the value and the flags alone, as on x86.

def _shifted(result: int, flags: Flags) -> int:
    flags.of = 0
    return _zf_sf(result, flags)


def _shl(x: int, count: int, flags: Flags) -> int:
    flags.cf = (x >> (WIDTH - count)) & 1
    return _shifted(truncate(x << count, WIDTH), flags)


def _shr(x: int, count: int, flags: Flags) -> int:
    flags.cf = (x >> (count - 1)) & 1
    return _shifted(x >> count, flags)


def _sar(x: int, count: int, flags: Flags) -> int:
    flags.cf = (x >> (count - 1)) & 1
    return _shifted(truncate(to_signed(x, WIDTH) >> count, WIDTH), flags)


_SHIFTS = {"shl": _shl, "shr": _shr, "sar": _sar}


def _shift(compute, ops, after: int) -> Handler:
    read, read_count, write = _reader(ops[0]), _reader(ops[1]), _writer(ops[0])

    def shift(cpu):
        x = read(cpu)
        count = read_count(cpu) & 31
        write(cpu, compute(x, count, cpu.flags) if count else x)
        return after

    return shift


def _imul(ops, after: int) -> Handler:
    write = _writer(ops[0])
    read_x, read_y = _reader(ops[-2]), _reader(ops[-1])

    def imul(cpu):
        full = to_signed(read_x(cpu), WIDTH) * to_signed(read_y(cpu), WIDTH)
        result = truncate(full, WIDTH)
        flags = cpu.flags
        flags.cf = flags.of = 0 if to_signed(result, WIDTH) == full else 1
        write(cpu, _zf_sf(result, flags))
        return after

    return imul


def _mul(ops, after: int) -> Handler:
    read = _reader(ops[0])

    def mul(cpu):  # EDX:EAX = EAX * operand
        regs = cpu.regs
        full = regs[EAX] * read(cpu)
        regs[EAX] = truncate(full, WIDTH)
        regs[EDX] = truncate(full >> WIDTH, WIDTH)
        flags = cpu.flags
        flags.cf = flags.of = 1 if full >> WIDTH else 0
        return after

    return mul


def _div(ops, after: int, addr: int) -> Handler:
    read = _reader(ops[0])

    def div(cpu):  # EAX, EDX = divmod(EDX:EAX, operand)
        divisor = read(cpu)
        if divisor == 0:
            raise CPUError(f"division by zero at {addr:#x}")
        regs = cpu.regs
        quotient, remainder = divmod((regs[EDX] << WIDTH) | regs[EAX], divisor)
        if quotient >> WIDTH:
            raise CPUError(f"division overflow at {addr:#x}")
        regs[EAX] = truncate(quotient, WIDTH)
        regs[EDX] = truncate(remainder, WIDTH)
        return after

    return div


# -- stack and control flow -------------------------------------------------

def _call(ops, after: int, addr: int) -> Handler:
    target = ops[0]

    def call(cpu):
        hook = cpu.hooks.get(target)
        if hook is not None:
            cpu.eip = addr
            hook(cpu)
            return after
        cpu.push(after)
        return target

    return call


def _hlt(after: int) -> Handler:
    def hlt(cpu):
        cpu.halted = True
        return after

    return hlt


def _jcc(condition: str, ops, after: int) -> Handler:
    target = ops[0]

    def jcc(cpu):
        flags = cpu.flags
        if condition_holds(condition, flags.zf, flags.cf, flags.sf, flags.of):
            return target
        return after

    return jcc


def _setcc(condition: str, ops, after: int) -> Handler:
    write = _writer(ops[0])

    def setcc(cpu):
        flags = cpu.flags
        holds = condition_holds(condition, flags.zf, flags.cf, flags.sf, flags.of)
        write(cpu, 1 if holds else 0)
        return after

    return setcc
