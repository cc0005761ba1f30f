"""Abstract transfer function: one predecoded handler per instruction.

Mirrors the concrete CPU (:mod:`repro.vm.cpu`) instruction by instruction,
operating on value sets instead of words and emitting the *abstract access
stream* — the address sets of the data accesses — that drives the
per-observer trace DAGs.  Conditional branches whose outcome is not
determined by the abstract flags fork into both successors (with flags and,
where possible, compared registers refined per arm).

:meth:`Transfer.bind` turns one decoded instruction into its *handler*, once
per analysis run: the operands, the lifting, the warning name and the
constant value sets the instruction uses are resolved then, and the handler
is one module function with those bound in front of its arguments
(``functools.partial``).  A handler runs as ``handler(state, emit)``: it
updates ``state`` in place and calls ``emit(address)`` once per data
access, in program order.  A straight-line handler returns None (execution
continues at the next instruction); a control-flow handler (``jmp``,
``jcc``, ``call``, ``ret``, ``hlt``) returns the successor list, and only
ever runs as a single step, so it may also emit an instruction fetch with
``emit(address, "I")``.  The engine emits each instruction's own fetch.

Register, immediate and ``[reg]``/``[reg+disp]`` operands are read and
written in the handler's own frame; only addresses with an index register
or without a base register go through :func:`_address`.  Every handler keeps
the operation order of the instruction's semantics, including the double
effective-address computation of read-modify-write memory destinations
(each computation may allocate its own fresh "widened" symbol), and widens
a ``PrecisionLoss`` to a fresh unknown with the warning ``"<OP>: <loss>"``.

Constants are bound per run, not per image: ``AnalysisContext`` clears the
domain's intern tables, so a value set belongs to one run.
``ValueSet.constant`` allocates no symbols, so binding order cannot move
symbol allocation.

Calls to functions named in the input spec's ``extern_clobbers`` are
*summarized* (the paper excludes the multi-precision mul/mod routines from
analysis the same way): the stub's fetch and the return-address stack traffic
are still emitted — these produce the instruction-cache leak of Figure 7a —
but the body is not entered, and the caller-saved registers are clobbered
with fresh unknowns.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.analysis.config import AnalysisError
from repro.analysis.flags import FlagState, TOP_FLAGS
from repro.analysis.state import AbsState, AnalysisContext, FlagSource
from repro.core.bitvec import sign_bit, sub_with_borrow, truncate
from repro.core.valueset import KEPT_FLAGS, PrecisionLoss, ValueSet
from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Mem, Reg, condition_holds
from repro.isa.registers import EAX, EDX, ESP, Reg8

__all__ = ["Transfer", "Successor", "Handler", "SENTINEL_RETURN"]

WIDTH = 32
SENTINEL_RETURN = 0xFFFF_FFF0

# handler(state, emit) -> None (fall through) or the successor list
Handler = Callable[..., "list[Successor] | None"]

_from_flagbits = FlagState.from_flagbits


class Successor:
    """One control-flow successor produced by a step."""

    __slots__ = ("pc", "state", "frame_op")

    def __init__(self, pc: int, state: AbsState, frame_op: str | None = None):
        self.pc = pc
        self.state = state
        self.frame_op = frame_op  # None | "push" | "pop"


class Transfer:
    """Binds the abstract transformer of each instruction to one run."""

    def __init__(self, context: AnalysisContext, image: Image,
                 extern_clobbers: dict[int, str] | None = None):
        self.context = context
        self.image = image
        ops = context.ops
        self.extern_clobbers = extern_clobbers or {}
        # The lifting of each two-operand ALU mnemonic, with its warning name.
        self._alu = {"add": (ops.add, "ADD"), "sub": (ops.sub, "SUB"),
                     "and": (ops.and_, "AND"), "or": (ops.or_, "OR"),
                     "xor": (ops.xor, "XOR")}

    def bind(self, instr: Instruction) -> tuple[Handler, ValueSet, int]:
        """The instruction's ``(handler, fetch address, next pc)``."""
        next_pc = instr.addr + instr.encoded_size
        return (self._handler(instr, next_pc),
                ValueSet.constant(instr.addr, WIDTH), next_pc)

    def _handler(self, instr: Instruction, next_pc: int) -> Handler:
        ctx = self.context
        ops = ctx.ops
        mnemonic = instr.mnemonic
        operands = instr.operands
        shape = tuple(type(op) for op in operands)
        first = operands[0] if operands else None
        k = _constant

        if mnemonic in self._alu or mnemonic in ("cmp", "test"):
            if mnemonic in self._alu:
                lift, name = self._alu[mnemonic]
                store, record = True, None
            elif mnemonic == "cmp":
                lift, name, store, record = ops.sub, "SUB", False, "cmp"
            else:
                lift, name, store = ops.and_, "AND", False
                # Only test reg, reg on one register refines the branch.
                record = ("test" if shape == (Reg, Reg)
                          and first.reg == operands[1].reg else None)
            if shape in ((Reg, Reg), (Reg, Imm)):
                return partial(_arith_r, ctx, lift, name, store, record,
                               first.reg, *_source(operands[1]))
            if shape == (Reg, Mem):
                return partial(_arith_rm, ctx, lift, name, store, record,
                               first.reg, *_memory(operands[1]),
                               operands[1].size)
            if shape in ((Mem, Reg), (Mem, Imm)):
                return partial(_arith_m, ctx, lift, name, store,
                               *_source(operands[1]), *_memory(first),
                               first.size)
        elif mnemonic == "mov":
            if shape in ((Reg, Reg), (Reg, Imm)):
                return partial(_mov_r, first.reg, *_source(operands[1]))
            if shape == (Reg, Mem):
                return partial(_load, ctx, first.reg, None,
                               *_memory(operands[1]), operands[1].size)
            if shape in ((Mem, Reg), (Mem, Imm)):
                return partial(_store, ctx, *_source(operands[1]), None,
                               *_memory(first), first.size)
        elif mnemonic in ("inc", "dec", "neg", "not"):
            if mnemonic in ("inc", "dec"):
                lift, name = self._alu["add" if mnemonic == "inc" else "sub"]
                args = (lift, name, k(1), True, True)
            elif mnemonic == "neg":
                args = (ops.neg, "NEG", None, True, False)
            else:  # x86 NOT leaves the flags alone
                args = (ops.not_, "NOT", None, False, False)
            if shape == (Reg,):
                return partial(_unary_r, ctx, *args, first.reg)
            if shape == (Mem,):
                return partial(_unary_m, ctx, *args, *_memory(first),
                               first.size)
        elif mnemonic in ("shl", "shr", "sar"):
            name = mnemonic.upper()
            if shape == (Reg, Imm):
                return partial(_shift, ctx, name, first.reg, None,
                               k(operands[1].value))
            if shape == (Reg, Reg8):  # count in CL
                return partial(_shift, ctx, name, first.reg,
                               operands[1].reg, k(0xFF))
        elif mnemonic == "imul":
            if shape == (Reg, Reg):
                return partial(_imul, ctx, first.reg, first.reg,
                               operands[1].reg, None)
            if shape == (Reg, Reg, Imm):
                return partial(_imul, ctx, first.reg, operands[1].reg, None,
                               k(operands[2].value))
        elif mnemonic in ("mul", "div"):
            if shape == (Reg,):
                return partial(_wide_multiply if mnemonic == "mul"
                               else _wide_divide, ctx, first.reg)
        elif mnemonic == "push":
            if shape in ((Reg,), (Imm,)):
                return partial(_push, ctx, k(4), *_source(first))
            if shape == (Mem,):
                return partial(_push_m, ctx, k(4), *_memory(first),
                               first.size)
        elif mnemonic == "pop":
            if shape == (Reg,):
                return partial(_pop, ctx, k(4), first.reg)
        elif mnemonic == "lea":
            if shape == (Reg, Mem):
                return partial(_lea, ctx, first.reg, *_memory(operands[1]))
        elif mnemonic == "movzx":
            if shape == (Reg, Mem):
                return partial(_load, ctx, first.reg, k(0xFF),
                               *_memory(operands[1]), operands[1].size)
            if shape == (Reg, Reg8):
                return partial(_movzx_r, ctx, first.reg, operands[1].reg,
                               k(0xFF))
        elif mnemonic == "movb":
            if shape == (Mem, Reg8):
                return partial(_store, ctx, operands[1].reg, None, k(0xFF),
                               *_memory(first), 1)
        elif mnemonic == "nop":
            return _nop
        elif mnemonic == "hlt":
            return _hlt
        elif mnemonic == "jmp":
            return partial(_jmp, first)
        elif mnemonic == "call":
            if first in self.extern_clobbers:
                # The stub's fetch is emitted, so it must decode.
                self.image.decode_at(first)
                return partial(_call_extern, ctx, k(4), k(next_pc), k(first),
                               self.extern_clobbers[first], next_pc)
            return partial(_call, ctx, k(4), k(next_pc), first)
        elif mnemonic == "ret":
            return partial(_ret, ctx, k(4))
        elif mnemonic.startswith("set"):
            if shape == (Reg8,):
                return partial(_setcc, ctx, mnemonic[3:], first.reg,
                               k(0xFFFFFF00))
        elif mnemonic.startswith("j"):
            return partial(_jcc, ctx, mnemonic[1:], first, next_pc)
        else:
            raise AnalysisError(
                f"unsupported instruction {mnemonic} at {instr.addr:#x}")
        raise AnalysisError(f"unsupported operands {instr.render()!r} "
                            f"at {instr.addr:#x}")


def _constant(value: int) -> ValueSet:
    return ValueSet.constant(value, WIDTH)


def _source(op) -> tuple:
    """A register-or-immediate source as ``(register, constant)``."""
    if isinstance(op, Reg):
        return op.reg, None
    return None, _constant(op.value)


def _memory(mem: Mem) -> tuple:
    """``(base, index, scale, disp)`` of a memory operand, with the scale
    and displacement as the constant value sets the address uses (None
    where it uses none)."""
    scale = (_constant(mem.scale)
             if mem.index is not None and mem.scale != 1 else None)
    absolute = mem.base is None and mem.index is None
    disp = _constant(mem.disp) if mem.disp or absolute else None
    return mem.base, mem.index, scale, disp


def _address(ctx, regs, base, index, scale, disp) -> ValueSet:
    """``base + index*scale + disp`` over value sets, for the addresses with
    an index register or without a base register."""
    ops = ctx.ops
    address = regs[base] if base is not None else None
    if index is not None:
        value = regs[index]
        if scale is not None:
            try:
                value = ops.mul(value, scale)[0]
            except PrecisionLoss as loss:
                value = ctx.widened(f"MUL: {loss}")
        if address is None:
            address = value
        else:
            try:
                address = ops.add(address, value)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    if address is None:
        return disp
    if disp is not None:
        try:
            address = ops.add(address, disp)[0]
        except PrecisionLoss as loss:
            address = ctx.widened(f"ADD: {loss}")
    return address


def _set_reg(state: AbsState, reg: int, value: ValueSet) -> None:
    """Write a register; the handlers inline this where it is hot."""
    state.regs[reg] = value
    if state.copies:
        state.invalidate_copy(reg)
    source = state.flag_source
    if source is not None and source.reg == reg:
        state.flag_source = None


def _preserve_cf(old: FlagState, new: FlagState) -> FlagState:
    """Combine new ZF/SF/OF with the previous CF (x86 INC/DEC)."""
    tuples = frozenset(
        (zf, old_cf, sf, of)
        for (zf, _cf, sf, of) in new.tuples
        for (_z, old_cf, _s, _o) in old.tuples
    )
    return FlagState(tuples)


# ----------------------------------------------------------------------
# Straight-line handlers
# ----------------------------------------------------------------------

def _mov_r(dst, src, value, state, emit):
    """``mov dst, src`` from a register or of a constant ``value``."""
    regs = state.regs
    if src is not None:
        value = regs[src]
    regs[dst] = value
    if state.copies:
        state.invalidate_copy(dst)
    source = state.flag_source
    if source is not None and source.reg == dst:
        state.flag_source = None
    if src is not None:
        state.record_copy(dst, src)


def _load(ctx, dst, byte, base, index, scale, disp, size, state, emit):
    """``mov dst, [mem]``, or ``movzx`` (``byte`` is then its mask)."""
    regs = state.regs
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    value = state.memory.read(address, size, ctx)
    if byte is not None:
        try:
            value = ctx.ops.and_(value, byte)[0]
        except PrecisionLoss as loss:
            value = ctx.widened(f"AND: {loss}")
    regs[dst] = value
    if state.copies:
        state.invalidate_copy(dst)
    source = state.flag_source
    if source is not None and source.reg == dst:
        state.flag_source = None


def _store(ctx, src, value, byte, base, index, scale, disp, size, state,
           emit):
    """``mov [mem], src|value``, or ``movb`` (``byte`` is then its mask)."""
    regs = state.regs
    if src is not None:
        value = regs[src]
    if byte is not None:
        try:
            value = ctx.ops.and_(value, byte)[0]
        except PrecisionLoss as loss:
            value = ctx.widened(f"AND: {loss}")
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    state.memory.write(address, value, size, ctx)


def _arith_r(ctx, lift, name, store, record, dst, src, y, state, emit):
    """An ALU operation, ``cmp`` or ``test`` on a register and a register
    or immediate.  ``store`` writes the result back; ``record`` names the
    comparison a following branch may refine on (None: no refinement)."""
    regs = state.regs
    x = regs[dst]
    if src is not None:
        y = regs[src]
    try:
        result, bits = lift(x, y)
        flags = _from_flagbits(bits)
    except PrecisionLoss as loss:
        result = ctx.widened(f"{name}: {loss}")
        flags = TOP_FLAGS
    state.flags = flags
    if store:
        state.flag_source = None
        regs[dst] = result
        if state.copies:
            state.invalidate_copy(dst)
    else:
        state.flag_source = (FlagSource(dst, record, x, y)
                             if record is not None else None)


def _arith_rm(ctx, lift, name, store, record, dst, base, index, scale, disp,
              size, state, emit):
    """:func:`_arith_r` with a memory source."""
    regs = state.regs
    x = regs[dst]
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    y = state.memory.read(address, size, ctx)
    try:
        result, bits = lift(x, y)
        flags = _from_flagbits(bits)
    except PrecisionLoss as loss:
        result = ctx.widened(f"{name}: {loss}")
        flags = TOP_FLAGS
    state.flags = flags
    if store:
        state.flag_source = None
        regs[dst] = result
        if state.copies:
            state.invalidate_copy(dst)
    else:
        state.flag_source = (FlagSource(dst, record, x, y)
                             if record is not None else None)


def _arith_m(ctx, lift, name, store, src, y, base, index, scale, disp, size,
             state, emit):
    """An ALU operation or ``cmp`` with a memory destination; a stored
    result recomputes the address."""
    regs = state.regs
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    x = state.memory.read(address, size, ctx)
    if src is not None:
        y = regs[src]
    try:
        result, bits = lift(x, y)
        flags = _from_flagbits(bits)
    except PrecisionLoss as loss:
        result = ctx.widened(f"{name}: {loss}")
        flags = TOP_FLAGS
    state.flags = flags
    state.flag_source = None
    if store:
        if index is None and base is not None:
            address = regs[base]
            if disp is not None:
                try:
                    address = ctx.ops.add(address, disp)[0]
                except PrecisionLoss as loss:
                    address = ctx.widened(f"ADD: {loss}")
        else:
            address = _address(ctx, regs, base, index, scale, disp)
        emit(address)
        state.memory.write(address, result, size, ctx)


def _unary_r(ctx, lift, name, one, sets_flags, keeps_cf, dst, state, emit):
    """``inc``/``dec`` (``one`` is their constant 1, ``keeps_cf``), ``neg``
    and ``not`` (which leaves the flags alone) on a register."""
    regs = state.regs
    x = regs[dst]
    try:
        result, bits = lift(x, one) if one is not None else lift(x)
        flags = _from_flagbits(bits)
    except PrecisionLoss as loss:
        result = ctx.widened(f"{name}: {loss}")
        flags = TOP_FLAGS
    if sets_flags:
        state.flags = _preserve_cf(state.flags, flags) if keeps_cf else flags
        state.flag_source = None
    regs[dst] = result
    if state.copies:
        state.invalidate_copy(dst)
    source = state.flag_source
    if source is not None and source.reg == dst:
        state.flag_source = None


def _unary_m(ctx, lift, name, one, sets_flags, keeps_cf, base, index, scale,
             disp, size, state, emit):
    """:func:`_unary_r` on memory; the store recomputes the address."""
    regs = state.regs
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    x = state.memory.read(address, size, ctx)
    try:
        result, bits = lift(x, one) if one is not None else lift(x)
        flags = _from_flagbits(bits)
    except PrecisionLoss as loss:
        result = ctx.widened(f"{name}: {loss}")
        flags = TOP_FLAGS
    if sets_flags:
        state.flags = _preserve_cf(state.flags, flags) if keeps_cf else flags
        state.flag_source = None
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    state.memory.write(address, result, size, ctx)


def _shift(ctx, name, dst, cl, count, state, emit):
    """SHL/SHR/SAR (``name``) by an immediate ``count``, or by CL (``cl``
    is its register; ``count`` is then the byte mask).  A zero count keeps
    the flags and their provenance."""
    regs = state.regs
    x = regs[dst]
    if cl is not None:
        try:
            count = ctx.ops.and_(regs[cl], count)[0]
        except PrecisionLoss as loss:
            count = ctx.widened(f"AND: {loss}")
    try:
        result, bits = ctx.ops.shift(name, x, count)
        if KEPT_FLAGS not in bits:
            state.flags = _from_flagbits(bits)
            state.flag_source = None
        elif len(bits) > 1:  # zero and non-zero counts
            state.flags = state.flags.join(_from_flagbits(bits - {KEPT_FLAGS}))
            state.flag_source = None
    except (PrecisionLoss, ValueError) as problem:
        result = ctx.widened(f"{name.lower()}: {problem}")
        state.flags = TOP_FLAGS
        state.flag_source = None
    regs[dst] = result
    if state.copies:
        state.invalidate_copy(dst)
    source = state.flag_source
    if source is not None and source.reg == dst:
        state.flag_source = None


def _imul(ctx, dst, left, right, y, state, emit):
    """``imul dst, right`` (``left`` is dst) or ``imul dst, left, y``."""
    regs = state.regs
    x = regs[left]
    if right is not None:
        y = regs[right]
    try:
        result, bits = ctx.ops.mul(x, y)
        _from_flagbits(bits)
    except PrecisionLoss as loss:
        result = ctx.widened(f"MUL: {loss}")
    state.flags = TOP_FLAGS  # x86 leaves ZF/SF undefined
    state.flag_source = None
    regs[dst] = result
    if state.copies:
        state.invalidate_copy(dst)


def _wide_multiply(ctx, src, state, emit):
    """MUL: EDX:EAX = EAX * src."""
    x = state.regs[EAX]
    y = state.regs[src]
    try:
        lows = set()
        highs = set()
        for value_x in x.constant_values():
            for value_y in y.constant_values():
                full = value_x * value_y
                lows.add(truncate(full, WIDTH))
                highs.add(truncate(full >> WIDTH, WIDTH))
        _set_reg(state, EAX, ValueSet.constants(lows, WIDTH))
        _set_reg(state, EDX, ValueSet.constants(highs, WIDTH))
    except ValueError:
        try:
            low = ctx.ops.mul(x, y)[0]
        except PrecisionLoss as loss:
            low = ctx.widened(f"MUL: {loss}")
        _set_reg(state, EAX, low)
        _set_reg(state, EDX, ctx.widened("mul high word"))
    state.flags = TOP_FLAGS
    state.flag_source = None


def _wide_divide(ctx, src, state, emit):
    """DIV: EAX, EDX = divmod(EDX:EAX, src)."""
    divisor = state.regs[src]
    try:
        quotients = set()
        remainders = set()
        for low in state.regs[EAX].constant_values():
            for high in state.regs[EDX].constant_values():
                for value_d in divisor.constant_values():
                    if value_d == 0:
                        raise AnalysisError("possible division by zero")
                    quotient, remainder = divmod((high << WIDTH) | low, value_d)
                    quotients.add(truncate(quotient, WIDTH))
                    remainders.add(remainder)
        _set_reg(state, EAX, ValueSet.constants(quotients, WIDTH))
        _set_reg(state, EDX, ValueSet.constants(remainders, WIDTH))
    except ValueError:
        _set_reg(state, EAX, ctx.widened("div quotient"))
        _set_reg(state, EDX, ctx.widened("div remainder"))
    state.flags = TOP_FLAGS
    state.flag_source = None


def _push(ctx, four, src, value, state, emit):
    """``push`` of a register (``src``) or a constant ``value``."""
    regs = state.regs
    if src is not None:
        value = regs[src]
    try:
        new_esp = ctx.ops.sub(regs[ESP], four)[0]
    except PrecisionLoss as loss:
        new_esp = ctx.widened(f"SUB: {loss}")
    regs[ESP] = new_esp
    if state.copies:
        state.invalidate_copy(ESP)
    source = state.flag_source
    if source is not None and source.reg == ESP:
        state.flag_source = None
    emit(new_esp)
    state.memory.write(new_esp, value, 4, ctx)


def _push_m(ctx, four, base, index, scale, disp, size, state, emit):
    regs = state.regs
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    emit(address)
    _push(ctx, four, None, state.memory.read(address, size, ctx), state, emit)


def _pop(ctx, four, dst, state, emit):
    """``pop dst``; ``dst`` None discards the value and returns it."""
    regs = state.regs
    esp = regs[ESP]
    emit(esp)
    value = state.memory.read(esp, 4, ctx)
    try:
        new_esp = ctx.ops.add(esp, four)[0]
    except PrecisionLoss as loss:
        new_esp = ctx.widened(f"ADD: {loss}")
    regs[ESP] = new_esp
    if state.copies:
        state.invalidate_copy(ESP)
    source = state.flag_source
    if source is not None and source.reg == ESP:
        state.flag_source = None
    if dst is None:
        return value
    _set_reg(state, dst, value)
    return None


def _lea(ctx, dst, base, index, scale, disp, state, emit):
    regs = state.regs
    if index is None and base is not None:
        address = regs[base]
        if disp is not None:
            try:
                address = ctx.ops.add(address, disp)[0]
            except PrecisionLoss as loss:
                address = ctx.widened(f"ADD: {loss}")
    else:
        address = _address(ctx, regs, base, index, scale, disp)
    regs[dst] = address
    if state.copies:
        state.invalidate_copy(dst)
    source = state.flag_source
    if source is not None and source.reg == dst:
        state.flag_source = None


def _movzx_r(ctx, dst, src, byte, state, emit):
    and_ = ctx.ops.and_
    try:
        value = and_(state.regs[src], byte)[0]
    except PrecisionLoss as loss:
        value = ctx.widened(f"AND: {loss}")
    try:
        value = and_(value, byte)[0]
    except PrecisionLoss as loss:
        value = ctx.widened(f"AND: {loss}")
    _set_reg(state, dst, value)


def _setcc(ctx, condition, dst, upper_mask, state, emit):
    bits = {1 if outcome else 0 for outcome in state.flags.outcomes(condition)}
    value = ValueSet.constants(bits, WIDTH)
    ops = ctx.ops
    try:
        upper = ops.and_(state.regs[dst], upper_mask)[0]
    except PrecisionLoss as loss:
        upper = ctx.widened(f"AND: {loss}")
    try:
        value = ops.or_(upper, value)[0]
    except PrecisionLoss as loss:
        value = ctx.widened(f"OR: {loss}")
    _set_reg(state, dst, value)


def _nop(state, emit):
    return None


# ----------------------------------------------------------------------
# Control-flow handlers (single steps only)
# ----------------------------------------------------------------------

def _hlt(state, emit):
    return []  # terminal


def _jmp(target, state, emit):
    return [Successor(target, state)]


def _jcc(ctx, condition, target, next_pc, state, emit):
    outcomes = state.flags.outcomes(condition)
    successors = []
    if True in outcomes:
        successors.append(Successor(
            target, _refine_branch(ctx, state, condition, True)))
    if False in outcomes:
        successors.append(Successor(
            next_pc, _refine_branch(ctx, state, condition, False)))
    return successors


def _call(ctx, four, return_address, target, state, emit):
    _push(ctx, four, None, return_address, state, emit)
    return [Successor(target, state, frame_op="push")]


def _call_extern(ctx, four, return_address, stub, name, next_pc, state, emit):
    """A summarized extern (paper §8.2: mpi mul/mod are not analyzed).

    Models the stub's own execution: push the return address, fetch the
    stub, execute its RET (stack read), and clobber the caller-saved
    registers with fresh unknowns.
    """
    _push(ctx, four, None, return_address, state, emit)
    emit(stub, "I")
    _pop(ctx, four, None, state, emit)
    # EBX/ESI/EDI/ECX are callee-saved in the compiler's ABI.
    for reg in (EAX, EDX):
        _set_reg(state, reg, ctx.widened(f"{name} clobbers"))
    state.flags = TOP_FLAGS
    state.flag_source = None
    return [Successor(next_pc, state)]


def _ret(ctx, four, state, emit):
    value = _pop(ctx, four, None, state, emit)
    if not value.is_constant:
        raise AnalysisError("return address is not a single known value")
    return [Successor(value.value, state, frame_op="pop")]


def _refine_branch(ctx, state: AbsState, condition: str,
                   outcome: bool) -> AbsState:
    """Restrict flags — and if possible the compared register — per arm."""
    refined = state.clone()
    refined.flags = state.flags.restrict(condition, outcome)
    source = state.flag_source
    if source is None or not ctx.config.refine_branches:
        return refined
    if state.regs[source.reg] != source.left:
        return refined  # register overwritten since the comparison
    try:
        left_values = source.left.constant_values()
        right_values = source.right.constant_values()
    except ValueError:
        return refined  # symbolic comparison: no value refinement
    kept = set()
    for x in left_values:
        for y in right_values:
            if source.operation == "cmp":
                result, carry, overflow = sub_with_borrow(x, y, 0, WIDTH)
            else:  # test
                result, carry, overflow = (x & y), 0, 0
            flags = (1 if result == 0 else 0, carry, sign_bit(result, WIDTH), overflow)
            if condition_holds(condition, *flags) == outcome:
                kept.add(x)
                break
    if kept and kept != left_values:
        narrowed = ValueSet.constants(kept, WIDTH)
        # Refine every register provably holding the compared value
        # (established through mov-copies), e.g. the scratch register of
        # the comparison AND the register-allocated home of the secret.
        for reg in state.equal_registers(source.reg):
            if refined.regs[reg] == source.left:
                refined.regs[reg] = narrowed
    return refined
