"""Abstract transfer function: instruction semantics over abstract states.

Mirrors the concrete CPU (:mod:`repro.vm.cpu`) instruction by instruction,
operating on value sets instead of words and emitting the *abstract access
stream* — (kind, address set) pairs — that drives the per-observer trace
DAGs.  Conditional branches whose outcome is not determined by the abstract
flags fork into both successors (with flags and, where possible, compared
registers refined per arm).

Calls to functions named in the input spec's ``extern_clobbers`` are
*summarized* (the paper excludes the multi-precision mul/mod routines from
analysis the same way): the stub's fetch and the return-address stack traffic
are still emitted — these produce the instruction-cache leak of Figure 7a —
but the body is not entered, and the caller-saved registers are clobbered
with fresh unknowns.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.config import AnalysisError
from repro.analysis.flags import FlagState, TOP_FLAGS
from repro.analysis.state import AbsState, AnalysisContext, FlagSource
from repro.core.bitvec import sign_bit, sub_with_borrow, truncate
from repro.core.valueset import KEPT_FLAGS, PrecisionLoss, ValueSet
from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Mem, Reg, condition_holds
from repro.isa.registers import EAX, EDX, ESP, Reg8

__all__ = ["Transfer", "Successor", "SENTINEL_RETURN"]

WIDTH = 32
SENTINEL_RETURN = 0xFFFF_FFF0

# emit(kind, address_set, size): kind is "I" or "D"
EmitFn = Callable[[str, ValueSet, int], None]
# A two-operand lifting of ValueSetOps: (x, y) -> (result, flag outcomes)
LiftFn = Callable[[ValueSet, ValueSet], tuple]


class Successor:
    """One control-flow successor produced by a step."""

    __slots__ = ("pc", "state", "frame_op")

    def __init__(self, pc: int, state: AbsState, frame_op: str | None = None):
        self.pc = pc
        self.state = state
        self.frame_op = frame_op  # None | "push" | "pop"


class Transfer:
    """Executes single instructions abstractly."""

    def __init__(self, context: AnalysisContext, image: Image,
                 extern_clobbers: dict[int, str] | None = None):
        self.context = context
        self.image = image
        ops = self.ops = context.ops
        self.extern_clobbers = extern_clobbers or {}
        # The lifting of each two-operand ALU mnemonic, with its warning name.
        self._alu = {"add": (ops.add, "ADD"), "sub": (ops.sub, "SUB"),
                     "and": (ops.and_, "AND"), "or": (ops.or_, "OR"),
                     "xor": (ops.xor, "XOR")}

    # ------------------------------------------------------------------
    # Operand helpers
    # ------------------------------------------------------------------
    def _effective_address(self, state: AbsState, mem: Mem) -> ValueSet:
        """Evaluate ``base + index*scale + disp`` over value sets."""
        address: ValueSet | None = None
        if mem.base is not None:
            address = state.regs[mem.base]
        if mem.index is not None:
            index = state.regs[mem.index]
            if mem.scale != 1:
                index = self._apply(self.ops.mul, "MUL", index,
                                    ValueSet.constant(mem.scale, WIDTH))
            address = (index if address is None
                       else self._apply(self.ops.add, "ADD", address, index))
        if address is None:
            address = ValueSet.constant(mem.disp, WIDTH)
        elif mem.disp:
            address = self._apply(self.ops.add, "ADD", address,
                                  ValueSet.constant(mem.disp, WIDTH))
        return address

    def _apply(self, lift: LiftFn, name: str, x: ValueSet, y: ValueSet) -> ValueSet:
        """Apply a lifting, widening to unknown on precision loss.

        ``name`` is the operation's name in the widening warning.
        """
        try:
            return lift(x, y)[0]
        except PrecisionLoss as loss:
            return self.context.widened(f"{name}: {loss}")

    def _read_operand(self, state: AbsState, op, emit: EmitFn) -> ValueSet:
        if isinstance(op, Reg):
            return state.regs[op.reg]
        if isinstance(op, Reg8):
            return self._apply(self.ops.and_, "AND", state.regs[op.reg],
                               ValueSet.constant(0xFF, WIDTH))
        if isinstance(op, Imm):
            return ValueSet.constant(op.value, WIDTH)
        if isinstance(op, Mem):
            address = self._effective_address(state, op)
            emit("D", address, op.size)
            value = state.memory.read(address, op.size, self.context)
            return value
        raise AnalysisError(f"cannot read operand {op!r}")

    def _write_operand(self, state: AbsState, op, value: ValueSet, emit: EmitFn) -> None:
        if isinstance(op, Reg):
            self._set_reg(state, op.reg, value)
        elif isinstance(op, Reg8):
            upper = self._apply(self.ops.and_, "AND", state.regs[op.reg],
                                ValueSet.constant(0xFFFFFF00, WIDTH))
            low = self._apply(self.ops.and_, "AND", value,
                              ValueSet.constant(0xFF, WIDTH))
            self._set_reg(state, op.reg, self._apply(self.ops.or_, "OR", upper, low))
        elif isinstance(op, Mem):
            address = self._effective_address(state, op)
            emit("D", address, op.size)
            state.memory.write(address, value, op.size, self.context)
        else:
            raise AnalysisError(f"cannot write operand {op!r}")

    def _set_reg(self, state: AbsState, reg: int, value: ValueSet) -> None:
        state.regs[reg] = value
        state.invalidate_copy(reg)
        if state.flag_source is not None and state.flag_source.reg == reg:
            state.flag_source = None

    # ------------------------------------------------------------------
    # Flag helpers
    # ------------------------------------------------------------------
    def _apply_with_flags(self, lift: Callable[..., tuple], name: str,
                          *operands: ValueSet):
        """:meth:`_apply` that also returns the lifting's flag outcomes."""
        try:
            result, flag_bits = lift(*operands)
            return result, FlagState.from_flagbits(flag_bits)
        except PrecisionLoss as loss:
            return self.context.widened(f"{name}: {loss}"), TOP_FLAGS

    @staticmethod
    def _preserve_cf(old: FlagState, new: FlagState) -> FlagState:
        """Combine new ZF/SF/OF with the previous CF (x86 INC/DEC)."""
        tuples = frozenset(
            (zf, old_cf, sf, of)
            for (zf, _cf, sf, of) in new.tuples
            for (_z, old_cf, _s, _o) in old.tuples
        )
        return FlagState(tuples)

    # ------------------------------------------------------------------
    # Branch refinement
    # ------------------------------------------------------------------
    def _refine_branch(self, state: AbsState, condition: str, outcome: bool) -> AbsState:
        """Restrict flags — and if possible the compared register — per arm."""
        refined = state.clone()
        refined.flags = state.flags.restrict(condition, outcome)
        source = state.flag_source
        if source is None or not self.context.config.refine_branches:
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

    # ------------------------------------------------------------------
    # The step function
    # ------------------------------------------------------------------
    def step(self, state: AbsState, instr: Instruction, emit: EmitFn) -> list[Successor]:
        """Execute one instruction; returns the successor configurations.

        The instruction fetch is emitted here so that every path through this
        function contributes to the instruction-cache trace.
        """
        emit("I", ValueSet.constant(instr.addr, WIDTH), instr.encoded_size)
        next_pc = instr.addr + instr.encoded_size
        mnemonic = instr.mnemonic
        ops = instr.operands

        if mnemonic == "mov":
            value = self._read_operand(state, ops[1], emit)
            self._write_operand(state, ops[0], value, emit)
            if isinstance(ops[0], Reg) and isinstance(ops[1], Reg):
                state.record_copy(ops[0].reg, ops[1].reg)
        elif mnemonic == "movzx":
            source = ops[1]
            if isinstance(source, Mem):
                value = self._read_operand(state, source, emit)
            else:
                value = self._apply(self.ops.and_, "AND", state.regs[source.reg],
                                    ValueSet.constant(0xFF, WIDTH))
            value = self._apply(self.ops.and_, "AND", value,
                                ValueSet.constant(0xFF, WIDTH))
            self._write_operand(state, ops[0], value, emit)
        elif mnemonic == "movb":
            mem = ops[0]
            if mem.size != 1:
                mem = Mem(mem.base, mem.index, mem.scale, mem.disp, 1)
            value = self._apply(self.ops.and_, "AND", state.regs[ops[1].reg],
                                ValueSet.constant(0xFF, WIDTH))
            self._write_operand(state, mem, value, emit)
        elif mnemonic == "lea":
            self._set_reg(state, ops[0].reg, self._effective_address(state, ops[1]))
        elif mnemonic in self._alu:
            x = self._read_operand(state, ops[0], emit)
            y = self._read_operand(state, ops[1], emit)
            result, flags = self._apply_with_flags(*self._alu[mnemonic], x, y)
            state.flags = flags
            state.flag_source = None
            self._write_operand(state, ops[0], result, emit)
        elif mnemonic == "cmp":
            x = self._read_operand(state, ops[0], emit)
            y = self._read_operand(state, ops[1], emit)
            _, flags = self._apply_with_flags(self.ops.sub, "SUB", x, y)
            state.flags = flags
            state.flag_source = (
                FlagSource(ops[0].reg, "cmp", x, y) if isinstance(ops[0], Reg) else None
            )
        elif mnemonic == "test":
            x = self._read_operand(state, ops[0], emit)
            y = self._read_operand(state, ops[1], emit)
            _, flags = self._apply_with_flags(self.ops.and_, "AND", x, y)
            state.flags = flags
            same_reg = (isinstance(ops[0], Reg) and isinstance(ops[1], Reg)
                        and ops[0].reg == ops[1].reg)
            state.flag_source = FlagSource(ops[0].reg, "test", x, y) if same_reg else None
        elif mnemonic in ("inc", "dec"):
            x = self._read_operand(state, ops[0], emit)
            lift, name = self._alu["add" if mnemonic == "inc" else "sub"]
            result, flags = self._apply_with_flags(
                lift, name, x, ValueSet.constant(1, WIDTH))
            state.flags = self._preserve_cf(state.flags, flags)
            state.flag_source = None
            self._write_operand(state, ops[0], result, emit)
        elif mnemonic == "neg":
            x = self._read_operand(state, ops[0], emit)
            result, flags = self._apply_with_flags(self.ops.neg, "NEG", x)
            state.flags = flags
            state.flag_source = None
            self._write_operand(state, ops[0], result, emit)
        elif mnemonic == "not":
            x = self._read_operand(state, ops[0], emit)
            result, _ = self._apply_with_flags(self.ops.not_, "NOT", x)
            self._write_operand(state, ops[0], result, emit)
        elif mnemonic in ("shl", "shr", "sar"):
            x = self._read_operand(state, ops[0], emit)
            count = self._read_operand(state, ops[1], emit)
            try:
                result, flag_bits = self.ops.shift(mnemonic.upper(), x, count)
                if KEPT_FLAGS not in flag_bits:
                    state.flags = FlagState.from_flagbits(flag_bits)
                    state.flag_source = None
                elif len(flag_bits) > 1:  # zero and non-zero counts
                    state.flags = state.flags.join(
                        FlagState.from_flagbits(flag_bits - {KEPT_FLAGS}))
                    state.flag_source = None
            except (PrecisionLoss, ValueError) as problem:
                result = self.context.widened(f"{mnemonic}: {problem}")
                state.flags = TOP_FLAGS
                state.flag_source = None
            self._write_operand(state, ops[0], result, emit)
        elif mnemonic == "imul":
            if len(ops) == 2:
                x = self._read_operand(state, ops[0], emit)
                y = self._read_operand(state, ops[1], emit)
            else:
                x = self._read_operand(state, ops[1], emit)
                y = self._read_operand(state, ops[2], emit)
            result, flags = self._apply_with_flags(self.ops.mul, "MUL", x, y)
            state.flags = TOP_FLAGS  # x86 leaves ZF/SF undefined
            state.flag_source = None
            self._write_operand(state, ops[0], result, emit)
        elif mnemonic == "mul":
            self._wide_multiply(state, ops[0], emit)
        elif mnemonic == "div":
            self._wide_divide(state, ops[0], emit)
        elif mnemonic == "push":
            value = self._read_operand(state, ops[0], emit)
            self._push(state, value, emit)
        elif mnemonic == "pop":
            self._set_reg(state, ops[0].reg, self._pop(state, emit))
        elif mnemonic == "jmp":
            return [Successor(ops[0], state)]
        elif mnemonic == "call":
            return self._call(state, ops[0], next_pc, emit)
        elif mnemonic == "ret":
            return self._ret(state, emit)
        elif mnemonic.startswith("set"):
            condition = mnemonic[3:]
            outcomes = state.flags.outcomes(condition)
            bits = {1 if outcome else 0 for outcome in outcomes}
            value = ValueSet.constants(bits, WIDTH)
            upper = self._apply(self.ops.and_, "AND", state.regs[ops[0].reg],
                                ValueSet.constant(0xFFFFFF00, WIDTH))
            self._set_reg(state, ops[0].reg,
                          self._apply(self.ops.or_, "OR", upper, value))
        elif mnemonic.startswith("j"):
            condition = mnemonic[1:]
            outcomes = state.flags.outcomes(condition)
            successors = []
            if True in outcomes:
                taken = self._refine_branch(state, condition, True)
                successors.append(Successor(ops[0], taken))
            if False in outcomes:
                fallthrough = self._refine_branch(state, condition, False)
                successors.append(Successor(next_pc, fallthrough))
            return successors
        elif mnemonic == "nop":
            pass
        elif mnemonic == "hlt":
            return []  # terminal
        else:
            raise AnalysisError(f"unsupported instruction {mnemonic} at {instr.addr:#x}")
        return [Successor(next_pc, state)]

    # ------------------------------------------------------------------
    # Compound operations
    # ------------------------------------------------------------------
    def _wide_multiply(self, state: AbsState, operand, emit: EmitFn) -> None:
        """MUL: EDX:EAX = EAX * operand."""
        x = state.regs[EAX]
        y = self._read_operand(state, operand, emit)
        try:
            lows = set()
            highs = set()
            for value_x in x.constant_values():
                for value_y in y.constant_values():
                    full = value_x * value_y
                    lows.add(truncate(full, WIDTH))
                    highs.add(truncate(full >> WIDTH, WIDTH))
            self._set_reg(state, EAX, ValueSet.constants(lows, WIDTH))
            self._set_reg(state, EDX, ValueSet.constants(highs, WIDTH))
        except ValueError:
            self._set_reg(state, EAX, self._apply(self.ops.mul, "MUL", x, y))
            self._set_reg(state, EDX, self.context.widened("mul high word"))
        state.flags = TOP_FLAGS
        state.flag_source = None

    def _wide_divide(self, state: AbsState, operand, emit: EmitFn) -> None:
        """DIV: EAX, EDX = divmod(EDX:EAX, operand)."""
        divisor = self._read_operand(state, operand, emit)
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
            self._set_reg(state, EAX, ValueSet.constants(quotients, WIDTH))
            self._set_reg(state, EDX, ValueSet.constants(remainders, WIDTH))
        except ValueError:
            self._set_reg(state, EAX, self.context.widened("div quotient"))
            self._set_reg(state, EDX, self.context.widened("div remainder"))
        state.flags = TOP_FLAGS
        state.flag_source = None

    def _push(self, state: AbsState, value: ValueSet, emit: EmitFn) -> None:
        new_esp = self._apply(self.ops.sub, "SUB", state.regs[ESP],
                              ValueSet.constant(4, WIDTH))
        self._set_reg(state, ESP, new_esp)
        emit("D", new_esp, 4)
        state.memory.write(new_esp, value, 4, self.context)

    def _pop(self, state: AbsState, emit: EmitFn) -> ValueSet:
        esp = state.regs[ESP]
        emit("D", esp, 4)
        value = state.memory.read(esp, 4, self.context)
        self._set_reg(state, ESP, self._apply(self.ops.add, "ADD", esp,
                                              ValueSet.constant(4, WIDTH)))
        return value

    def _call(self, state: AbsState, target: int, next_pc: int,
              emit: EmitFn) -> list[Successor]:
        if target in self.extern_clobbers:
            # Summarized extern (paper §8.2: mpi mul/mod are not analyzed).
            # Model the stub's own execution: push the return address, fetch
            # the stub, execute its RET (stack read), and clobber the
            # caller-saved registers with fresh unknowns.
            self._push(state, ValueSet.constant(next_pc, WIDTH), emit)
            stub = self.image.decode_at(target)
            emit("I", ValueSet.constant(target, WIDTH), stub.encoded_size)
            self._pop(state, emit)
            name = self.extern_clobbers[target]
            # EBX/ESI/EDI/ECX are callee-saved in the compiler's ABI.
            for reg in (EAX, EDX):
                self._set_reg(state, reg, self.context.widened(f"{name} clobbers"))
            state.flags = TOP_FLAGS
            state.flag_source = None
            return [Successor(next_pc, state)]
        self._push(state, ValueSet.constant(next_pc, WIDTH), emit)
        return [Successor(target, state, frame_op="push")]

    def _ret(self, state: AbsState, emit: EmitFn) -> list[Successor]:
        value = self._pop(state, emit)
        if not value.is_constant:
            raise AnalysisError("return address is not a single known value")
        return [Successor(value.value, state, frame_op="pop")]
