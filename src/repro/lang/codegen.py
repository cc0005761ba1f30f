"""IR → x86-subset code generation with gcc-like optimization levels.

The three levels deliberately mirror the compilation effects the paper's
evaluation hinges on (Figures 7 vs 8, 9a vs 9b, 15a vs 15b):

- **O0**: every virtual register lives in a stack slot and every IR operation
  loads/spills through EAX/EDX — fat code with data-cache traffic on every
  arm of every branch (the paper's Figure 8/9b observations come from this);
- **O1**: hot virtual registers are promoted to callee-saved registers;
  branch arms are laid out inline in source order (Figure 15b);
- **O2**: O1 plus direct-to-register peepholes (register-only conditional
  bodies, Figure 9a) and *cold-arm outlining*: the then-arm of an if/else is
  moved behind the function's tail, producing the A-B-A block pattern of
  Figure 15a.

Calling convention (cdecl-like): arguments pushed right to left, EAX carries
the return value, EBX/ESI/EDI/ECX are callee-saved when used, EBP frames the
stack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.isa.image import Assembler
from repro.isa.instructions import Imm, Instruction, Label, Mem, Reg
from repro.isa.registers import EAX, EBP, EBX, ECX, EDI, EDX, ESI, ESP, Reg8
from repro.lang.ir import (
    AddrOf, Bin, CallOp, CmpSet, CondBranch, Const, IRFunction, IRProgram,
    ImmOp, Jmp, LoadOp, Mov, Ret, StoreOp,
)

__all__ = ["generate_function", "generate_program", "CodegenError"]

ALLOCATABLE_O1 = (EBX, ESI, EDI, ECX)
ALLOCATABLE_O2 = (EBX, ESI, EDI, ECX, EDX)

_INVERSE_CONDITION = {
    "e": "ne", "ne": "e", "b": "ae", "ae": "b",
    "be": "a", "a": "be", "l": "ge", "ge": "l",
    "le": "g", "g": "le", "s": "ns", "ns": "s",
}

_BIN_MNEMONIC = {"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor"}


class CodegenError(Exception):
    """Raised when IR cannot be translated."""


@dataclass(frozen=True, slots=True)
class _Slot:
    """Storage location of a virtual register.

    Kind "eax" marks a fused single-use temporary that flows from its
    defining instruction straight into the next one through the accumulator
    (never materialized in memory or a callee-saved register).
    """

    kind: str  # "reg", "stack", "param", "eax"
    where: int  # register id, or frame offset

    def operand(self):
        if self.kind == "reg":
            return Reg(self.where)
        if self.kind == "eax":
            return Reg(EAX)
        return Mem(base=EBP, disp=self.where & 0xFFFFFFFF)


class _FunctionCodegen:
    def __init__(self, fn: IRFunction, opt_level: int,
                 cold_align: int | None = None):
        self.fn = fn
        self.opt = opt_level
        self.cold_align = cold_align
        self.slots: dict[int, _Slot] = {}
        self.used_callee_saved: list[int] = []
        self.stack_bytes = 0
        self.instructions: list = []  # Instruction | ("label", name) | ("align", n)
        self._assign_slots()

    # ------------------------------------------------------------------
    # Register allocation
    # ------------------------------------------------------------------
    def _vreg_uses(self) -> Counter:
        """Register-benefiting use counts.

        Uses as call arguments are discounted: they are pushed straight from
        the virtual register's home, so promoting an argument-only value to a
        register buys nothing (this is what keeps registers free for the
        values the branch bodies actually manipulate).
        """
        uses: Counter = Counter()

        def touch(operand, weight=1):
            if isinstance(operand, int):
                uses[operand] += weight

        for block in self.fn.blocks.values():
            for instruction in block.instructions:
                for attr in ("dst", "src", "left", "right", "addr"):
                    touch(getattr(instruction, attr, None))
                for arg in getattr(instruction, "args", ()):
                    touch(arg, weight=0)
            terminator = block.terminator
            for attr in ("src", "left", "right"):
                touch(getattr(terminator, attr, None))
        return uses

    def _fusable_temps(self) -> set[int]:
        """Temporaries forwarded through EAX (accumulator forwarding).

        A virtual register is fused when it is defined exactly once and its
        only use is the *primary* operand of the immediately following
        instruction — the operand the code generator loads into EAX first —
        so the value never needs a home.
        """
        definitions: Counter = Counter()
        uses: Counter = Counter()
        primary_next: set[int] = set()

        def primary_operand(instruction):
            if isinstance(instruction, Mov):
                return instruction.src
            if isinstance(instruction, (Bin, CmpSet, CondBranch)):
                return instruction.left
            if isinstance(instruction, (LoadOp, StoreOp)):
                return instruction.addr
            if isinstance(instruction, Ret):
                return instruction.src
            if isinstance(instruction, CallOp) and instruction.args:
                return instruction.args[-1]  # pushed first (right-to-left)
            return None

        for block in self.fn.blocks.values():
            stream = list(block.instructions) + [block.terminator]
            for position, instruction in enumerate(stream):
                dst = getattr(instruction, "dst", None)
                if isinstance(dst, int):
                    definitions[dst] += 1
                for attr in ("src", "left", "right", "addr"):
                    operand = getattr(instruction, attr, None)
                    if isinstance(operand, int):
                        uses[operand] += 1
                for arg in getattr(instruction, "args", ()):
                    if isinstance(arg, int):
                        uses[arg] += 1
            for position in range(len(stream) - 1):
                dst = getattr(stream[position], "dst", None)
                if isinstance(dst, int) and primary_operand(stream[position + 1]) == dst:
                    primary_next.add(dst)

        param_vregs = set(self.fn.param_vregs.values())
        return {
            vreg for vreg in primary_next
            if definitions[vreg] == 1 and uses[vreg] == 1
            and vreg not in param_vregs
        }

    def _assign_slots(self) -> None:
        uses = self._vreg_uses()
        param_offsets = {
            vreg: 8 + 4 * index
            for index, (name, vreg) in enumerate(
                (name, self.fn.param_vregs[name]) for name in self.fn.params)
        }
        promoted: set[int] = set()
        if self.opt >= 1:
            for vreg in self._fusable_temps():
                self.slots[vreg] = _Slot(kind="eax", where=EAX)
                promoted.add(vreg)
            pool = ALLOCATABLE_O2 if self.opt >= 2 else ALLOCATABLE_O1
            hot = [vreg for vreg, count in uses.most_common()
                   if count > 0 and vreg not in promoted]
            for vreg, register in zip(hot[:len(pool)], pool):
                self.slots[vreg] = _Slot(kind="reg", where=register)
                promoted.add(vreg)
                if register not in self.used_callee_saved:
                    self.used_callee_saved.append(register)
        next_local = 0
        for vreg in range(self.fn.vreg_count):
            if vreg in promoted:
                continue
            if vreg in param_offsets:
                # A parameter's home is its caller-pushed stack slot.
                self.slots[vreg] = _Slot(kind="param", where=param_offsets[vreg])
            else:
                next_local += 4
                self.slots[vreg] = _Slot(kind="stack", where=-next_local)
        self.stack_bytes = next_local

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def emit(self, mnemonic: str, *operands) -> None:
        self.instructions.append(Instruction(mnemonic, tuple(operands)))

    def emit_label(self, name: str) -> None:
        self.instructions.append(("label", name))

    def _operand(self, operand):
        """Machine operand for an IR operand (ImmOp or vreg)."""
        if isinstance(operand, ImmOp):
            return Imm(operand.value)
        return self.slots[operand].operand()

    def _load_to(self, register: int, operand) -> None:
        machine = self._operand(operand)
        if isinstance(machine, Reg) and machine.reg == register:
            return
        self.emit("mov", Reg(register), machine)

    def _store_from(self, register: int, vreg: int) -> None:
        target = self.slots[vreg].operand()
        if isinstance(target, Reg) and target.reg == register:
            return
        self.emit("mov", target, Reg(register))

    @property
    def _edx_allocated(self) -> bool:
        return EDX in self.used_callee_saved

    def _emit_via_edx(self, emit_body) -> None:
        """Run an emission that uses EDX as scratch, preserving it if a
        virtual register lives there."""
        if self._edx_allocated:
            self.emit("push", Reg(EDX))
        emit_body()
        if self._edx_allocated:
            self.emit("pop", Reg(EDX))

    # ------------------------------------------------------------------
    # Function structure
    # ------------------------------------------------------------------
    def generate(self) -> list:
        self.emit_label(self.fn.name)
        self.emit("push", Reg(EBP))
        self.emit("mov", Reg(EBP), Reg(ESP))
        if self.stack_bytes:
            self.emit("sub", Reg(ESP), Imm(self.stack_bytes))
        for register in self.used_callee_saved:
            self.emit("push", Reg(register))
        # Copy register-promoted parameters from their stack homes.
        for index, name in enumerate(self.fn.params):
            vreg = self.fn.param_vregs[name]
            slot = self.slots[vreg]
            if slot.kind == "reg":
                self.emit("mov", Reg(slot.where), Mem(base=EBP, disp=8 + 4 * index))

        order = self.fn.block_order(cold_last=self.opt >= 2)
        labels = [block.label for block in order]
        cold_marked = False
        for position, block in enumerate(order):
            if (block.cold and not cold_marked and self.opt >= 2
                    and self.cold_align):
                # Out-of-line section for unlikely code (gcc's .text.unlikely
                # analogue): its placement in a distinct cache line is what
                # produces the paper's Figure 15a A-B-A fetch pattern.
                self.instructions.append(("align", self.cold_align))
                cold_marked = True
            self.emit_label(self._block_label(block.label))
            for instruction in block.instructions:
                self._instruction(instruction)
            next_label = labels[position + 1] if position + 1 < len(labels) else None
            self._terminator(block.terminator, next_label)
        self.emit_label(self._epilogue_label())
        for register in reversed(self.used_callee_saved):
            self.emit("pop", Reg(register))
        self.emit("mov", Reg(ESP), Reg(EBP))
        self.emit("pop", Reg(EBP))
        self.emit("ret")
        return self.instructions

    def _block_label(self, label: str) -> str:
        return f"{self.fn.name}.{label}"

    def _epilogue_label(self) -> str:
        return f"{self.fn.name}.$exit"

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------
    def _instruction(self, instruction) -> None:
        if isinstance(instruction, (Const,)):
            self._move(instruction.dst, ImmOp(instruction.value))
        elif isinstance(instruction, Mov):
            self._move(instruction.dst, instruction.src)
        elif isinstance(instruction, Bin):
            self._bin(instruction)
        elif isinstance(instruction, CmpSet):
            self._cmpset(instruction)
        elif isinstance(instruction, LoadOp):
            self._load(instruction)
        elif isinstance(instruction, StoreOp):
            self._store(instruction)
        elif isinstance(instruction, CallOp):
            self._callop(instruction)
        elif isinstance(instruction, AddrOf):
            target = self.slots[instruction.dst].operand()
            if isinstance(target, Reg):
                self.emit("mov", target, Label(instruction.global_name))
            else:
                self.emit("mov", Reg(EAX), Label(instruction.global_name))
                self._store_from(EAX, instruction.dst)
        else:
            raise CodegenError(f"cannot generate {instruction!r}")

    def _move(self, dst: int, src) -> None:
        source = self._operand(src)
        target = self.slots[dst].operand()
        if source == target:
            return
        if isinstance(target, Mem) and isinstance(source, Mem):
            self.emit("mov", Reg(EAX), source)
            self.emit("mov", target, Reg(EAX))
        else:
            self.emit("mov", target, source)

    def _bin(self, instruction: Bin) -> None:
        op = instruction.op
        if op in ("<<", ">>"):
            self._shift(instruction)
            return
        if op == "*":
            self._multiply(instruction)
            return
        mnemonic = _BIN_MNEMONIC[op]
        dst_slot = self.slots[instruction.dst]
        right = self._operand(instruction.right)
        # O2 peephole: compute directly in the destination register when the
        # right operand does not alias it (register-only branch bodies).
        if (self.opt >= 2 and dst_slot.kind == "reg"
                and right != Reg(dst_slot.where)):
            self._load_to(dst_slot.where, instruction.left)
            self.emit(mnemonic, Reg(dst_slot.where), right)
            return
        self._load_to(EAX, instruction.left)
        self.emit(mnemonic, Reg(EAX), right)
        self._store_from(EAX, instruction.dst)

    def _shift(self, instruction: Bin) -> None:
        mnemonic = "shl" if instruction.op == "<<" else "shr"
        self._load_to(EAX, instruction.left)
        right = instruction.right
        if isinstance(right, ImmOp):
            self.emit(mnemonic, Reg(EAX), Imm(right.value & 31))
        else:
            source = self._operand(right)
            if not (isinstance(source, Reg) and source.reg == ECX):
                self.emit("push", Reg(ECX))
                self.emit("mov", Reg(ECX), source)
                self.emit(mnemonic, Reg(EAX), Reg8(ECX))
                self.emit("pop", Reg(ECX))
            else:
                self.emit(mnemonic, Reg(EAX), Reg8(ECX))
        self._store_from(EAX, instruction.dst)

    def _multiply(self, instruction: Bin) -> None:
        # Strength-reduce multiplication by a power of two.
        right = instruction.right
        if isinstance(right, ImmOp) and right.value and right.value & (right.value - 1) == 0:
            shifted = Bin(op="<<", dst=instruction.dst, left=instruction.left,
                          right=ImmOp(right.value.bit_length() - 1))
            self._shift(shifted)
            return
        self._load_to(EAX, instruction.left)
        if isinstance(right, ImmOp):
            self.emit("imul", Reg(EAX), Reg(EAX), Imm(right.value))
        else:
            source = self._operand(right)
            if isinstance(source, Mem):
                self._emit_via_edx(lambda: (
                    self.emit("mov", Reg(EDX), source),
                    self.emit("imul", Reg(EAX), Reg(EDX)),
                ))
            else:
                self.emit("imul", Reg(EAX), source)
        self._store_from(EAX, instruction.dst)

    def _cmpset(self, instruction: CmpSet) -> None:
        self._load_to(EAX, instruction.left)
        self.emit("cmp", Reg(EAX), self._operand(instruction.right))
        self.emit("mov", Reg(EAX), Imm(0))
        self.emit(f"set{instruction.cond}", Reg8(EAX))
        self._store_from(EAX, instruction.dst)

    def _load(self, instruction: LoadOp) -> None:
        self._load_to(EAX, instruction.addr)
        if instruction.size == 1:
            self.emit("movzx", Reg(EAX), Mem(base=EAX, size=1))
        else:
            self.emit("mov", Reg(EAX), Mem(base=EAX))
        self._store_from(EAX, instruction.dst)

    def _store(self, instruction: StoreOp) -> None:
        self._load_to(EAX, instruction.addr)
        source = self._operand(instruction.src)
        if instruction.size == 1:
            if isinstance(source, Reg) and source.reg <= 3:
                self.emit("movb", Mem(base=EAX, size=1), Reg8(source.reg))
            else:
                self._emit_via_edx(lambda: (
                    self.emit("mov", Reg(EDX), source),
                    self.emit("movb", Mem(base=EAX, size=1), Reg8(EDX)),
                ))
        else:
            if isinstance(source, Mem):
                self._emit_via_edx(lambda: (
                    self.emit("mov", Reg(EDX), source),
                    self.emit("mov", Mem(base=EAX), Reg(EDX)),
                ))
            else:
                self.emit("mov", Mem(base=EAX), source)

    def _callop(self, instruction: CallOp) -> None:
        for arg in reversed(instruction.args):
            self.emit("push", self._operand(arg))
        self.emit("call", Label(instruction.name))
        if instruction.args:
            self.emit("add", Reg(ESP), Imm(4 * len(instruction.args)))
        if instruction.dst is not None:
            self._store_from(EAX, instruction.dst)

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------
    def _terminator(self, terminator, next_label: str | None) -> None:
        if isinstance(terminator, Ret):
            if terminator.src is not None:
                self._load_to(EAX, terminator.src)
            self.emit("jmp", Label(self._epilogue_label()))
        elif isinstance(terminator, Jmp):
            if terminator.target != next_label:
                self.emit("jmp", Label(self._block_label(terminator.target)))
        elif isinstance(terminator, CondBranch):
            self._load_to(EAX, terminator.left)
            self.emit("cmp", Reg(EAX), self._operand(terminator.right))
            if terminator.if_false == next_label:
                self.emit(f"j{terminator.cond}",
                          Label(self._block_label(terminator.if_true)))
            elif terminator.if_true == next_label:
                self.emit(f"j{_INVERSE_CONDITION[terminator.cond]}",
                          Label(self._block_label(terminator.if_false)))
            else:
                self.emit(f"j{terminator.cond}",
                          Label(self._block_label(terminator.if_true)))
                self.emit("jmp", Label(self._block_label(terminator.if_false)))
        else:
            raise CodegenError(f"unknown terminator {terminator!r}")


def generate_function(fn: IRFunction, opt_level: int,
                      cold_align: int | None = None) -> list:
    """Generate the instruction/label stream of one function."""
    return _FunctionCodegen(fn, opt_level, cold_align=cold_align).generate()


def generate_program(
    program: IRProgram,
    assembler: Assembler,
    opt_level: int = 2,
    function_align: int | None = None,
    stub_align: int | None = None,
    cold_align: int | None = None,
    data_align: dict[str, int] | None = None,
    data_pad: dict[str, int] | None = None,
) -> Assembler:
    """Emit a whole IR program into an assembler.

    ``function_align``/``stub_align``/``cold_align`` control text placement
    (cache-line effects); ``data_align``/``data_pad`` pin globals relative to
    line boundaries, which the case study uses to reproduce the exact table
    layouts of the paper's figures.
    """
    for name, fn in program.functions.items():
        if function_align:
            assembler.align(function_align)
        stream = generate_function(fn, opt_level, cold_align=cold_align)
        first = True
        for item in stream:
            if isinstance(item, tuple) and item[0] == "label":
                assembler.label(item[1], function=first)
                first = False
            elif isinstance(item, tuple) and item[0] == "align":
                assembler.align(item[1])
            else:
                assembler.emit(item)
    for name in program.externs:
        if stub_align:
            assembler.align(stub_align)
        assembler.label(name, function=True)
        assembler.emit(Instruction("ret"))
    if program.globals_:
        assembler.section("data")
        for decl in program.globals_:
            align = (data_align or {}).get(decl.name)
            if align:
                assembler.align(align)
            pad = (data_pad or {}).get(decl.name)
            if pad:
                assembler.reserve(pad)
            assembler.label(decl.name)
            if decl.words is not None:
                payload = b"".join(
                    (word & 0xFFFFFFFF).to_bytes(4, "little") for word in decl.words)
                assembler.data(payload)
            else:
                assembler.reserve(decl.size)
        assembler.section("text")
    return assembler
