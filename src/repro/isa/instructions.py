"""Instruction and operand model of the x86-subset ISA.

Instructions follow x86 conventions: the destination operand comes first,
memory operands are ``[base + index*scale + disp]``, and conditional jumps
are predicated on the ZF/CF/SF/OF flags.  The subset covers everything the
paper's case-study kernels need (it corresponds to the instruction coverage
the authors added to CacheAudit for their experiments): data movement, the
ALU operations of §5.4.1, shifts, multiplication/division for the
multi-precision arithmetic, stack operations, branches, calls and ``SETcc``
for branchless countermeasures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.registers import REGISTER_NAMES, Reg8

__all__ = [
    "Reg", "Imm", "Mem", "Label", "Instruction", "Condition", "CONDITIONS",
    "condition_holds",
]


@dataclass(frozen=True, slots=True)
class Reg:
    """A 32-bit register operand."""

    reg: int

    def __post_init__(self) -> None:
        if not 0 <= self.reg <= 7:
            raise ValueError(f"invalid register id {self.reg}")

    @property
    def name(self) -> str:
        return REGISTER_NAMES[self.reg]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand (stored as an unsigned 32-bit value)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & 0xFFFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return hex(self.value)


@dataclass(frozen=True, slots=True)
class Mem:
    """A memory operand ``size ptr [base + index*scale + disp]``.

    ``disp_label`` names a symbol whose address is added to ``disp`` at
    assembly time (e.g. ``[table + ecx*4]``); it must be resolved before
    encoding.
    """

    base: int | None = None
    index: int | None = None
    scale: int = 1
    disp: int = 0
    size: int = 4  # bytes accessed: 1 or 4
    disp_label: str | None = None

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}")
        if self.size not in (1, 4):
            raise ValueError(f"invalid access size {self.size}")
        if (self.base is None and self.index is None and self.disp == 0
                and self.disp_label is None):
            raise ValueError("memory operand needs a base, index, or displacement")

    def render(self) -> str:
        """Human-readable form, e.g. ``dword [ebp+0x8]``."""
        parts = []
        if self.base is not None:
            parts.append(REGISTER_NAMES[self.base])
        if self.index is not None:
            parts.append(f"{REGISTER_NAMES[self.index]}*{self.scale}")
        if self.disp_label is not None:
            parts.append(self.disp_label)
        if self.disp or not parts:
            parts.append(hex(self.disp))
        prefix = "byte " if self.size == 1 else ""
        return f"{prefix}[{'+'.join(parts)}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()


@dataclass(frozen=True, slots=True)
class Label:
    """A symbolic jump/call target, resolved at assembly time."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


class Condition:
    """x86 condition codes used by Jcc and SETcc."""

    E = "e"    # equal: ZF
    NE = "ne"  # not equal: !ZF
    B = "b"    # unsigned below: CF
    AE = "ae"  # unsigned at/above: !CF
    BE = "be"  # unsigned below/equal: CF | ZF
    A = "a"    # unsigned above: !CF & !ZF
    L = "l"    # signed less: SF != OF
    GE = "ge"  # signed at/above: SF == OF
    LE = "le"  # signed less/equal: ZF | (SF != OF)
    G = "g"    # signed greater: !ZF & (SF == OF)
    S = "s"    # sign set
    NS = "ns"  # sign clear


CONDITIONS = (
    Condition.E, Condition.NE, Condition.B, Condition.AE, Condition.BE,
    Condition.A, Condition.L, Condition.GE, Condition.LE, Condition.G,
    Condition.S, Condition.NS,
)


def condition_holds(condition: str, zf: int, cf: int, sf: int, of: int) -> bool:
    """Evaluate a condition code on concrete flag values."""
    if condition == Condition.E:
        return zf == 1
    if condition == Condition.NE:
        return zf == 0
    if condition == Condition.B:
        return cf == 1
    if condition == Condition.AE:
        return cf == 0
    if condition == Condition.BE:
        return cf == 1 or zf == 1
    if condition == Condition.A:
        return cf == 0 and zf == 0
    if condition == Condition.L:
        return sf != of
    if condition == Condition.GE:
        return sf == of
    if condition == Condition.LE:
        return zf == 1 or sf != of
    if condition == Condition.G:
        return zf == 0 and sf == of
    if condition == Condition.S:
        return sf == 1
    if condition == Condition.NS:
        return sf == 0
    raise ValueError(f"unknown condition {condition}")


# Operand is one of Reg, Reg8, Imm, Mem, Label, or a raw int (branch target).
Operand = object


@dataclass(frozen=True)
class Instruction:
    """One decoded/parsed instruction.

    ``mnemonic`` is lowercase ("mov", "jne", "sete", ...).  ``addr`` and
    ``encoded_size`` are filled in by the assembler/decoder and drive the
    instruction-fetch trace of both the concrete VM and the abstract
    analyzer.
    """

    mnemonic: str
    operands: tuple = ()
    addr: int | None = None
    encoded_size: int | None = None
    comment: str = field(default="", compare=False)

    def render(self) -> str:
        """Human-readable assembly text."""

        def show(op) -> str:
            if isinstance(op, (Reg, Reg8)):
                return op.name
            if isinstance(op, Imm):
                return hex(op.value)
            if isinstance(op, Mem):
                return op.render()
            if isinstance(op, Label):
                return op.name
            if isinstance(op, int):
                return hex(op)
            raise TypeError(f"unknown operand {op!r}")

        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(show(op) for op in self.operands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        location = f"{self.addr:#x}: " if self.addr is not None else ""
        return f"{location}{self.render()}"
