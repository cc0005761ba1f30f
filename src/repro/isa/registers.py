"""Register file model for the 32-bit x86-subset ISA.

The ISA mirrors the registers of 32-bit x86: eight general-purpose registers
(with the conventional stack roles of ESP/EBP) and the four arithmetic flags
that the paper's analysis reasons about (§5.4.3).  The low bytes of the first
four registers are addressable (AL/CL/DL/BL) because compiled countermeasure
code uses ``SETcc`` and byte loads (``gather`` reads single bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI",
    "REGISTER_NAMES", "REGISTER_IDS", "BYTE_REGISTER_NAMES",
    "Flag", "FLAG_NAMES", "Reg8",
]

EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI = range(8)

REGISTER_NAMES = ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"]
REGISTER_IDS = {name: index for index, name in enumerate(REGISTER_NAMES)}

# Low-byte views of EAX..EBX (x86: AL, CL, DL, BL).
BYTE_REGISTER_NAMES = {"al": EAX, "cl": ECX, "dl": EDX, "bl": EBX}


@dataclass(frozen=True, slots=True)
class Reg8:
    """A byte-sized register operand (the low byte of a 32-bit register)."""

    reg: int

    def __post_init__(self) -> None:
        if not 0 <= self.reg <= 3:
            raise ValueError(f"byte registers exist only for eax..ebx, got r{self.reg}")

    @property
    def name(self) -> str:
        return [name for name, reg in BYTE_REGISTER_NAMES.items() if reg == self.reg][0]


class Flag:
    """Indices of the arithmetic flags tracked by the analysis and the VM."""

    ZF = "ZF"
    CF = "CF"
    SF = "SF"
    OF = "OF"


FLAG_NAMES = (Flag.ZF, Flag.CF, Flag.SF, Flag.OF)
