"""Binary images, sections, symbols, and the assembler/linker.

An :class:`Image` is the unit both execution substrates consume: the concrete
VM loads its sections into memory and the static analyzer decodes
instructions straight from its bytes (the paper analyzes x86 executables; we
analyze these images).

The :class:`Assembler` turns a list of items (labels, instructions,
alignment directives, data blobs) into an image.  Branch targets are symbolic
labels resolved with iterative *branch relaxation*: every branch starts in
its short (rel8) form and is promoted to rel32 when its displacement does not
fit, until the layout stabilizes — exactly the mechanism that makes code
size, and therefore cache-line placement, depend on optimization choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import codec
from repro.isa.instructions import Instruction, Label

__all__ = ["Image", "Section", "Assembler", "AssemblyError", "DEFAULT_CODE_BASE", "DEFAULT_DATA_BASE"]

DEFAULT_CODE_BASE = 0x0804_8000
DEFAULT_DATA_BASE = 0x080E_B000


class AssemblyError(Exception):
    """Raised for unresolved labels or malformed assembly input."""


@dataclass(slots=True)
class Section:
    """A contiguous, named region of the image."""

    name: str
    base: int
    data: bytearray = field(default_factory=bytearray)

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class Image:
    """An assembled binary: sections, symbols, and decoded-instruction access."""

    def __init__(self, sections: list[Section], symbols: dict[str, int],
                 functions: dict[str, tuple[int, int]] | None = None):
        self.sections = sections
        self.symbols = dict(symbols)
        self.functions = dict(functions or {})
        self._decode_cache: dict[int, Instruction] = {}
        # The concrete VM's predecoded handlers, {addr: (handler, size,
        # instruction)}, filled by repro.vm.cpu as execution reaches them.
        self.handlers: dict[int, tuple] = {}
        self._snapshot: dict[int, int] | None = None
        self._fingerprint: str | None = None

    @property
    def fingerprint(self) -> str:
        """Content hash of the image (sections and symbols).

        Two images assembled from the same program have the same fingerprint
        in every process, so cross-process caches (the specialized-block
        cache of :mod:`repro.analysis.specialize`) can key on it instead of
        on object identity.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            for section in self.sections:
                digest.update(section.name.encode())
                digest.update(section.base.to_bytes(8, "little"))
                digest.update(bytes(section.data))
            for name in sorted(self.symbols):
                digest.update(name.encode())
                digest.update(self.symbols[name].to_bytes(8, "little"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Byte access
    # ------------------------------------------------------------------
    def section_of(self, addr: int) -> Section | None:
        """The section containing ``addr``, if any."""
        for section in self.sections:
            if section.contains(addr):
                return section
        return None

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr`` (must lie within one section)."""
        section = self.section_of(addr)
        if section is None or addr + size > section.end:
            raise AssemblyError(f"read outside image: {addr:#x}+{size}")
        offset = addr - section.base
        return bytes(section.data[offset:offset + size])

    def snapshot(self) -> dict[int, int]:
        """Every section byte by address, built once (callers copy it).

        The concrete VM loads an image by copying this into its memory.
        """
        if self._snapshot is None:
            self._snapshot = {
                section.base + offset: value
                for section in self.sections
                for offset, value in enumerate(section.data)
            }
        return self._snapshot

    def symbol(self, name: str) -> int:
        """Address of a symbol."""
        if name not in self.symbols:
            raise AssemblyError(f"unknown symbol {name!r}")
        return self.symbols[name]

    # ------------------------------------------------------------------
    # Instruction access
    # ------------------------------------------------------------------
    def decode_at(self, addr: int) -> Instruction:
        """Decode (and cache) the instruction at ``addr``."""
        cached = self._decode_cache.get(addr)
        if cached is not None:
            return cached
        section = self.section_of(addr)
        if section is None:
            raise AssemblyError(f"no code at {addr:#x}")
        instruction = codec.decode(bytes(section.data), addr - section.base, addr)
        self._decode_cache[addr] = instruction
        return instruction

    def disassemble(self, start: int, end: int) -> list[Instruction]:
        """Linear-sweep disassembly of ``[start, end)``."""
        instructions = []
        addr = start
        while addr < end:
            instruction = self.decode_at(addr)
            instructions.append(instruction)
            addr += instruction.encoded_size
        return instructions

    def disassemble_function(self, name: str) -> list[Instruction]:
        """Disassemble a named function (requires function span metadata)."""
        if name not in self.functions:
            raise AssemblyError(f"unknown function {name!r}")
        start, end = self.functions[name]
        return self.disassemble(start, end)


# ----------------------------------------------------------------------
# Assembler items
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _LabelDef:
    name: str


@dataclass(frozen=True, slots=True)
class _Align:
    boundary: int
    fill: int


@dataclass(frozen=True, slots=True)
class _Data:
    payload: bytes


class Assembler:
    """Two-section (text/data) assembler with branch relaxation."""

    def __init__(self, code_base: int = DEFAULT_CODE_BASE,
                 data_base: int = DEFAULT_DATA_BASE):
        self._items: dict[str, list] = {"text": [], "data": []}
        self._bases = {"text": code_base, "data": data_base}
        self._current = "text"
        self._function_starts: list[tuple[str, str]] = []  # (label, section)

    # ------------------------------------------------------------------
    # Input construction
    # ------------------------------------------------------------------
    def section(self, name: str) -> None:
        """Switch the current section ("text" or "data")."""
        if name not in self._items:
            raise AssemblyError(f"unknown section {name!r}")
        self._current = name

    def label(self, name: str, function: bool = False) -> None:
        """Define a label at the current position."""
        self._items[self._current].append(_LabelDef(name))
        if function:
            self._function_starts.append((name, self._current))

    def emit(self, instruction: Instruction) -> None:
        """Append an instruction to the current section."""
        if self._current != "text":
            raise AssemblyError("instructions belong in the text section")
        self._items[self._current].append(instruction)

    def align(self, boundary: int, fill: int | None = None) -> None:
        """Pad the current section to a multiple of ``boundary`` bytes.

        Text-section padding defaults to encoded ``nop`` bytes so that the
        padding disassembles cleanly; data padding defaults to zero bytes.
        """
        if fill is None:
            fill = codec.OPCODE_OF[("nop", "none")] if self._current == "text" else 0
        self._items[self._current].append(_Align(boundary, fill))

    def data(self, payload: bytes) -> None:
        """Append raw bytes to the current section."""
        self._items[self._current].append(_Data(bytes(payload)))

    def reserve(self, size: int, fill: int = 0) -> None:
        """Reserve ``size`` bytes (zero-filled by default)."""
        self._items[self._current].append(_Data(bytes([fill]) * size))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assemble(self) -> Image:
        """Resolve labels, relax branches, and produce the final image."""
        sizes: dict[int, int] = {}  # id(instruction) -> size, non-branches
        long_branches: set[int] = set()  # ids of items forced to rel32
        for _round in range(64):
            symbols, short_branches = self._layout(sizes, long_branches)
            grown = set()
            for item, addr in short_branches:
                operands = self._resolve(item, symbols, addr).operands
                target = operands[0] if len(operands) == 1 else None
                # A target that is not an address is the encoder's to reject.
                if isinstance(target, int) and not -128 <= target - (addr + 2) <= 127:
                    grown.add(id(item))
            if not grown:
                return self._emit_image(symbols, sizes, long_branches)
            long_branches |= grown
        raise AssemblyError("branch relaxation did not converge")

    @staticmethod
    def _is_branch(item) -> bool:
        return isinstance(item, Instruction) and item.mnemonic.startswith("j")

    def _item_size(self, item, addr: int, sizes: dict[int, int],
                   long_branches: set[int]) -> int:
        if isinstance(item, _LabelDef):
            return 0
        if isinstance(item, _Align):
            remainder = addr % item.boundary
            return 0 if remainder == 0 else item.boundary - remainder
        if isinstance(item, _Data):
            return len(item.payload)
        if self._is_branch(item):
            return 5 if id(item) in long_branches else 2
        if item.mnemonic == "call":
            return 5
        size = sizes.get(id(item))
        if size is None:
            # Encoded once per assembly.  Labels stand in as this address,
            # which like every symbol lies far outside the 8-bit immediate
            # and displacement range, so the size does not depend on symbol
            # values; _emit_image checks it against the final encoding.
            resolved = self._resolve(item, {}, addr, permissive=True)
            size = sizes[id(item)] = len(codec.encode(resolved, addr))
        return size

    def _layout(self, sizes: dict[int, int], long_branches: set[int]
                ) -> tuple[dict[str, int], list[tuple[Instruction, int]]]:
        """Symbol addresses, and each branch still in rel8 form with its address."""
        symbols: dict[str, int] = {}
        short_branches = []
        for section_name in ("text", "data"):
            addr = self._bases[section_name]
            for item in self._items[section_name]:
                if isinstance(item, _LabelDef):
                    if item.name in symbols:
                        raise AssemblyError(f"duplicate label {item.name!r}")
                    symbols[item.name] = addr
                    continue
                if self._is_branch(item) and id(item) not in long_branches:
                    short_branches.append((item, addr))
                addr += self._item_size(item, addr, sizes, long_branches)
        return symbols, short_branches

    def _resolve(self, instruction: Instruction, symbols: dict[str, int],
                 addr: int, permissive: bool = False) -> Instruction:
        """Replace symbolic operands with absolute addresses.

        Labels in branch/call position become raw int targets; anywhere else
        they become address immediates.  Memory operands with a symbolic
        displacement get the symbol's address folded into ``disp``.
        """
        from repro.isa.instructions import Imm, Mem

        is_control = instruction.mnemonic == "call" or self._is_branch(instruction)

        def lookup(name: str) -> int:
            if name in symbols:
                return symbols[name]
            if permissive:
                return addr  # size estimation only; bases keep this large
            raise AssemblyError(f"undefined label {name!r}")

        operands = []
        for op in instruction.operands:
            if isinstance(op, Label):
                target = lookup(op.name)
                operands.append(target if is_control else Imm(target))
            elif isinstance(op, Mem) and op.disp_label is not None:
                operands.append(Mem(
                    base=op.base, index=op.index, scale=op.scale,
                    disp=(op.disp + lookup(op.disp_label)) & 0xFFFFFFFF,
                    size=op.size,
                ))
            else:
                operands.append(op)
        return Instruction(
            mnemonic=instruction.mnemonic,
            operands=tuple(operands),
            comment=instruction.comment,
        )

    def _emit_image(self, symbols: dict[str, int], sizes: dict[int, int],
                    long_branches: set[int]) -> Image:
        sections = []
        for section_name in ("text", "data"):
            base = self._bases[section_name]
            data = bytearray()
            addr = base
            for item in self._items[section_name]:
                if isinstance(item, _LabelDef):
                    continue
                if isinstance(item, _Align):
                    remainder = addr % item.boundary
                    if remainder:
                        padding = item.boundary - remainder
                        data.extend(bytes([item.fill]) * padding)
                        addr += padding
                    continue
                if isinstance(item, _Data):
                    data.extend(item.payload)
                    addr += len(item.payload)
                    continue
                resolved = self._resolve(item, symbols, addr)
                encoded = codec.encode(resolved, addr,
                                       force_long=id(item) in long_branches)
                size = self._item_size(item, addr, sizes, long_branches)
                if len(encoded) != size:
                    raise AssemblyError(
                        f"{resolved.render()} at {addr:#x} encodes to "
                        f"{len(encoded)} bytes but was laid out as {size}")
                data.extend(encoded)
                addr += len(encoded)
            sections.append(Section(name=section_name, base=base, data=data))

        functions = self._function_spans(symbols, sections)
        return Image(sections=sections, symbols=symbols, functions=functions)

    def _function_spans(self, symbols: dict[str, int],
                        sections: list[Section]) -> dict[str, tuple[int, int]]:
        text = next(s for s in sections if s.name == "text")
        starts = sorted(
            (symbols[name], name)
            for name, section in self._function_starts
            if section == "text"
        )
        spans: dict[str, tuple[int, int]] = {}
        for position, (start, name) in enumerate(starts):
            end = starts[position + 1][0] if position + 1 < len(starts) else text.end
            spans[name] = (start, end)
        return spans
