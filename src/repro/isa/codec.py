"""Binary encoder/decoder for the x86-subset ISA.

The analysis operates on *executable code*, as CacheAudit does, so programs
are stored as byte images and decoded instruction by instruction.  The
encoding is a compact variable-length scheme in the spirit of x86 (opcode
byte, ModRM-style operand bytes, optional displacement/immediate), so that
code layout — instruction sizes, cache-line straddling, short vs. near
jumps — behaves realistically.  The exact byte format is custom (no x86
decoder library is available offline); DESIGN.md documents this substitution.

Format summary::

    instruction := opcode_byte operands
    reg pair    := 1 byte (dst << 4 | src)
    mem operand := flags byte [regs byte] [disp8 | disp32]
                   flags: bit0 has_base, bit1 has_index, bits2-3 log2(scale),
                          bits4-5 disp kind (0 none, 1 disp8, 2 disp32),
                          bit6 byte-sized access
    imm8        := sign-extended at decode, like x86
    rel8/rel32  := displacement from the end of the instruction

Opcodes are assigned from a fixed table (`OPCODE_TABLE`) built at import
time; encoder and decoder share it, and a round-trip property test pins the
format.
"""

from __future__ import annotations

from repro.core.bitvec import to_signed, truncate
from repro.isa.instructions import CONDITIONS, Imm, Instruction, Mem, Reg
from repro.isa.registers import ECX, Reg8

__all__ = ["encode", "decode", "OPCODE_TABLE", "OPCODE_OF", "EncodeError", "DecodeError"]


class EncodeError(Exception):
    """Raised when an instruction cannot be encoded."""


class DecodeError(Exception):
    """Raised on malformed instruction bytes."""


def _build_opcode_table() -> list[tuple[str, str]]:
    """Fixed (mnemonic, form) list; the opcode is the index."""
    table: list[tuple[str, str]] = []
    alu = ("mov", "add", "sub", "and", "or", "xor", "cmp")
    for mnemonic in alu:
        for form in ("rr", "ri8", "ri32", "rm", "mr", "mi8", "mi32"):
            table.append((mnemonic, form))
    table.append(("test", "rr"))
    table.append(("test", "ri32"))
    table.append(("lea", "rm"))
    table.append(("movzx", "rm"))     # r32 <- byte [mem]
    table.append(("movzx", "rb"))     # r32 <- r8
    table.append(("movb", "mr8"))     # byte [mem] <- r8
    for mnemonic in ("inc", "dec", "neg", "not"):
        table.append((mnemonic, "r"))
        table.append((mnemonic, "m"))
    for mnemonic in ("shl", "shr", "sar"):
        table.append((mnemonic, "ri8"))
        table.append((mnemonic, "rc"))  # shift by CL
    table.append(("imul", "rr"))
    table.append(("imul", "rri32"))
    table.append(("mul", "r"))         # EDX:EAX = EAX * reg
    table.append(("div", "r"))         # EAX, EDX = divmod(EDX:EAX, reg)
    table.append(("push", "r"))
    table.append(("push", "i32"))
    table.append(("push", "m"))
    table.append(("pop", "r"))
    table.append(("jmp", "rel8"))
    table.append(("jmp", "rel32"))
    for condition in CONDITIONS:
        table.append((f"j{condition}", "rel8"))
        table.append((f"j{condition}", "rel32"))
    table.append(("call", "rel32"))
    table.append(("ret", "none"))
    table.append(("nop", "none"))
    table.append(("hlt", "none"))
    for condition in CONDITIONS:
        table.append((f"set{condition}", "r8"))
    return table


OPCODE_TABLE = _build_opcode_table()
OPCODE_OF = {pair: opcode for opcode, pair in enumerate(OPCODE_TABLE)}

assert len(OPCODE_TABLE) <= 256, "opcode space exhausted"


# ----------------------------------------------------------------------
# Operand encoding helpers
# ----------------------------------------------------------------------

def _encode_mem(mem: Mem) -> bytes:
    if mem.disp_label is not None:
        raise EncodeError(f"unresolved symbol {mem.disp_label!r} in {mem.render()}")
    flags = 0
    body = bytearray()
    if mem.base is not None:
        flags |= 0x01
    if mem.index is not None:
        flags |= 0x02
    flags |= (mem.scale.bit_length() - 1) << 2
    signed_disp = to_signed(mem.disp, 32)
    if signed_disp == 0:
        disp_kind = 0
    elif -128 <= signed_disp <= 127:
        disp_kind = 1
    else:
        disp_kind = 2
    flags |= disp_kind << 4
    if mem.size == 1:
        flags |= 0x40
    body.append(flags)
    if mem.base is not None or mem.index is not None:
        base = mem.base if mem.base is not None else 0
        index = mem.index if mem.index is not None else 0
        body.append((base << 4) | index)
    if disp_kind == 1:
        body.append(signed_disp & 0xFF)
    elif disp_kind == 2:
        body.extend(truncate(mem.disp, 32).to_bytes(4, "little"))
    return bytes(body)


def _decode_mem(data: bytes, pos: int) -> tuple[Mem, int]:
    flags = data[pos]
    pos += 1
    has_base = bool(flags & 0x01)
    has_index = bool(flags & 0x02)
    scale = 1 << ((flags >> 2) & 0x3)
    disp_kind = (flags >> 4) & 0x3
    size = 1 if flags & 0x40 else 4
    base = index = None
    if has_base or has_index:
        regs = data[pos]
        pos += 1
        if has_base:
            base = (regs >> 4) & 0x7
        if has_index:
            index = regs & 0x7
    disp = 0
    if disp_kind == 1:
        disp = to_signed(data[pos], 8) & 0xFFFFFFFF
        pos += 1
    elif disp_kind == 2:
        disp = int.from_bytes(data[pos:pos + 4], "little")
        pos += 4
    return Mem(base=base, index=index, scale=scale, disp=disp, size=size), pos


def _imm_fits_8(value: int) -> bool:
    return -128 <= to_signed(value, 32) <= 127


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

_ALU = frozenset(("mov", "add", "sub", "and", "or", "xor", "cmp"))
_BRANCHES = frozenset(("jmp", *(f"j{condition}" for condition in CONDITIONS)))

# The operand shapes (operand type names) every other mnemonic accepts, and
# the form each shape encodes as; any other shape has no encoding.
_UNARY = {("Reg",): "r", ("Mem",): "m"}
_SHIFT = {("Reg", "Imm"): "ri8", ("Reg", "Reg8"): "rc"}  # count: imm8 or CL
_FORMS = {
    "call": {("int",): "rel32"},
    "movzx": {("Reg", "Mem"): "rm", ("Reg", "Reg8"): "rb"},
    "movb": {("Mem", "Reg8"): "mr8"},
    "lea": {("Reg", "Mem"): "rm"},
    **dict.fromkeys(("inc", "dec", "neg", "not"), _UNARY),
    **dict.fromkeys(("shl", "shr", "sar"), _SHIFT),
    "imul": {("Reg", "Reg"): "rr", ("Reg", "Reg", "Imm"): "rri32"},
    "mul": {("Reg",): "r"},
    "div": {("Reg",): "r"},
    "push": {("Reg",): "r", ("Imm",): "i32", ("Mem",): "m"},
    "pop": {("Reg",): "r"},
    "test": {("Reg", "Reg"): "rr", ("Reg", "Imm"): "ri32"},
    **dict.fromkeys(("ret", "nop", "hlt"), {(): "none"}),
    **{f"set{condition}": {("Reg8",): "r8"} for condition in CONDITIONS},
}


def _select_form(instr: Instruction, force_long: bool) -> str:
    """Pick the encoding form from the operand shapes."""
    mnemonic = instr.mnemonic
    ops = instr.operands
    shapes = tuple(type(op).__name__ for op in ops)

    if mnemonic in _BRANCHES:
        if shapes == ("int",):
            return "rel32" if force_long else "rel8"
    elif mnemonic in _ALU:
        if shapes == ("Reg", "Reg"):
            return "rr"
        if shapes == ("Reg", "Imm"):
            return "ri8" if _imm_fits_8(ops[1].value) else "ri32"
        if shapes == ("Reg", "Mem"):
            return "rm"
        if shapes == ("Mem", "Reg"):
            return "mr"
        if shapes == ("Mem", "Imm"):
            return "mi8" if _imm_fits_8(ops[1].value) else "mi32"
    else:
        form = _FORMS.get(mnemonic, {}).get(shapes)
        if form == "rc" and ops[1].reg != ECX:
            form = None  # the only register shift count is CL
        if form is not None:
            return form
    raise EncodeError(f"no encoding for {instr.render()}")


def encode(instr: Instruction, addr: int = 0, force_long: bool = False) -> bytes:
    """Encode one instruction at address ``addr``.

    Branch operands must already be absolute integer targets (the assembler
    resolves labels before encoding).  ``force_long`` selects the rel32 form
    of a branch regardless of displacement (used by branch relaxation).
    """
    form = _select_form(instr, force_long)
    ops = instr.operands
    if form.startswith("rel") and not force_long:
        # Verify the short displacement actually fits; fall back to rel32.
        target = ops[0]
        short_len = 2
        disp = target - (addr + short_len)
        if not -128 <= disp <= 127:
            form = "rel32"
    opcode = OPCODE_OF.get((instr.mnemonic, form))
    if opcode is None:
        raise EncodeError(f"no opcode for {instr.mnemonic}/{form}")

    body = bytearray([opcode])
    if form == "none":
        pass
    elif form == "r":
        body.append(ops[0].reg << 4)
    elif form == "r8":
        body.append(ops[0].reg << 4)
    elif form == "rr":
        body.append((ops[0].reg << 4) | ops[1].reg)
    elif form == "rb":
        body.append((ops[0].reg << 4) | ops[1].reg)
    elif form == "rc":
        body.append(ops[0].reg << 4)
    elif form == "ri8":
        if instr.mnemonic in ("shl", "shr", "sar") and ops[1].value > 31:
            raise EncodeError(f"shift count {ops[1].value} out of range")
        body.append(ops[0].reg << 4)
        body.append(ops[1].value & 0xFF)
    elif form == "ri32":
        body.append(ops[0].reg << 4)
        body.extend(ops[1].value.to_bytes(4, "little"))
    elif form == "rri32":
        body.append((ops[0].reg << 4) | ops[1].reg)
        body.extend(ops[2].value.to_bytes(4, "little"))
    elif form == "rm":
        body.append(ops[0].reg << 4)
        body.extend(_encode_mem(ops[1]))
    elif form == "mr":
        body.append(ops[1].reg << 4)
        body.extend(_encode_mem(ops[0]))
    elif form == "mr8":
        body.append(ops[1].reg << 4)
        body.extend(_encode_mem(ops[0]))
    elif form == "mi8":
        body.extend(_encode_mem(ops[0]))
        body.append(ops[1].value & 0xFF)
    elif form == "mi32":
        body.extend(_encode_mem(ops[0]))
        body.extend(ops[1].value.to_bytes(4, "little"))
    elif form == "m":
        body.extend(_encode_mem(ops[0]))
    elif form == "i32":
        body.extend(ops[0].value.to_bytes(4, "little"))
    elif form == "rel8":
        disp = ops[0] - (addr + 2)
        body.append(disp & 0xFF)
    elif form == "rel32":
        disp = ops[0] - (addr + 5)
        body.extend(truncate(disp, 32).to_bytes(4, "little"))
    else:  # pragma: no cover - table and forms are kept in sync
        raise EncodeError(f"unhandled form {form}")
    return bytes(body)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def decode(data: bytes, offset: int, addr: int) -> Instruction:
    """Decode the instruction at ``data[offset:]`` located at address ``addr``."""
    if offset >= len(data):
        raise DecodeError(f"decode past end of image at {addr:#x}")
    opcode = data[offset]
    if opcode >= len(OPCODE_TABLE):
        raise DecodeError(f"invalid opcode {opcode:#x} at {addr:#x}")
    mnemonic, form = OPCODE_TABLE[opcode]
    pos = offset + 1

    def reg_hi(byte: int) -> Reg:
        return Reg((byte >> 4) & 0x7)

    def reg_lo(byte: int) -> Reg:
        return Reg(byte & 0x7)

    operands: tuple
    if form == "none":
        operands = ()
    elif form == "r":
        operands = (reg_hi(data[pos]),)
        pos += 1
    elif form == "r8":
        operands = (Reg8((data[pos] >> 4) & 0x3),)
        pos += 1
    elif form == "rr":
        operands = (reg_hi(data[pos]), reg_lo(data[pos]))
        pos += 1
    elif form == "rb":
        operands = (reg_hi(data[pos]), Reg8(data[pos] & 0x3))
        pos += 1
    elif form == "rc":
        operands = (reg_hi(data[pos]), Reg8(1))  # shift count in CL
        pos += 1
    elif form == "ri8":
        register = reg_hi(data[pos])
        pos += 1
        if mnemonic in ("shl", "shr", "sar"):
            operands = (register, Imm(data[pos]))  # shift counts are unsigned
        else:
            operands = (register, Imm(to_signed(data[pos], 8) & 0xFFFFFFFF))
        pos += 1
    elif form == "ri32":
        register = reg_hi(data[pos])
        pos += 1
        operands = (register, Imm(int.from_bytes(data[pos:pos + 4], "little")))
        pos += 4
    elif form == "rri32":
        dst, src = reg_hi(data[pos]), reg_lo(data[pos])
        pos += 1
        operands = (dst, src, Imm(int.from_bytes(data[pos:pos + 4], "little")))
        pos += 4
    elif form in ("rm",):
        register = reg_hi(data[pos])
        pos += 1
        mem, pos = _decode_mem(data, pos)
        operands = (register, mem)
    elif form == "mr":
        register = reg_hi(data[pos])
        pos += 1
        mem, pos = _decode_mem(data, pos)
        operands = (mem, register)
    elif form == "mr8":
        register = Reg8((data[pos] >> 4) & 0x3)
        pos += 1
        mem, pos = _decode_mem(data, pos)
        operands = (mem, register)
    elif form == "mi8":
        mem, pos = _decode_mem(data, pos)
        operands = (mem, Imm(to_signed(data[pos], 8) & 0xFFFFFFFF))
        pos += 1
    elif form == "mi32":
        mem, pos = _decode_mem(data, pos)
        operands = (mem, Imm(int.from_bytes(data[pos:pos + 4], "little")))
        pos += 4
    elif form == "m":
        mem, pos = _decode_mem(data, pos)
        operands = (mem,)
    elif form == "i32":
        operands = (Imm(int.from_bytes(data[pos:pos + 4], "little")),)
        pos += 4
    elif form == "rel8":
        size = (pos - offset) + 1
        disp = to_signed(data[pos], 8)
        pos += 1
        operands = (addr + size + disp,)
    elif form == "rel32":
        size = (pos - offset) + 4
        disp = to_signed(int.from_bytes(data[pos:pos + 4], "little"), 32)
        pos += 4
        operands = ((addr + size + disp) & 0xFFFFFFFF,)
    else:  # pragma: no cover
        raise DecodeError(f"unhandled form {form}")

    return Instruction(
        mnemonic=mnemonic,
        operands=operands,
        addr=addr,
        encoded_size=pos - offset,
    )
