"""Codec tests: encode/decode round-trips, including a property test that
pins the binary format for every instruction form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.asmparse import ParseError, parse_asm
from repro.isa.codec import DecodeError, EncodeError, OPCODE_TABLE, decode, encode
from repro.isa.instructions import Imm, Instruction, Mem, Reg
from repro.isa.registers import Reg8


def roundtrip(instr: Instruction, addr: int = 0x1000) -> Instruction:
    encoded = encode(instr, addr)
    decoded = decode(encoded, 0, addr)
    assert decoded.encoded_size == len(encoded)
    return decoded


class TestBasicEncodings:
    def test_mov_reg_reg(self):
        instr = Instruction("mov", (Reg(0), Reg(3)))
        decoded = roundtrip(instr)
        assert decoded.mnemonic == "mov"
        assert decoded.operands == (Reg(0), Reg(3))
        assert decoded.encoded_size == 2

    def test_mov_reg_imm8_is_compact(self):
        instr = Instruction("mov", (Reg(1), Imm(5)))
        assert len(encode(instr)) == 3

    def test_mov_reg_imm32(self):
        instr = Instruction("mov", (Reg(1), Imm(0x08048000)))
        decoded = roundtrip(instr)
        assert decoded.operands[1] == Imm(0x08048000)
        assert decoded.encoded_size == 6

    def test_imm8_sign_extension(self):
        instr = Instruction("add", (Reg(2), Imm(0xFFFFFFFF)))  # -1
        decoded = roundtrip(instr)
        assert decoded.operands[1] == Imm(0xFFFFFFFF)
        assert decoded.encoded_size == 3  # used the short form

    def test_mem_operand_full(self):
        mem = Mem(base=5, index=6, scale=8, disp=0x1234, size=4)
        decoded = roundtrip(Instruction("mov", (Reg(0), mem)))
        assert decoded.operands[1] == mem

    def test_mem_disp8(self):
        mem = Mem(base=5, disp=(-8) & 0xFFFFFFFF)
        decoded = roundtrip(Instruction("mov", (Reg(0), mem)))
        assert decoded.operands[1] == mem

    def test_byte_mem(self):
        mem = Mem(base=6, index=7, scale=1, disp=0, size=1)
        decoded = roundtrip(Instruction("movzx", (Reg(0), mem)))
        assert decoded.operands[1].size == 1

    def test_store_forms(self):
        mem = Mem(base=5, disp=8)
        decoded = roundtrip(Instruction("mov", (mem, Reg(2))))
        assert decoded.operands == (mem, Reg(2))
        decoded = roundtrip(Instruction("mov", (mem, Imm(7))))
        assert decoded.operands == (mem, Imm(7))

    def test_movb_store(self):
        mem = Mem(base=6, disp=3, size=1)
        decoded = roundtrip(Instruction("movb", (mem, Reg8(0))))
        assert decoded.operands == (mem, Reg8(0))

    def test_setcc(self):
        decoded = roundtrip(Instruction("sete", (Reg8(0),)))
        assert decoded.mnemonic == "sete"
        assert decoded.operands == (Reg8(0),)

    def test_shifts(self):
        decoded = roundtrip(Instruction("shl", (Reg(0), Imm(3))))
        assert decoded.operands == (Reg(0), Imm(3))
        decoded = roundtrip(Instruction("shr", (Reg(0), Reg8(1))))
        assert decoded.operands == (Reg(0), Reg8(1))

    def test_unary_forms(self):
        for mnemonic in ("inc", "dec", "neg", "not", "mul", "div"):
            decoded = roundtrip(Instruction(mnemonic, (Reg(3),)))
            assert decoded.mnemonic == mnemonic

    def test_push_pop(self):
        assert roundtrip(Instruction("push", (Reg(5),))).operands == (Reg(5),)
        assert roundtrip(Instruction("push", (Imm(0xDEAD),))).operands == (Imm(0xDEAD),)
        assert roundtrip(Instruction("pop", (Reg(5),))).operands == (Reg(5),)

    def test_no_operand_instructions(self):
        for mnemonic in ("ret", "nop", "hlt"):
            assert roundtrip(Instruction(mnemonic)).mnemonic == mnemonic
            assert len(encode(Instruction(mnemonic))) == 1

    def test_imul_forms(self):
        decoded = roundtrip(Instruction("imul", (Reg(0), Reg(1))))
        assert decoded.operands == (Reg(0), Reg(1))
        decoded = roundtrip(Instruction("imul", (Reg(0), Reg(1), Imm(384))))
        assert decoded.operands == (Reg(0), Reg(1), Imm(384))


class TestBranches:
    def test_short_forward_jump(self):
        instr = Instruction("jmp", (0x1010,))
        encoded = encode(instr, 0x1000)
        assert len(encoded) == 2
        assert decode(encoded, 0, 0x1000).operands == (0x1010,)

    def test_short_backward_jump(self):
        instr = Instruction("jne", (0x0FF0,))
        encoded = encode(instr, 0x1000)
        assert len(encoded) == 2
        assert decode(encoded, 0, 0x1000).operands == (0x0FF0,)

    def test_long_jump_auto_selected(self):
        instr = Instruction("jmp", (0x2000,))
        encoded = encode(instr, 0x1000)
        assert len(encoded) == 5
        assert decode(encoded, 0, 0x1000).operands == (0x2000,)

    def test_force_long(self):
        instr = Instruction("je", (0x1004,))
        encoded = encode(instr, 0x1000, force_long=True)
        assert len(encoded) == 5
        assert decode(encoded, 0, 0x1000).operands == (0x1004,)

    def test_call_is_always_rel32(self):
        instr = Instruction("call", (0x1100,))
        encoded = encode(instr, 0x1000)
        assert len(encoded) == 5
        assert decode(encoded, 0, 0x1000).operands == (0x1100,)

    def test_all_condition_codes_roundtrip(self):
        for mnemonic in [m for m, form in OPCODE_TABLE if m.startswith("j") and form == "rel32"]:
            instr = Instruction(mnemonic, (0x9000,))
            decoded = decode(encode(instr, 0x1000), 0, 0x1000)
            assert decoded.mnemonic == mnemonic
            assert decoded.operands == (0x9000,)


class TestErrors:
    def test_decode_invalid_opcode(self):
        with pytest.raises(DecodeError):
            decode(bytes([0xFF]), 0, 0)

    def test_decode_past_end(self):
        with pytest.raises(DecodeError):
            decode(b"", 0, 0)

    def test_unresolved_symbol_rejected(self):
        mem = Mem(base=0, disp_label="table")
        with pytest.raises(EncodeError):
            encode(Instruction("mov", (Reg(0), mem)))

    @pytest.mark.parametrize(("line", "error"), [
        ("shl eax, ebx", EncodeError),  # was encoded as shl eax, cl
        ("shl eax, bl", EncodeError),
        ("movzx eax, ebx", EncodeError),  # was encoded as movzx eax, bl
        ("sete eax", EncodeError),  # was encoded as sete al
        ("imul eax, [esi + 4]", EncodeError),
        ("imul eax, 5", EncodeError),
        ("test [esi + 4], eax", EncodeError),
        ("pop [esi + 4]", EncodeError),
        ("lea eax, ebx", EncodeError),
        ("push al", EncodeError),
        ("jmp eax", EncodeError),
        ("inc dword [esi + 4]", ParseError),  # not a label named "dword [..."
        ("mov eax, [esi + two words]", ParseError),
    ])
    def test_unencodable_forms_raise_typed_errors(self, line, error):
        with pytest.raises(error):
            parse_asm(f".text\nmain:\n    {line}\n    ret\n").assemble()


# ----------------------------------------------------------------------
# Property: every encodable instruction round-trips
# ----------------------------------------------------------------------

regs = st.builds(Reg, st.integers(min_value=0, max_value=7))
regs8 = st.builds(Reg8, st.integers(min_value=0, max_value=3))
imms = st.builds(Imm, st.integers(min_value=0, max_value=0xFFFFFFFF))
@st.composite
def mems_strategy(draw):
    base = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=7)))
    index = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=7)))
    disp = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    if base is None and index is None and disp == 0:
        disp = 4
    return Mem(
        base=base, index=index,
        scale=draw(st.sampled_from([1, 2, 4, 8])),
        disp=disp,
        size=draw(st.sampled_from([1, 4])),
    )


mems = mems_strategy()


@st.composite
def encodable_instructions(draw):
    mnemonic, form = draw(st.sampled_from(OPCODE_TABLE))
    if form == "none":
        operands = ()
    elif form == "r":
        operands = (draw(regs),)
    elif form == "r8":
        operands = (draw(regs8),)
    elif form == "rr":
        operands = (draw(regs), draw(regs))
    elif form == "rb":
        operands = (draw(regs), draw(regs8))
    elif form == "rc":
        operands = (draw(regs), Reg8(1))
    elif form in ("ri8", "ri32"):
        if mnemonic in ("shl", "shr", "sar"):
            operands = (draw(regs), Imm(draw(st.integers(min_value=0, max_value=31))))
        else:
            operands = (draw(regs), draw(imms))
    elif form == "rri32":
        operands = (draw(regs), draw(regs), draw(imms))
    elif form in ("rm",):
        mem = draw(mems)
        if mnemonic == "movzx":
            mem = Mem(mem.base, mem.index, mem.scale, mem.disp, 1)
        operands = (draw(regs), mem)
    elif form == "mr":
        operands = (draw(mems), draw(regs))
    elif form == "mr8":
        operands = (draw(mems), draw(regs8))
    elif form in ("mi8", "mi32"):
        operands = (draw(mems), draw(imms))
    elif form == "m":
        operands = (draw(mems),)
    elif form == "i32":
        operands = (draw(imms),)
    elif form in ("rel8", "rel32"):
        operands = (draw(st.integers(min_value=0, max_value=0xFFFF)),)
    else:
        raise AssertionError(form)
    return Instruction(mnemonic, operands)


@settings(max_examples=500, deadline=None)
@given(instr=encodable_instructions(), addr=st.integers(min_value=0, max_value=0xFFFF))
def test_roundtrip_property(instr, addr):
    encoded = encode(instr, addr)
    decoded = decode(encoded, 0, addr)
    assert decoded.mnemonic == instr.mnemonic
    assert decoded.encoded_size == len(encoded)
    if not instr.mnemonic.startswith(("j", "call")):
        # Immediates may legally re-encode via the short form; compare values.
        assert decoded.operands == instr.operands
    else:
        assert decoded.operands == instr.operands
