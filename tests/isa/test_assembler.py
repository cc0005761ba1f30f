"""Tests for the assembler, branch relaxation, and the text parser."""

import pytest

from repro.isa.asmparse import ParseError, parse_asm
from repro.isa.image import Assembler, AssemblyError
from repro.isa.instructions import Imm, Instruction, Label, Mem, Reg
from repro.isa.registers import Reg8


class TestAssembler:
    def test_label_resolution(self):
        asm = Assembler(code_base=0x1000)
        asm.label("start", function=True)
        asm.emit(Instruction("jmp", (Label("end"),)))
        asm.emit(Instruction("nop"))
        asm.label("end")
        asm.emit(Instruction("ret"))
        image = asm.assemble()
        assert image.symbol("start") == 0x1000
        jmp = image.decode_at(0x1000)
        assert jmp.mnemonic == "jmp"
        assert jmp.operands == (image.symbol("end"),)

    def test_short_branch_selected_when_close(self):
        asm = Assembler(code_base=0x1000)
        asm.emit(Instruction("jne", (Label("target"),)))
        asm.emit(Instruction("nop"))
        asm.label("target")
        asm.emit(Instruction("ret"))
        image = asm.assemble()
        assert image.decode_at(0x1000).encoded_size == 2

    def test_branch_relaxation_promotes_to_long(self):
        asm = Assembler(code_base=0x1000)
        asm.emit(Instruction("jne", (Label("target"),)))
        for _ in range(200):
            asm.emit(Instruction("nop"))
        asm.label("target")
        asm.emit(Instruction("ret"))
        image = asm.assemble()
        jne = image.decode_at(0x1000)
        assert jne.encoded_size == 5
        assert jne.operands == (image.symbol("target"),)

    def test_align_pads_with_nops(self):
        asm = Assembler(code_base=0x1000)
        asm.emit(Instruction("ret"))
        asm.align(16)
        asm.label("aligned", function=True)
        asm.emit(Instruction("ret"))
        image = asm.assemble()
        assert image.symbol("aligned") == 0x1010
        assert image.decode_at(0x1001).mnemonic == "nop"

    def test_data_section_symbols(self):
        asm = Assembler(code_base=0x1000, data_base=0x8000)
        asm.emit(Instruction("ret"))
        asm.section("data")
        asm.label("table")
        asm.data((123).to_bytes(4, "little"))
        image = asm.assemble()
        assert image.symbol("table") == 0x8000
        assert int.from_bytes(image.read(0x8000, 4), "little") == 123

    def test_symbol_as_immediate(self):
        asm = Assembler(code_base=0x1000, data_base=0x8000)
        asm.emit(Instruction("mov", (Reg(0), Label("table"))))
        asm.emit(Instruction("ret"))
        asm.section("data")
        asm.label("table")
        asm.data(b"\x00" * 4)
        image = asm.assemble()
        mov = image.decode_at(0x1000)
        assert mov.operands[1] == Imm(0x8000)

    def test_symbolic_mem_displacement(self):
        asm = Assembler(code_base=0x1000, data_base=0x8000)
        asm.emit(Instruction("mov", (Reg(0), Mem(index=1, scale=4, disp_label="table"))))
        asm.emit(Instruction("ret"))
        asm.section("data")
        asm.label("table")
        asm.data(b"\x00" * 28)
        image = asm.assemble()
        mov = image.decode_at(0x1000)
        assert mov.operands[1].disp == 0x8000
        assert mov.operands[1].index == 1

    def test_undefined_label_raises(self):
        asm = Assembler()
        asm.emit(Instruction("jmp", (Label("nowhere"),)))
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_duplicate_label_raises(self):
        asm = Assembler()
        asm.label("twice")
        asm.label("twice")
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_function_spans(self):
        asm = Assembler(code_base=0x1000)
        asm.label("first", function=True)
        asm.emit(Instruction("ret"))
        asm.label("second", function=True)
        asm.emit(Instruction("nop"))
        asm.emit(Instruction("ret"))
        image = asm.assemble()
        start, end = image.functions["first"]
        assert (start, end) == (0x1000, 0x1001)
        start, end = image.functions["second"]
        assert start == 0x1001 and end == 0x1003

    def test_disassemble_function(self):
        asm = Assembler(code_base=0x1000)
        asm.label("f", function=True)
        asm.emit(Instruction("mov", (Reg(0), Reg(1))))
        asm.emit(Instruction("ret"))
        image = asm.assemble()
        listing = image.disassemble_function("f")
        assert [i.mnemonic for i in listing] == ["mov", "ret"]

    def test_read_outside_image(self):
        image = Assembler().assemble()
        with pytest.raises(AssemblyError):
            image.read(0xDEAD0000, 4)

    def test_size_that_depends_on_a_symbol_is_rejected(self):
        # `table` sits at the data base, so the displacement folds to zero
        # and encodes four bytes shorter than the layout reserved for it.
        asm = parse_asm("""
        .text
        main:
            mov eax, [esi + table - 0x080EB000]
            ret
        .data
        table: .word 1
        """)
        with pytest.raises(AssemblyError, match="laid out as 8"):
            asm.assemble()


class TestParser:
    def test_basic_program(self):
        image = parse_asm(
            """
            .text
            main:
                mov eax, 42
                ret
            """,
            code_base=0x1000,
        ).assemble()
        mov = image.decode_at(0x1000)
        assert mov.mnemonic == "mov"
        assert mov.operands == (Reg(0), Imm(42))

    def test_memory_operands(self):
        image = parse_asm(
            """
            .text
            f:
                mov eax, [ebp+8]
                mov ebx, [esi+edi*4-0x10]
                movzx ecx, byte [esi]
                ret
            """,
            code_base=0x1000,
        ).assemble()
        listing = image.disassemble_function("f")
        assert listing[0].operands[1] == Mem(base=5, disp=8)
        assert listing[1].operands[1] == Mem(base=6, index=7, scale=4,
                                             disp=(-0x10) & 0xFFFFFFFF)
        assert listing[2].operands[1] == Mem(base=6, size=1)

    def test_local_labels_are_function_scoped(self):
        image = parse_asm(
            """
            .text
            f:
                jmp .done
            .done:
                ret
            g:
                jmp .done
            .done:
                ret
            """,
            code_base=0x1000,
        ).assemble()
        f_jmp = image.disassemble_function("f")[0]
        g_jmp = image.disassemble_function("g")[0]
        assert f_jmp.operands[0] < g_jmp.operands[0]

    def test_data_directives(self):
        image = parse_asm(
            """
            .data
            .align 64
            table: .word 1, 2, 3
            blob: .byte 0xAA, 0xBB
            buf: .space 8
            """,
        ).assemble()
        table = image.symbol("table")
        assert table % 64 == 0
        assert int.from_bytes(image.read(table + 4, 4), "little") == 2
        assert image.read(image.symbol("blob"), 2) == b"\xaa\xbb"

    def test_symbolic_displacement(self):
        image = parse_asm(
            """
            .text
            f:
                mov eax, [table+ecx*4]
                ret
            .data
            table: .word 7, 8, 9
            """,
        ).assemble()
        mov = image.disassemble_function("f")[0]
        assert mov.operands[1].disp == image.symbol("table")

    def test_byte_register_operands(self):
        image = parse_asm(
            """
            .text
            f:
                sete al
                shl eax, 4
                shr ebx, cl
                ret
            """,
            code_base=0x1000,
        ).assemble()
        listing = image.disassemble_function("f")
        assert listing[0].operands == (Reg8(0),)
        assert listing[2].operands == (Reg(3), Reg8(1))

    def test_comments_ignored(self):
        image = parse_asm(
            """
            .text
            ; full line comment
            f:
                nop  ; trailing comment
                ret  # hash comment
            """,
            code_base=0x1000,
        ).assemble()
        assert [i.mnemonic for i in image.disassemble_function("f")] == ["nop", "ret"]

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_asm(".text\nf:\n  mov eax, [esp+esp+esp]\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_asm(".bogus 12\n")
