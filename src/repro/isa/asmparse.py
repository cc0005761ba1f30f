"""Textual assembly parser for the x86-subset ISA.

The syntax follows Intel-operand-order GNU-as conventions::

    .text
    .align 64
    gather:                     ; labels without a leading dot are functions
        mov   eax, [ebp+8]
        movzx ecx, byte [buf+esi*8+4]
        cmp   ecx, 7
        jne   .skip             ; dot-labels are function-local
    .skip:
        ret

    .data
    .align 64
    buf:   .space 384
    table: .word 1, 2, 0x10

Supported directives: ``.text``, ``.data``, ``.align N``, ``.space N``,
``.word v, ...`` (32-bit little endian), ``.byte v, ...``.  Comments start
with ``;`` or ``#``.  Function-local labels (leading dot) are namespaced by
the enclosing function so that separate functions can reuse ``.loop`` etc.
"""

from __future__ import annotations

import re

from repro.isa.image import Assembler, DEFAULT_CODE_BASE, DEFAULT_DATA_BASE
from repro.isa.instructions import Imm, Instruction, Label, Mem, Reg
from repro.isa.registers import BYTE_REGISTER_NAMES, REGISTER_IDS, Reg8

__all__ = ["parse_asm", "ParseError"]


class ParseError(Exception):
    """Raised on malformed assembly text (with a line number)."""


_LABEL_RE = re.compile(r"^([.\w$]+):\s*(.*)$")
_SYMBOL_RE = re.compile(r"^[.\w$]+$")
_MEM_TERM_RE = re.compile(r"^(\w+)\*(\d+)$")


def parse_asm(
    text: str,
    code_base: int = DEFAULT_CODE_BASE,
    data_base: int = DEFAULT_DATA_BASE,
) -> Assembler:
    """Parse assembly text into a ready-to-assemble :class:`Assembler`."""
    assembler = Assembler(code_base=code_base, data_base=data_base)
    current_function = ""

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        try:
            current_function = _parse_line(assembler, line, current_function)
        except (ParseError, ValueError, KeyError) as error:
            raise ParseError(f"line {line_number}: {error} in {line!r}") from error
    return assembler


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        position = line.find(marker)
        if position >= 0:
            line = line[:position]
    return line


def _parse_line(assembler: Assembler, line: str, current_function: str) -> str:
    """Dispatch one non-empty line; returns the (possibly new) function name."""
    label_match = _LABEL_RE.match(line)
    if label_match and "[" not in label_match.group(1):
        name, rest = label_match.groups()
        if name.startswith("."):
            assembler.label(_local_name(current_function, name))
        else:
            assembler.label(name, function=True)
            current_function = name
        if rest:
            return _parse_line(assembler, rest, current_function)
        return current_function

    if line.startswith("."):
        _parse_directive(assembler, line)
        return current_function

    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.lower()
    operands = tuple(
        _parse_operand(token.strip(), current_function)
        for token in _split_operands(rest)
    )
    if mnemonic in ("movb", "movzx"):
        operands = tuple(
            Mem(op.base, op.index, op.scale, op.disp, 1, op.disp_label)
            if isinstance(op, Mem) else op
            for op in operands
        )
    assembler.emit(Instruction(mnemonic=mnemonic, operands=operands))
    return current_function


def _parse_directive(assembler: Assembler, line: str) -> None:
    parts = line.split(None, 1)
    directive = parts[0]
    argument = parts[1] if len(parts) > 1 else ""
    if directive == ".text":
        assembler.section("text")
    elif directive == ".data":
        assembler.section("data")
    elif directive == ".align":
        assembler.align(int(argument, 0))
    elif directive == ".space":
        assembler.reserve(int(argument, 0))
    elif directive == ".word":
        payload = bytearray()
        for token in argument.split(","):
            payload.extend((int(token.strip(), 0) & 0xFFFFFFFF).to_bytes(4, "little"))
        assembler.data(bytes(payload))
    elif directive == ".byte":
        payload = bytes(int(token.strip(), 0) & 0xFF for token in argument.split(","))
        assembler.data(payload)
    else:
        raise ParseError(f"unknown directive {directive}")


def _split_operands(rest: str) -> list[str]:
    """Split on commas that are not inside brackets."""
    rest = rest.strip()
    if not rest:
        return []
    tokens = []
    depth = 0
    current = []
    for char in rest:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            tokens.append("".join(current))
            current = []
        else:
            current.append(char)
    tokens.append("".join(current))
    return tokens


def _local_name(function: str, label: str) -> str:
    return f"{function}{label}" if label.startswith(".") else label


def _parse_operand(token: str, current_function: str):
    lowered = token.lower()
    if lowered in REGISTER_IDS:
        return Reg(REGISTER_IDS[lowered])
    if lowered in BYTE_REGISTER_NAMES:
        return Reg8(BYTE_REGISTER_NAMES[lowered])
    size = 4
    if lowered.startswith("byte "):
        size = 1
        token = token[5:].strip()
        lowered = token.lower()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ParseError(f"unterminated memory operand {token}")
        return _parse_mem(token[1:-1], size, current_function)
    if _is_number(token):
        return Imm(int(token, 0) & 0xFFFFFFFF)
    # Bare identifier: a code label or data symbol.
    return Label(_symbol(token, current_function))


def _symbol(token: str, current_function: str) -> str:
    """The symbol a label operand names; anything else is malformed."""
    if not _SYMBOL_RE.match(token):
        raise ParseError(f"malformed operand {token!r}")
    return _local_name(current_function, token)


def _is_number(token: str) -> bool:
    try:
        int(token, 0)
        return True
    except ValueError:
        return False


def _parse_mem(expr: str, size: int, current_function: str) -> Mem:
    base = index = None
    scale = 1
    disp = 0
    disp_label = None
    for sign, term in _terms(expr):
        term = term.strip()
        lowered = term.lower()
        scaled = _MEM_TERM_RE.match(lowered)
        if scaled and scaled.group(1) in REGISTER_IDS:
            if sign < 0:
                raise ParseError("cannot subtract a register in a memory operand")
            if index is not None:
                raise ParseError(f"two index registers in [{expr}]")
            index = REGISTER_IDS[scaled.group(1)]
            scale = int(scaled.group(2))
        elif lowered in REGISTER_IDS:
            if sign < 0:
                raise ParseError("cannot subtract a register in a memory operand")
            if base is None:
                base = REGISTER_IDS[lowered]
            elif index is None:
                index = REGISTER_IDS[lowered]
            else:
                raise ParseError(f"too many registers in [{expr}]")
        elif _is_number(term):
            disp += sign * int(term, 0)
        else:
            if disp_label is not None:
                raise ParseError(f"two symbols in [{expr}]")
            if sign < 0:
                raise ParseError("cannot subtract a symbol in a memory operand")
            disp_label = _symbol(term, current_function)
    return Mem(
        base=base, index=index, scale=scale,
        disp=disp & 0xFFFFFFFF, size=size, disp_label=disp_label,
    )


def _terms(expr: str):
    """Yield (sign, term) pairs from a +/- separated expression."""
    current = []
    sign = 1
    for char in expr:
        if char == "+":
            if current:
                yield sign, "".join(current)
            current = []
            sign = 1
        elif char == "-":
            if current:
                yield sign, "".join(current)
            current = []
            sign = -1
        else:
            current.append(char)
    if current:
        yield sign, "".join(current)
