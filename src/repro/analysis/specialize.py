"""Block-specialized abstract transformers: the analysis engine's compile tier.

The interpreted hot path of :class:`~repro.analysis.engine.Engine` pays, per
abstract instruction, for a worklist pop, a decode-cache probe, the mnemonic
dispatch of :meth:`~repro.analysis.transfer.Transfer.step`, and a chain of
operand ``isinstance`` tests — all of which are invariant for a given program
address.  This module removes that cost for straight-line code that runs
often: once a basic block turns hot in a run (its ``HOT_RUNS``-th execution),
it gets one specialized Python function in which decode results and operand
shapes are resolved at codegen time, immediate/register/memory operand paths
are split, constants are folded into pre-materialized
:class:`~repro.core.valueset.ValueSet` objects, and the transformer calls of
``Transfer`` are inlined as direct calls to the
:class:`~repro.core.valueset.ValueSetOps` liftings.  Compiling on demand keeps
``compile()`` off the many blocks that run only a few times per analysis,
where it costs more than it saves.

Fidelity rules (the established correctness bar is *bit identity* — every
figure count, leakage bound, warning string, and engine counter must be
unchanged with specialization on, off, or mixed):

- Generated code performs exactly the operation sequence of
  ``Transfer.step``, in the same order, including the double effective-
  address computation of read-modify-write memory destinations (each
  computation may allocate its own fresh "widened" symbol) and the
  ``PrecisionLoss`` try/except structure with the same ``f"{op}: {loss}"``
  warning strings.
- A block's specialized function covers only its longest *supported*
  straight-line prefix; control flow (``jmp``/``jcc``/``call``/``ret``/
  ``hlt``), wide multiply/divide, and any uncovered operand shape fall back
  to the interpreted ``Transfer.step`` — identical behavior by construction
  on the hard cases (forks, extern-clobber calls, fuel exhaustion).
- Generated *code* is cached per ``(image fingerprint, entry)`` in a bounded
  :class:`~repro.core.lru.LRUCache`, filled block by block; a block is
  *bound* (its liftings and constant ValueSets materialized) by
  :meth:`SpecializedProgram.bind` in every run that finds it hot, because
  :class:`~repro.analysis.state.AnalysisContext` clears the domain's intern
  tables — baking interned objects into the cache would desynchronize the
  id-keyed lifting memos and change fresh-symbol allocation.
  ``ValueSet.constant`` allocates no symbols, so bind-time materialization
  is allocation-order neutral.

Scheduling equivalence: interior addresses of a specialized prefix are never
CFG leaders (every branch/call target and fall-through is a leader, and
blocks are carved at leaders), so no pending configuration's key can
name them, and no order key can sort strictly between two consecutive
straight-line pcs of the same frame stack — executing the prefix atomically
pops in exactly the interpreted order and loses no merges.
"""

from __future__ import annotations

import os

from repro.analysis.cfg import BasicBlock, build_cfg
from repro.analysis.flags import FlagState, TOP_FLAGS
from repro.analysis.state import FlagSource
from repro.analysis.transfer import Transfer
from repro.core.lru import DEFAULT_CACHE_CAP, LRUCache
from repro.core.valueset import KEPT_FLAGS, PrecisionLoss, ValueSet
from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Mem, Reg
from repro.isa.registers import ESP, Reg8

__all__ = [
    "BoundBlock", "SpecializedProgram", "specialized_program",
    "specialization_enabled", "compile_tier_evictions", "HOT_RUNS",
    "NO_SPECIALIZE_ENV",
]

WIDTH = 32

# Ablation/rot-guard switch: any non-empty value disables the compile tier
# process-wide; pool workers inherit it with the rest of the environment.
NO_SPECIALIZE_ENV = "REPRO_NO_SPECIALIZE"

# Blocks shorter than this interpret: a one-instruction prefix saves nothing
# over the interpreter's single dispatch.
MIN_PREFIX = 2

# A block runs compiled from its HOT_RUNS-th execution in a run on; the
# earlier ones interpret.  Must be at least 2: the engine counts a compiled
# execution as decode hits because an interpreted one already decoded it.
HOT_RUNS = 4

# Generated code objects per (image fingerprint, entry).  Shares the
# compile-tier cap (and the LRU discipline) with the compile_program memo.
_PROGRAM_CACHE: LRUCache = LRUCache(DEFAULT_CACHE_CAP)


def specialization_enabled() -> bool:
    """Whether the compile tier is on: unless ``NO_SPECIALIZE_ENV`` is set."""
    return not os.environ.get(NO_SPECIALIZE_ENV)


def compile_tier_evictions() -> int:
    """Total LRU evictions across the compile-tier caches (monotonic).

    Covers the specialized-block cache here and the ``compile_program``
    image memo; the engine reports the per-run delta on ``SchedulerStats``.
    """
    from repro.lang.driver import compile_cache_evictions

    return _PROGRAM_CACHE.evictions + compile_cache_evictions()


class BoundBlock:
    """One specialized block bound to a run's context: ready to execute.

    ``fetches`` is the block's constant instruction-fetch address sequence
    (one ValueSet per covered instruction, in program order).  The engine
    emits it batched per observer.  ``fn(state, collect)`` performs the
    block's state updates and appends each data-access address to
    ``collect`` (a ``list.append``) in program order; the engine projects
    and emits that batch per observer after the call.  ``i_runs`` caches
    the per-observer run-length-compressed fetch labels, computed by the
    engine on the block's first compiled execution of the run.
    """

    __slots__ = ("fn", "n_steps", "end_pc", "fetches", "i_runs")

    def __init__(self, fn, n_steps: int, end_pc: int, fetches) -> None:
        self.fn = fn
        self.n_steps = n_steps
        self.end_pc = end_pc
        self.fetches = fetches
        self.i_runs = None


class SpecializedProgram:
    """The compile tier's code for one (image, entry), built block by block.

    ``blocks`` maps each eligible block start (a CFG block whose first
    ``MIN_PREFIX`` instructions the generator supports) to its
    :class:`~repro.analysis.cfg.BasicBlock`.  ``code`` holds, per block
    compiled so far, its context-free binder, step count and end pc;
    ``source`` is the generated source of those blocks, in compile order.
    """

    __slots__ = ("blocks", "code", "source")

    def __init__(self, blocks: dict[int, BasicBlock]) -> None:
        self.blocks = blocks
        self.code: dict[int, tuple] = {}
        self.source = ""

    def bind(self, start: int, context) -> BoundBlock:
        """The block at ``start``, compiled on first use, bound to ``context``.

        The binder materializes the block's constants through
        ``ValueSet.constant``, so they are the *same interned objects* the
        interpreter produces in this run, keeping the id-keyed lifting memos
        shared between specialized and interpreted steps.
        """
        code = self.code.get(start)
        if code is None:
            code = self.code[start] = self._compile(self.blocks[start])
        binder, n_steps, end_pc = code
        fn, fetches = binder(context)
        return BoundBlock(fn, n_steps, end_pc, fetches)

    def _compile(self, block: BasicBlock) -> tuple:
        generator = _BlockGenerator()
        n_steps = generator.prefix(block.instructions)
        covered = block.instructions[:n_steps]
        fetches = "".join(f"{generator.const(instruction.addr)}, "
                          for instruction in covered)
        name = f"_b_{block.start:x}"
        lines = ["def _bind(_ctx):"]
        lines.extend(f"    {line}" for line in _PRELUDE)
        lines.extend(f"    K{index} = vs_constant({value}, {WIDTH})"
                     for index, value in enumerate(generator.const_values))
        lines.append(f"    def {name}(state, emit):")
        lines.append("        _regs = state.regs")
        lines.append("        _mem = state.memory")
        lines.extend(f"        {line}" for line in generator.lines)
        lines.append(f"    return {name}, ({fetches})")
        source = "\n".join(lines) + "\n"
        namespace = dict(_GLOBALS)
        exec(compile(source, "<specialized-blocks>", "exec"), namespace)
        self.source += source
        last = covered[-1]
        return namespace["_bind"], n_steps, last.addr + last.encoded_size


def specialized_program(image: Image, entry: int) -> SpecializedProgram:
    """The (cached) specialized program for ``image`` starting at ``entry``.

    A lookup builds the CFG and picks the eligible blocks; it compiles
    nothing (:meth:`SpecializedProgram.bind` does, one block at a time).
    """
    key = (image.fingerprint, entry)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = SpecializedProgram(_eligible_blocks(image, entry))
        _PROGRAM_CACHE.put(key, program)
    return program


def _eligible_blocks(image: Image, entry: int) -> dict[int, BasicBlock]:
    try:
        cfg = build_cfg(image, entry)
    except Exception:
        # Unreconstructable control flow (decode failure on a dead path,
        # budget exhaustion): the interpreter remains the single source of
        # truth and handles — or reports — whatever the CFG walk could not.
        return {}
    return {start: block for start, block in cfg.blocks.items()
            if _BlockGenerator().prefix(block.instructions[:MIN_PREFIX])
            == MIN_PREFIX}


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

class _Unsupported(Exception):
    """Raised during codegen to end a block's specialized prefix."""


_SIMPLE = frozenset((
    "mov", "movzx", "movb", "lea", "add", "sub", "and", "or", "xor",
    "cmp", "test", "inc", "dec", "neg", "not", "shl", "shr", "sar",
    "imul", "push", "pop", "nop",
))

_BINARY_FN = {"add": "_add", "sub": "_sub", "and": "_and",
              "or": "_or", "xor": "_xor"}

# The generated module's globals, and the bind-time names a block function
# closes over (fast LOAD_DEREF instead of global or attribute lookups).
_GLOBALS = {
    "PrecisionLoss": PrecisionLoss, "TOP_FLAGS": TOP_FLAGS,
    "KEPT_FLAGS": KEPT_FLAGS,
    "from_flagbits": FlagState.from_flagbits, "FlagSource": FlagSource,
    "vs_constants": ValueSet.constants, "vs_constant": ValueSet.constant,
    "preserve_cf": Transfer._preserve_cf,
}
_PRELUDE = (
    "_ops = _ctx.ops",
    "_and = _ops.and_",
    "_or = _ops.or_",
    "_xor = _ops.xor",
    "_add = _ops.add",
    "_sub = _ops.sub",
    "_mul = _ops.mul",
    "_neg = _ops.neg",
    "_not = _ops.not_",
    "_shift = _ops.shift",
    "_widen = _ctx.widened",
    "_PL = PrecisionLoss",
    "_TOP = TOP_FLAGS",
    "_FF = from_flagbits",
    "_FS = FlagSource",
    "_VSC = vs_constants",
    "_PCF = preserve_cf",
)


class _BlockGenerator:
    """Generates the body of one specialized block function.

    Every helper mirrors its ``Transfer`` counterpart statement for
    statement; comments name the mirrored method where the correspondence
    is not obvious.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._tmp = 0
        self.const_values: list[int] = []
        self._const_indices: dict[int, int] = {}

    # -- low-level emission --------------------------------------------
    def line(self, text: str) -> None:
        self.lines.append(text)

    def tmp(self) -> str:
        self._tmp += 1
        return f"v{self._tmp}"

    def const(self, value: int) -> str:
        """The bind-time name of the constant ValueSet for ``value``."""
        index = self._const_indices.get(value)
        if index is None:
            index = self._const_indices[value] = len(self.const_values)
            self.const_values.append(value)
        return f"K{index}"

    def prefix(self, instructions) -> int:
        """Generate the longest supported prefix; returns its length."""
        for n_steps, instruction in enumerate(instructions):
            try:
                self.instruction(instruction)
            except _Unsupported:
                return n_steps
        return len(instructions)

    # -- Transfer._apply -----------------------------------------------
    def apply(self, call: str, op_name: str) -> str:
        out = self.tmp()
        self.line("try:")
        self.line(f"    {out} = {call}[0]")
        self.line("except _PL as _e:")
        self.line(f'    {out} = _widen("{op_name}: %s" % (_e,))')
        return out

    # -- Transfer._apply_with_flags ------------------------------------
    def apply_with_flags(self, call: str, op_name: str) -> tuple[str, str]:
        out, flags = self.tmp(), self.tmp()
        self.line("try:")
        self.line(f"    {out}, _fb = {call}")
        self.line(f"    {flags} = _FF(_fb)")
        self.line("except _PL as _e:")
        self.line(f'    {out} = _widen("{op_name}: %s" % (_e,))')
        self.line(f"    {flags} = _TOP")
        return out, flags

    # -- Transfer._effective_address -----------------------------------
    def address(self, mem: Mem) -> str:
        if getattr(mem, "disp_label", None) is not None:
            raise _Unsupported
        addr = None
        if mem.base is not None:
            addr = self.tmp()
            self.line(f"{addr} = _regs[{mem.base}]")
        if mem.index is not None:
            index = self.tmp()
            self.line(f"{index} = _regs[{mem.index}]")
            if mem.scale != 1:
                index = self.apply(
                    f"_mul({index}, {self.const(mem.scale)})", "MUL")
            if addr is None:
                addr = index
            else:
                addr = self.apply(f"_add({addr}, {index})", "ADD")
        if addr is None:
            addr = self.const(mem.disp)
        elif mem.disp:
            addr = self.apply(f"_add({addr}, {self.const(mem.disp)})", "ADD")
        return addr

    # -- Transfer._read_operand ----------------------------------------
    def read(self, op) -> str:
        if isinstance(op, Reg):
            value = self.tmp()
            self.line(f"{value} = _regs[{op.reg}]")
            return value
        if isinstance(op, Reg8):
            return self.apply(
                f"_and(_regs[{op.reg}], {self.const(0xFF)})", "AND")
        if isinstance(op, Imm):
            return self.const(op.value)
        if isinstance(op, Mem):
            addr = self.address(op)
            value = self.tmp()
            self.line(f"emit({addr})")
            self.line(f"{value} = _mem.read({addr}, {op.size}, _ctx)")
            return value
        raise _Unsupported

    # -- Transfer._write_operand ---------------------------------------
    def write(self, op, value: str) -> None:
        if isinstance(op, Reg):
            self.set_reg(op.reg, value)
        elif isinstance(op, Reg8):
            upper = self.apply(
                f"_and(_regs[{op.reg}], {self.const(0xFFFFFF00)})", "AND")
            low = self.apply(f"_and({value}, {self.const(0xFF)})", "AND")
            self.set_reg(op.reg, self.apply(f"_or({upper}, {low})", "OR"))
        elif isinstance(op, Mem):
            # RMW destinations recompute the address, exactly like
            # _write_operand: each computation may allocate its own
            # "widened" fresh symbol, and reusing the read-side address
            # would change symbol allocation order.
            addr = self.address(op)
            self.line(f"emit({addr})")
            self.line(f"_mem.write({addr}, {value}, {op.size}, _ctx)")
        else:
            raise _Unsupported

    # -- Transfer._set_reg ---------------------------------------------
    def set_reg(self, reg: int, value: str) -> None:
        self.line(f"_regs[{reg}] = {value}")
        self.line(f"state.invalidate_copy({reg})")
        self.line("_fs = state.flag_source")
        self.line(f"if _fs is not None and _fs.reg == {reg}:")
        self.line("    state.flag_source = None")

    # -- one instruction -----------------------------------------------
    def instruction(self, instr: Instruction) -> None:
        mnemonic = instr.mnemonic
        if mnemonic not in _SIMPLE and not (
                mnemonic.startswith("set") and len(mnemonic) > 3):
            raise _Unsupported
        # The instruction fetch is NOT emitted here: fetch addresses are
        # compile-time constants, so the engine emits the whole block's
        # fetch sequence batched per observer (BoundBlock.fetches).  Data
        # accesses stay in the generated code, but ``emit`` is a plain
        # address collector (one positional argument, program order): the
        # engine projects and emits the collected batch per observer after
        # the block body returns, which preserves the per-kind access
        # sequence every D-observing DAG sees.
        mark = len(self.lines)
        try:
            self._generate(mnemonic, instr.operands)
        except _Unsupported:
            del self.lines[mark:]
            raise

    def _generate(self, mnemonic: str, ops: tuple) -> None:
        if mnemonic == "mov":
            value = self.read(ops[1])
            self.write(ops[0], value)
            if isinstance(ops[0], Reg) and isinstance(ops[1], Reg):
                self.line(f"state.record_copy({ops[0].reg}, {ops[1].reg})")
        elif mnemonic == "movzx":
            source = ops[1]
            if isinstance(source, Mem):
                value = self.read(source)
            elif isinstance(source, (Reg, Reg8)):
                value = self.apply(
                    f"_and(_regs[{source.reg}], {self.const(0xFF)})", "AND")
            else:
                raise _Unsupported
            value = self.apply(f"_and({value}, {self.const(0xFF)})", "AND")
            self.write(ops[0], value)
        elif mnemonic == "movb":
            mem = ops[0]
            if not isinstance(mem, Mem) or not isinstance(ops[1], (Reg, Reg8)):
                raise _Unsupported
            if mem.size != 1:
                mem = Mem(mem.base, mem.index, mem.scale, mem.disp, 1)
            value = self.apply(
                f"_and(_regs[{ops[1].reg}], {self.const(0xFF)})", "AND")
            self.write(mem, value)
        elif mnemonic == "lea":
            if not isinstance(ops[0], (Reg, Reg8)) or not isinstance(ops[1], Mem):
                raise _Unsupported
            self.set_reg(ops[0].reg, self.address(ops[1]))
        elif mnemonic in _BINARY_FN:
            x = self.read(ops[0])
            y = self.read(ops[1])
            result, flags = self.apply_with_flags(
                f"{_BINARY_FN[mnemonic]}({x}, {y})", mnemonic.upper())
            self.line(f"state.flags = {flags}")
            self.line("state.flag_source = None")
            self.write(ops[0], result)
        elif mnemonic == "cmp":
            x = self.read(ops[0])
            y = self.read(ops[1])
            flags = self.tmp()
            self.line("try:")
            self.line(f"    {flags} = _FF(_sub({x}, {y})[1])")
            self.line("except _PL as _e:")
            self.line('    _widen("SUB: %s" % (_e,))')
            self.line(f"    {flags} = _TOP")
            self.line(f"state.flags = {flags}")
            if isinstance(ops[0], Reg):
                self.line(
                    f'state.flag_source = _FS({ops[0].reg}, "cmp", {x}, {y})')
            else:
                self.line("state.flag_source = None")
        elif mnemonic == "test":
            x = self.read(ops[0])
            y = self.read(ops[1])
            flags = self.tmp()
            self.line("try:")
            self.line(f"    {flags} = _FF(_and({x}, {y})[1])")
            self.line("except _PL as _e:")
            self.line('    _widen("AND: %s" % (_e,))')
            self.line(f"    {flags} = _TOP")
            self.line(f"state.flags = {flags}")
            same_reg = (isinstance(ops[0], Reg) and isinstance(ops[1], Reg)
                        and ops[0].reg == ops[1].reg)
            if same_reg:
                self.line(
                    f'state.flag_source = _FS({ops[0].reg}, "test", {x}, {y})')
            else:
                self.line("state.flag_source = None")
        elif mnemonic in ("inc", "dec"):
            x = self.read(ops[0])
            op_name = "ADD" if mnemonic == "inc" else "SUB"
            call = f"{'_add' if mnemonic == 'inc' else '_sub'}({x}, {self.const(1)})"
            result, flags = self.apply_with_flags(call, op_name)
            self.line(f"state.flags = _PCF(state.flags, {flags})")
            self.line("state.flag_source = None")
            self.write(ops[0], result)
        elif mnemonic == "neg":
            x = self.read(ops[0])
            result, flags = self.apply_with_flags(f"_neg({x})", "NEG")
            self.line(f"state.flags = {flags}")
            self.line("state.flag_source = None")
            self.write(ops[0], result)
        elif mnemonic == "not":
            # x86 NOT leaves the flags untouched; _apply_with_flags still
            # builds (and discards) the FlagState, so mirror the call for
            # its from_flagbits cache effect.
            x = self.read(ops[0])
            result = self.tmp()
            self.line("try:")
            self.line(f"    {result}, _fb = _not({x})")
            self.line("    _FF(_fb)")
            self.line("except _PL as _e:")
            self.line(f'    {result} = _widen("NOT: %s" % (_e,))')
            self.write(ops[0], result)
        elif mnemonic in ("shl", "shr", "sar"):
            x = self.read(ops[0])
            count = self.read(ops[1])
            result = self.tmp()
            self.line("try:")
            self.line(f'    {result}, _fb = _shift("{mnemonic.upper()}", {x}, {count})')
            self.line("    if KEPT_FLAGS not in _fb:")
            self.line("        state.flags = _FF(_fb)")
            self.line("        state.flag_source = None")
            self.line("    elif len(_fb) > 1:")
            self.line("        state.flags = state.flags.join(_FF(_fb - {KEPT_FLAGS}))")
            self.line("        state.flag_source = None")
            self.line("except (_PL, ValueError) as _e:")
            self.line(f'    {result} = _widen("{mnemonic}: %s" % (_e,))')
            self.line("    state.flags = _TOP")
            self.line("    state.flag_source = None")
            self.write(ops[0], result)
        elif mnemonic == "imul":
            if len(ops) == 2:
                x = self.read(ops[0])
                y = self.read(ops[1])
            elif len(ops) == 3:
                x = self.read(ops[1])
                y = self.read(ops[2])
            else:
                raise _Unsupported
            result = self.tmp()
            self.line("try:")
            self.line(f"    {result}, _fb = _mul({x}, {y})")
            self.line("    _FF(_fb)")
            self.line("except _PL as _e:")
            self.line(f'    {result} = _widen("MUL: %s" % (_e,))')
            self.line("state.flags = _TOP")  # x86 leaves ZF/SF undefined
            self.line("state.flag_source = None")
            self.write(ops[0], result)
        elif mnemonic == "push":
            value = self.read(ops[0])
            new_esp = self.apply(
                f"_sub(_regs[{ESP}], {self.const(4)})", "SUB")
            self.set_reg(ESP, new_esp)
            self.line(f"emit({new_esp})")
            self.line(f"_mem.write({new_esp}, {value}, 4, _ctx)")
        elif mnemonic == "pop":
            if not isinstance(ops[0], (Reg, Reg8)):
                raise _Unsupported
            esp = self.tmp()
            self.line(f"{esp} = _regs[{ESP}]")
            self.line(f"emit({esp})")
            value = self.tmp()
            self.line(f"{value} = _mem.read({esp}, 4, _ctx)")
            new_esp = self.apply(f"_add({esp}, {self.const(4)})", "ADD")
            self.set_reg(ESP, new_esp)
            self.set_reg(ops[0].reg, value)
        elif mnemonic.startswith("set"):
            if not isinstance(ops[0], (Reg, Reg8)):
                raise _Unsupported
            condition = mnemonic[3:]
            bits = self.tmp()
            self.line(f"{bits} = {{1 if _o else 0 "
                      f"for _o in state.flags.outcomes({condition!r})}}")
            value = self.tmp()
            self.line(f"{value} = _VSC({bits}, {WIDTH})")
            upper = self.apply(
                f"_and(_regs[{ops[0].reg}], {self.const(0xFFFFFF00)})", "AND")
            self.set_reg(ops[0].reg, self.apply(f"_or({upper}, {value})", "OR"))
        elif mnemonic == "nop":
            pass
        else:
            raise _Unsupported
