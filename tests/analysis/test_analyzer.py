"""End-to-end analyzer tests on hand-written binaries.

These tests exercise the full pipeline (assemble → decode → abstract
execution → trace DAG counting) on the paper's running examples, and
cross-validate every static bound against exhaustive concrete execution
(Theorem 1) via the :class:`ConcreteValidator`.
"""

import pytest

from repro.analysis.analyzer import analyze
from repro.analysis.config import AnalysisConfig, InputSpec, MemInit
from repro.analysis.specialize import NO_SPECIALIZE_ENV
from repro.analysis.validation import ConcreteValidator
from repro.core import masked, valueset
from repro.core.observers import AccessKind
from repro.isa.asmparse import parse_asm
from repro.isa.registers import EAX, EBX, ECX, ESI

I, D = AccessKind.INSTRUCTION, AccessKind.DATA

CONFIG = AnalysisConfig(observer_names=("address", "bank", "block"))


def build(text):
    return parse_asm(text).assemble()


def assert_validated(image, spec, result, layouts):
    validator = ConcreteValidator(image, spec)
    outcome = validator.check(result, layouts)
    assert outcome.ok, outcome.violations


class TestStraightLine:
    def test_no_secrets_no_leak(self):
        image = build("""
        .text
        main:
            mov eax, 1
            add eax, 2
            mov ebx, 0x9000000
            mov [ebx], eax
            mov ecx, [ebx]
            ret
        """)
        spec = InputSpec(entry="main")
        result = analyze(image, spec, CONFIG)
        for kind in (I, D):
            for observer in ("address", "block", "bank"):
                assert result.report.bits(kind, observer) == 0.0

    def test_example_3_secret_dependent_pointer(self):
        """Paper Example 3: x := malloc(...); if h then x := x + 64."""
        image = build("""
        .text
        main:
            test eax, eax
            je .skip
            add esi, 64
        .skip:
            mov ebx, [esi]
            ret
        """)
        spec = InputSpec(
            entry="main",
            registers=(
                InputSpec.reg_high(EAX, [0, 1]),
                InputSpec.reg_symbol(ESI, "x"),
            ),
        )
        result = analyze(image, spec, CONFIG)
        # L ≤ |{s, s+64}| = 2, i.e. 1 bit, for the data-address observer.
        assert result.report.bits(D, "address") == 1.0
        assert_validated(image, spec, result,
                         layouts=[{"x": 0x9000000}, {"x": 0x9000040}, {"x": 0x9000104}])

    def test_low_unknown_pointer_alone_leaks_nothing(self):
        """Accessing *x for unknown-but-public x is a single observation:
        the analysis separates uncertainty about λ from leakage."""
        image = build("""
        .text
        main:
            mov ebx, [esi]
            mov ecx, [esi+4]
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_symbol(ESI, "x"),))
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(D, "address") == 0.0
        assert result.report.bits(I, "address") == 0.0


class TestAlignAndGather:
    def test_align_function(self):
        """The align() of Figure 3: buf - (buf & (bs-1)) + bs, via AND/ADD."""
        image = build("""
        .text
        main:
            and esi, 0xFFFFFFC0
            add esi, 0x40
            mov eax, [esi]
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_symbol(ESI, "buf"),))
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(D, "address") == 0.0

    def test_gather_loop_block_collapse(self):
        """gather: accesses buf[k + 8*i]; the block observer learns nothing,
        the address observer sees 8 candidates per iteration, the bank
        observer two (CacheBleed)."""
        iterations = 6
        image = build(f"""
        .text
        main:
            and esi, 0xFFFFFFC0     ; align(buf)
            add esi, 0x40
            mov ecx, 0              ; i = 0
        .loop:
            lea edx, [ecx*8]
            add edx, eax            ; k + 8i
            movzx ebx, byte [esi+edx]
            inc ecx
            cmp ecx, {iterations}
            jne .loop
            ret
        """)
        spec = InputSpec(
            entry="main",
            registers=(
                InputSpec.reg_high(EAX, range(8)),
                InputSpec.reg_symbol(ESI, "buf"),
            ),
        )
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(D, "block") == 0.0
        assert result.report.bits(D, "address") == 3.0 * iterations
        assert result.report.bits(D, "bank") == 1.0 * iterations
        assert result.report.bits(I, "address") == 0.0
        assert_validated(
            image, spec, result,
            layouts=[{"buf": 0x9000000}, {"buf": 0x9000123}, {"buf": 0x9000777}],
        )

    def test_pointer_offset_loop_terminates(self):
        """Example 7/8: loop guard via pointer comparison on a symbolic base."""
        image = build("""
        .text
        main:
            mov edi, esi
            add edi, 12            ; y = r + N (N = 12 bytes, 3 words)
        .loop:
            mov [esi], 0
            add esi, 4
            cmp esi, edi
            jne .loop
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_symbol(ESI, "r"),))
        result = analyze(image, spec, CONFIG)
        # Terminates (no fuel error) and leaks nothing.
        assert result.report.bits(D, "address") == 0.0
        assert result.engine_result.steps < 100


class TestBranchShapes:
    def test_branch_in_single_block_bblock_zero(self):
        """Example 9 / Figure 4: both arms inside one 64-byte block.

        The address observer sees 2 traces (1 bit); the block observer sees
        different repetition counts (1 bit); the stuttering block observer
        sees a single trace (0 bits)."""
        image = build("""
        .text
        .align 64
        main:
            test eax, eax
            jne .skip
            mov ebx, ecx
            mov ecx, edx
            mov edx, ebx
        .skip:
            sub edi, 1
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, [0, 1]),))
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(I, "address") == 1.0
        assert result.report.bits(I, "block") == 1.0
        bblock = result.report.bound(I, "block").stuttering_count
        assert bblock == 1  # 0 bits
        assert_validated(image, spec, result, layouts=[{}])

    def test_branch_arm_in_distinct_block_bblock_one(self):
        """The -O0 shape of Figure 9b: the taken arm touches its own block."""
        image = build("""
        .text
        .align 64
        main:
            test eax, eax
            je .skip
            jmp far_code
        .back:
        .skip:
            sub edi, 1
            ret
        .align 64
        far_code:
            mov ebx, ecx
            jmp main.back
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, [0, 1]),))
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(I, "block") == 1.0
        assert result.report.bound(I, "block").stuttering_count == 2  # 1 bit
        assert_validated(image, spec, result, layouts=[{}])

    def test_branch_refinement_excludes_impossible_index(self):
        """Figure 10's shape: if e0 == 0 ... else use table[e0-1].

        Without refining e0 to {1..7} on the else arm, the impossible index
        -1 would contribute an extra observation."""
        image = build("""
        .text
        main:
            cmp eax, 0
            je .zero
            lea edx, [eax*4-4]
            mov ebx, [table+edx]
            jmp .done
        .zero:
            mov ebx, esi
        .done:
            ret
        .data
        .align 64
        table: .space 28
        """)
        spec = InputSpec(
            entry="main",
            registers=(
                InputSpec.reg_high(EAX, range(8)),
                InputSpec.reg_symbol(ESI, "bp"),
            ),
        )
        result = analyze(image, spec, CONFIG)
        # 7 possible table slots + the e0=0 path's absence of the access.
        assert result.report.bound(D, "address").count == 8
        assert_validated(image, spec, result, layouts=[{"bp": 0x9000000}])

    def test_secret_branch_under_loop_accumulates(self):
        """k iterations of a 1-bit branch bound 2^k traces (address obs.)."""
        image = build("""
        .text
        main:
            mov ecx, 0
        .loop:
            mov ebx, eax
            shr ebx, cl
            and ebx, 1
            test ebx, ebx
            je .skip
            mov edx, 1
        .skip:
            inc ecx
            cmp ecx, 3
            jne .loop
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, range(8)),))
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(I, "address") == 3.0
        assert_validated(image, spec, result, layouts=[{}])


# x86 leaves the flags alone on a shift by a zero count, so ZF still holds
# the outcome of `cmp eax, eax` when the branch reads it: with a count of 0
# the table load runs for every secret, with a count in {0, 1} for half of
# them.  The loop runs its head block compiled from its fourth execution
# on; with mixed counts each iteration forks, so an iteration that lost the
# old flags changes the bound, and tier on = tier off checks the compile
# tier's half of the fix.
_SHIFT_BY_ZERO = """
.text
main:
    cmp eax, eax
    shl ebx, cl
    je .leak
    ret
.leak:
    mov edx, [table + esi*4]
    ret
.data
table: .space 256
"""
_SHIFT_BY_ZERO_LOOP = """
.text
main:
    mov edi, 0
.loop:
    cmp eax, eax
    shl ebx, cl
    jne .next
    mov edx, [table + esi*4]
.next:
    inc edi
    cmp edi, 6
    jl .loop
    ret
.data
table: .space 256
"""


class TestShiftByZero:
    @pytest.mark.parametrize("counts", [(0,), (0, 1)], ids=["zero", "mixed"])
    @pytest.mark.parametrize("source", [_SHIFT_BY_ZERO, _SHIFT_BY_ZERO_LOOP],
                             ids=["straight", "loop"])
    def test_shift_by_zero_keeps_flags(self, source, counts, monkeypatch):
        image = build(source)
        spec = InputSpec(entry="main", registers=(
            InputSpec.reg_constant(EBX, 1),
            InputSpec.reg_high(ECX, counts),
            InputSpec.reg_high(ESI, (0, 16, 32, 48))))
        result = analyze(image, spec, CONFIG)
        assert_validated(image, spec, result, [{}])
        monkeypatch.setenv(NO_SPECIALIZE_ENV, "1")
        assert analyze(image, spec, CONFIG).report.bounds == result.report.bounds


class TestCallsAndExterns:
    def test_call_ret_roundtrip(self):
        image = build("""
        .text
        main:
            call helper
            add eax, 1
            ret
        helper:
            mov eax, 5
            ret
        """)
        spec = InputSpec(entry="main")
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(I, "address") == 0.0

    def test_extern_clobber_models_stub(self):
        """A conditional call to a summarized extern leaks through I-cache."""
        image = build("""
        .text
        main:
            test eax, eax
            je .skip
            call mpi_mul
        .skip:
            ret
        .align 64
        mpi_mul:
            ret
        """)
        spec = InputSpec(
            entry="main",
            registers=(InputSpec.reg_high(EAX, [0, 1]),),
            extern_clobbers=("mpi_mul",),
        )
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(I, "block") == 1.0
        assert result.report.bits(D, "address") == 1.0  # return-address push

    def test_memory_init_through_symbol(self):
        """MemInit can seed symbolic heap locations (pointer tables)."""
        image = build("""
        .text
        main:
            mov ebx, [esi+4]
            mov ecx, [ebx]
            ret
        """)
        spec = InputSpec(
            entry="main",
            registers=(InputSpec.reg_symbol(ESI, "tab"),),
            memory=(MemInit(at=("tab", 4), symbol="entry1"),),
        )
        result = analyze(image, spec, CONFIG)
        assert result.report.bits(D, "address") == 0.0
        assert_validated(
            image, spec, result,
            layouts=[{"tab": 0x9000000, "entry1": 0x9100000}])


class TestDiagnostics:
    def test_fuel_exhaustion_is_loud(self):
        from repro.analysis.config import AnalysisError
        image = build("""
        .text
        main:
        .forever:
            jmp .forever
        """)
        small = AnalysisConfig(observer_names=("address",), fuel=50)
        with pytest.raises(AnalysisError, match="fuel"):
            analyze(image, InputSpec(entry="main"), small)

    def test_intern_tables_released_on_return_and_raise(self):
        from repro.analysis.config import AnalysisError

        image = build("""
        .text
        main:
            mov ebx, [esi + eax*4]
            add ebx, eax
            ret
        """)
        spec = InputSpec(entry="main", registers=(
            InputSpec.reg_high(EAX, range(8)),
            InputSpec.reg_symbol(ESI, "table")))
        analyze(image, spec, CONFIG)
        assert masked.intern_size() == 0
        assert valueset.intern_size() == 0
        small = AnalysisConfig(observer_names=("address",), fuel=1)
        with pytest.raises(AnalysisError, match="fuel"):
            analyze(image, spec, small)
        assert masked.intern_size() == 0
        assert valueset.intern_size() == 0

    def test_widening_records_warning(self):
        image = build("""
        .text
        main:
            mul ebx
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_symbol(EAX, "a"),
                                    InputSpec.reg_symbol(EBX, "b"),))
        result = analyze(image, spec, CONFIG)
        assert any("widened" in note for note in result.report.notes)
