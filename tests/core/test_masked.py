"""Unit and property tests for the masked symbol domain (paper §5).

The property tests are executable versions of Lemma 1 (local soundness): for
every operation and every valuation λ of the input symbols, the concrete
result of the operation on concretized operands is contained in the
concretization of the abstract result (where fresh symbols are resolved
through their provenance, implementing λ̄ ∈ Ext(λ)).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mask import Mask
from repro.core.masked import (MaskedOps, MaskedSymbol, concrete_op,
                                intern_clear, intern_counters)
from repro.core.symbols import SymbolTable, Valuation

WIDTH = 8  # small width keeps the property tests fast yet bit-complete
WORDS = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


@pytest.fixture()
def table():
    return SymbolTable(width=WIDTH)


@pytest.fixture()
def ops(table):
    return MaskedOps(table)


def make_symbolic(table, known, value):
    sym = table.input_symbol("s")
    return MaskedSymbol(sym=sym, mask=Mask(known=known, value=value & known, width=WIDTH))


class TestConstants:
    def test_constant_ops_are_exact(self, ops):
        x = MaskedSymbol.constant(0b1100, WIDTH)
        y = MaskedSymbol.constant(0b1010, WIDTH)
        assert ops.and_(x, y)[0].value == 0b1000
        assert ops.or_(x, y)[0].value == 0b1110
        assert ops.xor(x, y)[0].value == 0b0110
        assert ops.add(x, y)[0].value == 0b10110
        assert ops.sub(x, y)[0].value == 0b0010

    def test_constant_flags(self, ops):
        x = MaskedSymbol.constant(1, WIDTH)
        flags = ops.sub(x, x)[1]
        assert (flags.zf, flags.cf) == (1, 0)
        flags = ops.sub(MaskedSymbol.constant(0, WIDTH), x)[1]
        assert (flags.zf, flags.cf) == (0, 1)

    def test_constant_masked_symbol_requires_known_mask(self):
        with pytest.raises(ValueError):
            MaskedSymbol(sym=None, mask=Mask.top(WIDTH))


class TestAlignIdiom:
    """The paper's Example 5/6: the OpenSSL `align` function."""

    def test_and_clears_low_bits_keeps_symbol(self, table, ops):
        # AND 0xC0-style alignment mask keeps the symbol: the constant is
        # neutral (1) on all symbolic bits.
        buf = MaskedSymbol.symbol(table.input_symbol("buf"), WIDTH)
        aligned, _ = ops.and_(buf, MaskedSymbol.constant(0b11111000, WIDTH))
        assert aligned.sym == buf.sym
        assert str(aligned.mask) == "TTTTT000"

    def test_add_block_size_gives_fresh_symbol(self, table, ops):
        # ADD 0x08 (the block size) flows a carry into the symbolic bits:
        # a fresh symbol s' with the same cleared low bits results.
        buf = MaskedSymbol.symbol(table.input_symbol("buf"), WIDTH)
        aligned, _ = ops.and_(buf, MaskedSymbol.constant(0b11111000, WIDTH))
        moved, flags = ops.add(aligned, MaskedSymbol.constant(0b1000, WIDTH))
        assert moved.sym != aligned.sym
        assert str(moved.mask) == "TTTTT000"
        # but the origin/offset machinery remembers where it came from
        origin, offset = table.origin_offset(moved)
        assert origin == aligned
        assert offset == 8

    def test_add_small_constant_keeps_symbol(self, table, ops):
        # Example 6: adding 0x07 (within the block) keeps the symbol, so the
        # result provably stays in the same block.
        buf = MaskedSymbol.symbol(table.input_symbol("buf"), WIDTH)
        aligned, _ = ops.and_(buf, MaskedSymbol.constant(0b11111000, WIDTH))
        inside, flags = ops.add(aligned, MaskedSymbol.constant(0b111, WIDTH))
        assert inside.sym == aligned.sym
        assert str(inside.mask) == "TTTTT111"
        assert flags.cf == 0


class TestKnownBitsAdd:
    """The bitwise-parallel ADD: known bits survive above a bounded
    symbolic window when no carry can escape it (what keeps the aligned
    AES tables' ``base + (secret & 0x3C)`` addresses inside one line)."""

    def test_disjoint_window_keeps_high_bits(self, table, ops):
        # x: symbolic only in bits 2..4, zero elsewhere; +0b0100000 cannot
        # ripple a carry, so every bit above the window stays known.
        x = make_symbolic(table, known=0b11100011, value=0)
        windowed, _ = ops.and_(x, MaskedSymbol.constant(0b00011100, WIDTH))
        moved, _ = ops.add(windowed, MaskedSymbol.constant(0b00100000, WIDTH))
        assert str(moved.mask) == "001TTT00"

    def test_possible_carry_tops_the_tail(self, table, ops):
        # Adding a constant with a bit inside the window can carry out of
        # it: bits above the window become unknown until the next known
        # absorber, never below it.
        x = make_symbolic(table, known=0b11100011, value=0)
        windowed, _ = ops.and_(x, MaskedSymbol.constant(0b00011100, WIDTH))
        moved, _ = ops.add(windowed, MaskedSymbol.constant(0b00000100, WIDTH))
        assert str(moved.mask).endswith("TTT00")
        assert not moved.mask.is_known(5)

    @given(xk=WORDS, xv=WORDS, yk=WORDS, yv=WORDS)
    @settings(max_examples=300, deadline=None)
    def test_add_mask_is_sound_exhaustively(self, xk, xv, yk, yv):
        """Every concretization of both operands lands in the result mask."""
        local_ops = MaskedOps(SymbolTable(width=WIDTH))
        xm = Mask(known=xk, value=xv & xk, width=WIDTH)
        ym = Mask(known=yk, value=yv & yk, width=WIDTH)
        mask, _stop_carry, _neutral = local_ops._add_mask(xm, ym)
        unknown_x = [i for i in range(WIDTH) if not xm.is_known(i)]
        unknown_y = [i for i in range(WIDTH) if not ym.is_known(i)]
        free = unknown_x + unknown_y
        for bits in range(1 << min(len(free), 8)):
            x_val, y_val = xm.value, ym.value
            for position, bit_index in enumerate(unknown_x):
                x_val |= ((bits >> position) & 1) << bit_index
            for position, bit_index in enumerate(unknown_y):
                y_val |= ((bits >> (len(unknown_x) + position)) & 1) << bit_index
            total = (x_val + y_val) & ((1 << WIDTH) - 1)
            assert mask.matches(total), (str(xm), str(ym), str(mask), total)


class TestOffsets:
    """§5.4.2: origins, offsets, and the succ memo-table."""

    def test_succ_reuse_returns_identical_object(self, table, ops):
        base = MaskedSymbol.symbol(table.input_symbol("r"), WIDTH)
        four = MaskedSymbol.constant(4, WIDTH)
        first, _ = ops.add(base, four)
        second, _ = ops.add(base, four)
        assert first == second

    def test_chained_adds_accumulate_offsets(self, table, ops):
        base = MaskedSymbol.symbol(table.input_symbol("r"), WIDTH)
        one = MaskedSymbol.constant(1, WIDTH)
        current = base
        for expected_offset in range(1, 5):
            current, _ = ops.add(current, one)
            origin, offset = table.origin_offset(current)
            assert origin == base
            assert offset == expected_offset

    def test_add_then_sub_returns_to_base(self, table, ops):
        base = MaskedSymbol.symbol(table.input_symbol("r"), WIDTH)
        four = MaskedSymbol.constant(4, WIDTH)
        moved, _ = ops.add(base, four)
        back, _ = ops.sub(moved, four)
        assert back == base

    def test_same_origin_sub_is_exact(self, table, ops):
        # Example 7/8: pointers x (= r+i) and y (= r+N) compare exactly.
        base = MaskedSymbol.symbol(table.input_symbol("r"), WIDTH)
        x, _ = ops.add(base, MaskedSymbol.constant(3, WIDTH))
        y, _ = ops.add(base, MaskedSymbol.constant(5, WIDTH))
        difference, flags = ops.sub(x, y)
        assert difference.is_constant
        assert difference.value == (3 - 5) & 0xFF
        assert flags.zf == 0
        assert flags.cf == 1  # x is (unsigned) below y

    def test_same_origin_cmp_equal_offsets(self, table, ops):
        base = MaskedSymbol.symbol(table.input_symbol("r"), WIDTH)
        step = MaskedSymbol.constant(5, WIDTH)
        x, _ = ops.add(base, step)
        y, _ = ops.add(base, step)
        flags = ops.cmp(x, y)
        assert flags.zf == 1

    def test_identical_symbol_sub_is_zero(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("p"), WIDTH)
        result, flags = ops.sub(s, s)
        assert result.is_constant and result.value == 0
        assert flags.zf == 1


class TestXor:
    def test_xor_same_symbol_is_zero(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, flags = ops.xor(s, s)
        assert result.is_constant and result.value == 0
        assert flags.zf == 1

    def test_xor_with_zero_keeps_symbol(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, _ = ops.xor(s, MaskedSymbol.constant(0, WIDTH))
        assert result.sym == s.sym
        assert result.mask.is_top

    def test_xor_with_nonzero_constant_freshens(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, _ = ops.xor(s, MaskedSymbol.constant(1, WIDTH))
        assert result.sym != s.sym


class TestBooleanAbsorption:
    def test_and_with_zero_is_zero(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, flags = ops.and_(s, MaskedSymbol.constant(0, WIDTH))
        assert result.is_constant and result.value == 0
        assert flags.zf == 1

    def test_or_with_ones_is_ones(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, _ = ops.or_(s, MaskedSymbol.constant(0xFF, WIDTH))
        assert result.is_constant and result.value == 0xFF

    def test_zf_zero_when_known_bit_set(self, table, ops):
        s = make_symbolic(table, known=0b1, value=0b1)
        flags = ops.and_(s, MaskedSymbol.constant(0xFF, WIDTH))[1]
        assert flags.zf == 0


class TestShifts:
    def test_shl_constant(self, ops):
        x = MaskedSymbol.constant(0b11, WIDTH)
        assert ops.shl(x, 2)[0].value == 0b1100

    def test_shl_symbolic_keeps_known_bits(self, table, ops):
        s = make_symbolic(table, known=0b1111, value=0b0101)
        result, _ = ops.shl(s, 2)
        assert result.mask.bit_at(0) == 0
        assert result.mask.bit_at(1) == 0
        assert result.mask.bit_at(2) == 1
        assert result.mask.bit_at(3) == 0
        assert result.mask.bit_at(4) == 1

    def test_shr_fills_high_zeros(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, _ = ops.shr(s, 3)
        assert result.mask.bit_at(WIDTH - 1) == 0
        assert result.mask.bit_at(WIDTH - 3) == 0
        assert result.mask.bit_at(0) is None

    def test_mul_power_of_two_is_shift(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, _ = ops.mul(s, MaskedSymbol.constant(8, WIDTH))
        assert result.mask.low_bits_known(3)
        assert result.mask.low_bits_value(3) == 0

    def test_mul_by_zero(self, table, ops):
        s = MaskedSymbol.symbol(table.input_symbol("v"), WIDTH)
        result, flags = ops.mul(s, MaskedSymbol.constant(0, WIDTH))
        assert result.is_constant and result.value == 0


# ----------------------------------------------------------------------
# Property-based local soundness (Lemma 1)
# ----------------------------------------------------------------------

def operand_strategy(table):
    """Draw a masked symbol over a shared pool of two input symbols."""

    @st.composite
    def build(draw):
        form = draw(st.sampled_from(["const", "sym0", "sym1"]))
        known = draw(st.integers(min_value=0, max_value=(1 << WIDTH) - 1))
        value = draw(st.integers(min_value=0, max_value=(1 << WIDTH) - 1)) & known
        if form == "const":
            return MaskedSymbol.constant(value | ~known & 0, WIDTH) if known == (1 << WIDTH) - 1 \
                else MaskedSymbol.constant(value, WIDTH)
        sym = table.input_symbols()[0 if form == "sym0" else 1]
        return MaskedSymbol(sym=sym, mask=Mask(known=known, value=value, width=WIDTH))

    return build()


OPS = ["AND", "OR", "XOR", "ADD", "SUB"]


@settings(max_examples=300, deadline=None)
@given(
    op_name=st.sampled_from(OPS),
    known_x=st.integers(min_value=0, max_value=255),
    value_x=st.integers(min_value=0, max_value=255),
    known_y=st.integers(min_value=0, max_value=255),
    value_y=st.integers(min_value=0, max_value=255),
    same_symbol=st.booleans(),
    y_constant=st.booleans(),
    lam0=st.integers(min_value=0, max_value=255),
    lam1=st.integers(min_value=0, max_value=255),
)
def test_local_soundness_binary_ops(
    op_name, known_x, value_x, known_y, value_y, same_symbol, y_constant, lam0, lam1
):
    """Lemma 1: OP(γ_λ(x), γ_λ(y)) ∈ γ_λ̄(OP♯(x, y)) for all λ."""
    table = SymbolTable(width=WIDTH)
    ops = MaskedOps(table)
    sym0 = table.input_symbol("a")
    sym1 = sym0 if same_symbol else table.input_symbol("b")

    x = MaskedSymbol(sym=sym0, mask=Mask(known=known_x, value=value_x & known_x, width=WIDTH))
    if y_constant:
        y = MaskedSymbol.constant(value_y, WIDTH)
    else:
        y = MaskedSymbol(sym=sym1, mask=Mask(known=known_y, value=value_y & known_y, width=WIDTH))

    abstract, _flags = ops.apply(op_name, x, y)

    valuation = Valuation(table, {sym0: lam0, sym1: lam1})
    concrete = concrete_op(
        op_name, valuation.concretize(x), valuation.concretize(y), WIDTH
    )
    assert valuation.concretize(abstract) == concrete


@settings(max_examples=200, deadline=None)
@given(
    op_name=st.sampled_from(OPS),
    known_x=st.integers(min_value=0, max_value=255),
    value_x=st.integers(min_value=0, max_value=255),
    constant=st.integers(min_value=0, max_value=255),
    lam=st.integers(min_value=0, max_value=255),
)
def test_flag_soundness_vs_concrete(op_name, known_x, value_x, constant, lam):
    """Whenever the abstract flags are determined, they match the concrete run."""
    from repro.core.bitvec import add_with_carry, sub_with_borrow

    table = SymbolTable(width=WIDTH)
    ops = MaskedOps(table)
    sym = table.input_symbol("a")
    x = MaskedSymbol(sym=sym, mask=Mask(known=known_x, value=value_x & known_x, width=WIDTH))
    y = MaskedSymbol.constant(constant, WIDTH)

    _, flags = ops.apply(op_name, x, y)
    valuation = Valuation(table, {sym: lam})
    cx, cy = valuation.concretize(x), valuation.concretize(y)

    if op_name in ("AND", "OR", "XOR"):
        result = concrete_op(op_name, cx, cy, WIDTH)
        concrete_zf, concrete_cf = (1 if result == 0 else 0), 0
    elif op_name == "ADD":
        result, concrete_cf, _ = add_with_carry(cx, cy, 0, WIDTH)
        concrete_zf = 1 if result == 0 else 0
    else:
        result, concrete_cf, _ = sub_with_borrow(cx, cy, 0, WIDTH)
        concrete_zf = 1 if result == 0 else 0

    if flags.zf is not None:
        assert flags.zf == concrete_zf
    if flags.cf is not None:
        assert flags.cf == concrete_cf


@settings(max_examples=150, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=5),
    lam=st.integers(min_value=0, max_value=255),
)
def test_offset_chain_soundness(offsets, lam):
    """Chained constant additions concretize to the arithmetic sum."""
    table = SymbolTable(width=WIDTH)
    ops = MaskedOps(table)
    sym = table.input_symbol("base")
    base = MaskedSymbol.symbol(sym, WIDTH)
    current = base
    total = 0
    for step in offsets:
        current, _ = ops.add(current, MaskedSymbol.constant(step, WIDTH))
        total += step
    valuation = Valuation(table, {sym: lam})
    assert valuation.concretize(current) == (lam + total) & 0xFF


# ----------------------------------------------------------------------
# Bulk lifts: the per-pair transformers' symbols, provenance and soundness
# ----------------------------------------------------------------------

INPUTS = 3  # input symbols 0..2, allocated first in every table


def bulk_elements():
    """Lists of mixed constant and symbolic elements over the inputs."""
    constants = WORDS.map(lambda value: MaskedSymbol.constant(value, WIDTH))
    symbolic = st.tuples(
        st.integers(min_value=0, max_value=INPUTS - 1), WORDS, WORDS,
    ).map(lambda drawn: MaskedSymbol(
        sym=drawn[0], mask=Mask(known=drawn[1], value=drawn[2] & drawn[1],
                                width=WIDTH)))
    return st.lists(st.one_of(constants, symbolic), min_size=1, max_size=4)


def _input_table():
    table = SymbolTable(width=WIDTH)
    assert [table.input_symbol(f"in{i}") for i in range(INPUTS)] == list(range(INPUTS))
    return table


@settings(max_examples=200, deadline=None)
@given(
    op_name=st.sampled_from(["XOR", "AND", "OR"]),
    xs=bulk_elements(),
    ys=bulk_elements(),
    lams=st.lists(WORDS, min_size=INPUTS, max_size=INPUTS),
)
def test_bulk_lifts_match_pairwise_and_are_sound(op_name, xs, ys, lams):
    """``xor_bulk``/``boolean_bulk`` allocate exactly the symbols, with
    exactly the provenance, of the per-pair transformers called in
    (x outer, y inner) order, and move the intern hit and miss counters
    by the same amounts; and every pair's concrete result lies in the
    concretized result set (Lemma 1, fresh symbols resolved by λ̄)."""
    transformer = {"XOR": "xor", "AND": "and_", "OR": "or_"}[op_name]

    def bulk_product(ops):
        if op_name == "XOR":
            return ops.xor_bulk(xs, ys)
        return ops.boolean_bulk(op_name, xs, ys)

    def pair_product(ops):
        per_pair = getattr(ops, transformer)
        return [per_pair(x, y) for x in xs for y in ys]

    def intern_traffic(product):
        # From cleared tables, a cold product and then a warm one, in
        # which every kept symbol and constant is an intern hit.
        intern_clear()
        before = intern_counters()
        for _ in range(2):
            product(MaskedOps(_input_table()))
        return tuple(now - was for now, was in zip(intern_counters(), before))

    assert intern_traffic(bulk_product) == intern_traffic(pair_product)

    bulk_table, pair_table = _input_table(), _input_table()
    results, flags = bulk_product(MaskedOps(bulk_table))
    pairs = pair_product(MaskedOps(pair_table))

    assert results == {result for result, _ in pairs}
    assert flags == {flag for _, flag in pairs}
    assert bulk_table.all_symbols() == pair_table.all_symbols()
    for ident in bulk_table.all_symbols():
        made, expected = bulk_table.info(ident), pair_table.info(ident)
        assert (made.kind, made.provenance) == (expected.kind, expected.provenance)

    valuation = Valuation(bulk_table, dict(enumerate(lams)))
    concretized = {valuation.concretize(result) for result in results}
    for x in xs:
        for y in ys:
            concrete = concrete_op(op_name, valuation.concretize(x),
                                   valuation.concretize(y), WIDTH)
            assert concrete in concretized
