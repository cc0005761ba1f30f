"""Hash-consing layer: interned construction must be observationally
equivalent to fresh construction.

The abstract domain interns masks, masked symbols, and value sets per value
key.  Correctness never depends on the sharing: equality keeps a value
fallback, hashes equal the historical dataclass formulas (so frozenset
iteration orders — and with them fresh-symbol allocation order and every
figure count — are unchanged), and clearing the tables mid-flight only
loses sharing.  These properties are what make the per-run table clear in
``AnalysisContext`` sound, and they are exercised here directly, with
hypothesis driving the mask shapes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import masked as masked_mod
from repro.core import valueset as valueset_mod
from repro.core.mask import Mask
from repro.core.masked import FlagBits, MaskedOps, MaskedSymbol
from repro.core.symbols import SymbolTable
from repro.core.valueset import PrecisionLoss, ValueSet, ValueSetOps

WIDTH = 32
FULL = (1 << WIDTH) - 1


def masks(width=WIDTH):
    """Random well-formed masks: value bits only on known positions."""
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << width) - 1),
        st.integers(min_value=0, max_value=(1 << width) - 1),
    ).map(lambda pair: Mask(known=pair[0], value=pair[1] & pair[0],
                            width=width))


def masked_symbols():
    constants = st.integers(min_value=0, max_value=FULL).map(
        lambda value: MaskedSymbol.constant(value, WIDTH))
    symbolic = st.tuples(st.integers(min_value=0, max_value=7), masks()).map(
        lambda pair: MaskedSymbol(sym=pair[0], mask=pair[1]))
    return st.one_of(constants, symbolic)


class TestMaskInterning:
    @given(masks())
    @settings(max_examples=200)
    def test_construction_is_canonical(self, mask):
        again = Mask(known=mask.known, value=mask.value, width=mask.width)
        assert again is mask

    @given(masks())
    @settings(max_examples=200)
    def test_equivalent_after_clear(self, mask):
        """A post-clear rebuild is a distinct but indistinguishable object."""
        valueset_mod.intern_clear()
        rebuilt = Mask(known=mask.known, value=mask.value, width=mask.width)
        assert rebuilt is not mask  # sharing was lost...
        assert rebuilt == mask      # ...observably nothing else
        assert hash(rebuilt) == hash(mask)
        assert mask in {rebuilt} and rebuilt in {mask}

    @given(masks())
    @settings(max_examples=200)
    def test_hash_matches_dataclass_formula(self, mask):
        """The precomputed hash is the historical field-tuple hash, which is
        what keeps frozenset iteration orders (and therefore fresh-symbol
        allocation order in set products) bit-identical to the seed."""
        assert hash(mask) == hash((mask.known, mask.value, mask.width))

    def test_validation_still_enforced(self):
        import pytest
        with pytest.raises(ValueError):
            Mask(known=0, value=1, width=WIDTH)
        with pytest.raises(ValueError):
            Mask(known=1 << WIDTH, value=0, width=WIDTH)


class TestMaskedSymbolInterning:
    @given(st.integers(min_value=0, max_value=31), masks())
    @settings(max_examples=200)
    def test_construction_is_canonical(self, sym, mask):
        first = MaskedSymbol(sym=sym, mask=mask)
        assert MaskedSymbol(sym=sym, mask=mask) is first
        assert hash(first) == hash((sym, mask))

    @given(st.integers(min_value=0, max_value=FULL))
    @settings(max_examples=100)
    def test_constants_canonical_and_equivalent_after_clear(self, value):
        first = MaskedSymbol.constant(value, WIDTH)
        assert MaskedSymbol.constant(value, WIDTH) is first
        valueset_mod.intern_clear()
        rebuilt = MaskedSymbol.constant(value, WIDTH)
        assert rebuilt == first and hash(rebuilt) == hash(first)
        assert len({first, rebuilt}) == 1

    def test_fresh_derived_skips_the_table(self):
        """fresh_derived builds around a brand-new symbol id without an
        intern probe, but hashes/compares exactly like normal construction."""
        mask = Mask.top(WIDTH)
        fresh = MaskedSymbol.fresh_derived(12345, mask)
        interned = MaskedSymbol(sym=12345, mask=mask)
        assert fresh == interned and hash(fresh) == hash(interned)
        assert len({fresh, interned}) == 1

    def test_flagbits_interned(self):
        assert FlagBits(zf=1, cf=0) is FlagBits(zf=1, cf=0)
        assert FlagBits() is FlagBits(zf=None, cf=None, sf=None, of=None)
        assert hash(FlagBits(zf=1)) == hash((1, None, None, None))


class TestValueSetInterning:
    @given(st.lists(masked_symbols(), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_element_order_blind_canonicalization(self, elements):
        forward = ValueSet(elements)
        backward = ValueSet(list(reversed(elements)))
        assert forward is backward
        assert forward._id == backward._id
        assert hash(forward) == hash(frozenset(elements))

    @given(st.lists(masked_symbols(), min_size=1, max_size=5),
           st.lists(masked_symbols(), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_join_equals_rebuilt_union(self, left, right):
        a, b = ValueSet(left), ValueSet(right)
        joined = a.join(b, cap=64)
        assert joined.elements == a.elements | b.elements
        # The fast path may return an existing object; the result must be
        # the canonical set for the union either way.
        assert joined is ValueSet(a.elements | b.elements)

    @given(st.lists(masked_symbols(), min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_join_subset_fast_path_returns_superset(self, elements):
        whole = ValueSet(elements)
        part = ValueSet(list(elements)[:1])
        assert whole.join(part, cap=64) is whole
        assert part.join(whole, cap=64) is whole
        assert whole.subsumes(part) and whole.subsumes(whole)

    def test_join_cap_enforced_even_on_subset_fast_path(self):
        whole = ValueSet.constants(range(8), WIDTH)
        part = ValueSet.constants(range(2), WIDTH)
        import pytest
        with pytest.raises(PrecisionLoss):
            whole.join(part, cap=4)
        with pytest.raises(PrecisionLoss):
            whole.join(whole, cap=4)

    @given(st.lists(st.integers(min_value=0, max_value=FULL),
                    min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_equivalent_after_clear(self, values):
        first = ValueSet.constants(values, WIDTH)
        valueset_mod.intern_clear()
        rebuilt = ValueSet.constants(values, WIDTH)
        assert rebuilt == first and hash(rebuilt) == hash(first)
        assert rebuilt._id != first._id  # ids are never reused


class TestLiftedOpEquivalence:
    """Interned and post-clear operands produce equal lifted results."""

    @given(st.lists(st.integers(min_value=0, max_value=FULL),
                    min_size=1, max_size=4),
           st.lists(st.integers(min_value=0, max_value=FULL),
                    min_size=1, max_size=4),
           st.sampled_from(["and_", "or_", "xor", "add", "sub", "mul"]))
    @settings(max_examples=60)
    def test_binary_ops_value_equal_across_intern_generations(
            self, xs, ys, op_name):
        def run():
            ops = ValueSetOps(MaskedOps(SymbolTable(width=WIDTH)), cap=64)
            result, flags = getattr(ops, op_name)(
                ValueSet.constants(xs, WIDTH), ValueSet.constants(ys, WIDTH))
            return result.constant_values(), flags

        first_values, first_flags = run()
        valueset_mod.intern_clear()
        second_values, second_flags = run()
        assert first_values == second_values
        assert first_flags == second_flags

    def test_unary_lift_memoized(self):
        ops = ValueSetOps(MaskedOps(SymbolTable(width=WIDTH)), cap=64)
        operand = ValueSet.constants([1, 2, 3], WIDTH)
        first = ops.not_(operand)
        hits_before = ops.memo_hits
        assert ops.not_(operand) is first
        assert ops.memo_hits == hits_before + 1
        # NEG on the same operand is a distinct memo entry.
        assert ops.neg(operand) is not first

    def test_shift_lift_shares_id_keyed_memo(self):
        ops = ValueSetOps(MaskedOps(SymbolTable(width=WIDTH)), cap=64)
        operand = ValueSet.constants([4, 8], WIDTH)
        amounts = ValueSet.constant(2, WIDTH)
        first = ops.shift("SHR", operand, amounts)
        hits_before = ops.memo_hits
        assert ops.shift("SHR", operand, amounts) is first
        assert ops.memo_hits == hits_before + 1
        assert first[0].constant_values() == {1, 2}

    def test_shift_rejects_symbolic_amounts(self):
        import pytest
        table = SymbolTable(width=WIDTH)
        ops = ValueSetOps(MaskedOps(table), cap=64)
        symbolic = ValueSet.symbol(table.input_symbol("count"), WIDTH)
        with pytest.raises(ValueError):
            ops.shift("SHL", ValueSet.constant(1, WIDTH), symbolic)

    def test_xor_bulk_matches_pairwise_xor(self):
        """The inlined XOR product path agrees with the per-pair transformer
        on results and flag outcomes for mixed constant/symbolic sets."""
        table = SymbolTable(width=WIDTH)
        masked_ops = MaskedOps(table)
        x_elements = [
            MaskedSymbol.constant(0x0F, WIDTH),
            MaskedSymbol(sym=table.input_symbol("a"),
                         mask=Mask.from_string("T" * 24 + "0" * 8)),
        ]
        y_elements = [
            MaskedSymbol.constant(0xF0, WIDTH),
            MaskedSymbol(sym=table.input_symbol("b"), mask=Mask.top(WIDTH)),
        ]
        results, flags = masked_ops.xor_bulk(x_elements, y_elements)
        assert len(results) == 4
        constants = {r.value for r in results if r.is_constant}
        assert constants == {0xFF}
        # Flags of the concrete pair are exact; symbolic pairs leave zf open.
        assert FlagBits(zf=0, cf=0, sf=0, of=0) in flags


class TestPickling:
    """Interned objects pickle by value and re-intern on load."""

    @given(masked_symbols())
    @settings(max_examples=50)
    def test_masked_symbol_roundtrip(self, element):
        import pickle
        clone = pickle.loads(pickle.dumps(element))
        assert clone == element and hash(clone) == hash(element)
        assert clone is element  # re-interned to the canonical instance

    def test_valueset_and_flags_roundtrip(self):
        import pickle
        values = ValueSet.constants([1, 2, 3], WIDTH)
        clone = pickle.loads(pickle.dumps(values))
        assert clone is values
        flags = FlagBits(zf=1, cf=0)
        assert pickle.loads(pickle.dumps(flags)) is flags


class TestInternCounters:
    def test_counters_monotonic_and_clear_preserves_them(self):
        hits_before, misses_before = valueset_mod.intern_counters()
        ValueSet.constants([11, 22, 33], WIDTH)
        ValueSet.constants([11, 22, 33], WIDTH)
        hits_after, misses_after = valueset_mod.intern_counters()
        assert hits_after > hits_before
        assert misses_after >= misses_before
        valueset_mod.intern_clear()
        assert valueset_mod.intern_counters() == (hits_after, misses_after)
        assert masked_mod.intern_counters()[1] >= 0
