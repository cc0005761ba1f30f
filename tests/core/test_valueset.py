"""Unit tests for the lifted masked symbol domain M♯."""

import pytest

from repro.core.masked import MaskedOps
from repro.core.symbols import SymbolTable
from repro.core.valueset import PrecisionLoss, ValueSet, ValueSetOps

WIDTH = 16


@pytest.fixture()
def table():
    return SymbolTable(width=WIDTH)


@pytest.fixture()
def ops(table):
    return ValueSetOps(MaskedOps(table), cap=16)


class TestConstruction:
    def test_constant(self):
        vs = ValueSet.constant(5, WIDTH)
        assert vs.is_constant
        assert vs.value == 5

    def test_constants_high_data(self):
        vs = ValueSet.constants(range(8), WIDTH)
        assert len(vs) == 8
        assert vs.constant_values() == set(range(8))

    def test_symbol(self, table):
        vs = ValueSet.symbol(table.input_symbol("p"), WIDTH)
        assert vs.is_singleton
        assert vs.has_symbolic
        assert not vs.is_constant

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ValueSet([])

    def test_value_requires_constant(self, table):
        vs = ValueSet.symbol(table.input_symbol("p"), WIDTH)
        with pytest.raises(ValueError):
            _ = vs.value

    def test_constant_values_rejects_symbolic(self, table):
        vs = ValueSet.symbol(table.input_symbol("p"), WIDTH)
        with pytest.raises(ValueError):
            vs.constant_values()


class TestLattice:
    def test_join_unions(self):
        a = ValueSet.constants([1, 2], WIDTH)
        b = ValueSet.constants([2, 3], WIDTH)
        assert a.join(b).constant_values() == {1, 2, 3}

    def test_join_cap(self):
        a = ValueSet.constants(range(10), WIDTH)
        b = ValueSet.constants(range(10, 20), WIDTH)
        with pytest.raises(PrecisionLoss):
            a.join(b, cap=15)

    def test_subsumes(self):
        a = ValueSet.constants([1, 2, 3], WIDTH)
        b = ValueSet.constants([1, 2], WIDTH)
        assert a.subsumes(b)
        assert not b.subsumes(a)


class TestLiftedOps:
    def test_pairwise_product(self, ops):
        """Example 3 flavour: {s, s+64} from a secret-dependent addition."""
        x = ValueSet.constants([0, 64], WIDTH)
        y = ValueSet.constants([100], WIDTH)
        result, _ = ops.add(x, y)
        assert result.constant_values() == {100, 164}

    def test_secret_plus_symbol(self, ops, table):
        pointer = ValueSet.symbol(table.input_symbol("x"), WIDTH)
        secret = ValueSet.constants([0, 64], WIDTH)
        result, _ = ops.add(pointer, secret)
        assert len(result) == 2  # {s, s+64}: leakage bound 1 bit

    def test_cmp_flag_union(self, ops):
        x = ValueSet.constants([0, 1], WIDTH)
        y = ValueSet.constant(1, WIDTH)
        outcomes = {flag.zf for flag in ops.cmp(x, y)}
        assert outcomes == {0, 1}

    def test_cmp_determined(self, ops):
        x = ValueSet.constants([2, 3], WIDTH)
        y = ValueSet.constant(1, WIDTH)
        outcomes = {flag.zf for flag in ops.cmp(x, y)}
        assert outcomes == {0}

    def test_test_instruction(self, ops):
        x = ValueSet.constant(0, WIDTH)
        outcomes = {flag.zf for flag in ops.test(x, x)}
        assert outcomes == {1}

    def test_shift_requires_constant_counts(self, ops, table):
        x = ValueSet.constant(1, WIDTH)
        counts = ValueSet.symbol(table.input_symbol("n"), WIDTH)
        with pytest.raises(ValueError):
            ops.shift("SHL", x, counts)

    def test_shift_set_of_counts(self, ops):
        x = ValueSet.constant(1, WIDTH)
        counts = ValueSet.constants([0, 1, 2], WIDTH)
        result, _ = ops.shift("SHL", x, counts)
        assert result.constant_values() == {1, 2, 4}

    def test_mul_lifted(self, ops):
        x = ValueSet.constants([2, 3], WIDTH)
        y = ValueSet.constant(8, WIDTH)
        result, _ = ops.mul(x, y)
        assert result.constant_values() == {16, 24}

    def test_cap_enforced(self, table):
        ops = ValueSetOps(MaskedOps(table), cap=4)
        x = ValueSet.constants(range(4), WIDTH)
        y = ValueSet.constants([10, 20], WIDTH)
        with pytest.raises(PrecisionLoss):
            ops.add(x, y)

    def test_unary_ops(self, ops):
        x = ValueSet.constants([0, 1], WIDTH)
        noted, _ = ops.not_(x)
        assert noted.constant_values() == {0xFFFF, 0xFFFE}
        negated, _ = ops.neg(x)
        assert negated.constant_values() == {0, 0xFFFF}
