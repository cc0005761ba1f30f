"""Masked symbols and their abstract operations (paper §5).

A masked symbol is a pair ``(s, m)`` of a symbol ``s`` (or ``None`` for a pure
constant) and a mask ``m ∈ {0,1,⊤}^n``.  :class:`MaskedOps` implements the
abstract transformers of §5.4.1 for ``AND``, ``OR``, ``XOR``, ``ADD``, ``SUB``
(plus the shifts and multiplies needed to analyze compiled code), the
origin/offset tracking of §5.4.2, and the flag-value derivation of §5.4.3.

Design notes
------------
- Operations on two fully known constants are computed *exactly*, including
  the CPU flags, using the same bit-level helpers as the concrete simulator.
- The "keep the symbol" side conditions of §5.4.1 are implemented literally:
  a fresh symbol is introduced unless the operation provably acts neutrally
  on every symbolic bit.
- For ``ADD`` with a neutral constant we additionally preserve the operand's
  known bits above the first symbolic position (the paper's Example 6 relies
  on this: adding ``0x3F`` to an aligned pointer stays in the same line).
- Fresh symbols record their provenance so a :class:`~repro.core.symbols.Valuation`
  extends to them, making local soundness (Lemma 1) testable.
"""

from __future__ import annotations

from repro.core.bitvec import (
    add_with_carry,
    low_ones,
    mask_of,
    sign_bit,
    sub_with_borrow,
    to_signed,
    truncate,
)
from repro.core import mask as mask_mod
from repro.core.mask import Mask
from repro.core.symbols import SymbolTable

__all__ = ["MaskedSymbol", "FlagBits", "MaskedOps", "concrete_op",
           "intern_clear", "intern_counters", "intern_size"]

# Hash-consing tables: one canonical MaskedSymbol per (sym, mask), keyed by
# the ints ``(sym, known, value, width)`` so a lookup never runs the Python
# ``Mask.__hash__``, plus a dedicated shortcut for fully known constants (the
# most common lookup on the abstract-transfer hot path).  Hashes are
# computed once per miss and identical to the
# historical frozen-dataclass formula ``hash((sym, mask))`` — frozenset
# iteration orders (and hence fresh-symbol allocation order and every figure
# count) are bit-for-bit unchanged.  Equality keeps a value fallback, so
# clearing the tables between analysis runs is always sound.
_INTERN: dict = {}
_CONSTANTS: dict = {}
_hits = 0
_misses = 0


def intern_clear() -> None:
    """Drop the canonical-instance tables (called per analysis run)."""
    _INTERN.clear()
    _CONSTANTS.clear()
    mask_mod.intern_clear()


def intern_counters() -> tuple[int, int]:
    """Global (hits, misses) of masked-symbol interning (monotonic)."""
    return _hits, _misses


def intern_size() -> int:
    """Live entries in the canonical-instance table (timeline telemetry)."""
    return len(_INTERN)


class MaskedSymbol:
    """A masked symbol ``(s, m)``; ``sym is None`` means a pure constant."""

    __slots__ = ("sym", "mask", "is_constant", "_hash")

    def __new__(cls, sym: int | None = None, mask: Mask | None = None) -> "MaskedSymbol":
        global _hits, _misses
        key = (sym, mask.known, mask.value, mask.width)
        cached = _INTERN.get(key)
        if cached is not None:
            _hits += 1
            return cached
        _misses += 1
        if sym is None and not mask.is_constant:
            raise ValueError("constant masked symbol must have a fully known mask")
        self = object.__new__(cls)
        self.sym = sym
        self.mask = mask
        self.is_constant = mask.is_constant
        self._hash = hash((sym, mask))
        _INTERN[key] = self
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, MaskedSymbol)
            and self.sym == other.sym
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle by value; unpickling re-interns in the receiving process.
        return (MaskedSymbol, (self.sym, self.mask))

    @classmethod
    def constant(cls, value: int, width: int) -> "MaskedSymbol":
        """A fully known bitvector."""
        global _hits
        key = (value, width)
        cached = _CONSTANTS.get(key)
        if cached is None:
            cached = cls(sym=None, mask=Mask.constant(value, width))
            _CONSTANTS[key] = cached
        else:
            _hits += 1
        return cached

    @classmethod
    def symbol(cls, sym: int, width: int) -> "MaskedSymbol":
        """A fully unknown value ``(s, ⊤)``."""
        return cls(sym=sym, mask=Mask.top(width))

    @classmethod
    def fresh_derived(cls, sym: int, mask: Mask) -> "MaskedSymbol":
        """Build a masked symbol around a *freshly allocated* symbol id.

        A fresh id can never already be interned, so the table lookup and
        insertion are skipped — this keeps the intern table free of the
        never-looked-up-again derived results of big pairwise products.  The
        hash is the same formula as interned construction.
        """
        self = object.__new__(cls)
        self.sym = sym
        self.mask = mask
        self.is_constant = mask.is_constant
        self._hash = hash((sym, mask))
        return self

    @property
    def value(self) -> int:
        """The concrete value (only for constants)."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self.mask.value

    @property
    def width(self) -> int:
        """Bit width of the represented word."""
        return self.mask.width

    def describe(self, table: SymbolTable | None = None) -> str:
        """Human-readable rendering, e.g. ``(buf, TTT000)`` or ``0x40``."""
        if self.sym is None:
            return hex(self.mask.value)
        name = table.name(self.sym) if table is not None else f"s{self.sym}"
        return f"({name}, {self.mask})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


_FLAG_INTERN: dict = {}


class FlagBits:
    """Partially known CPU flags produced by one abstract operation.

    Each field is 0, 1, or None (unknown).  The analysis-side flag domain
    (:mod:`repro.analysis.flags`) expands ``None`` into both possibilities.
    Instances are interned (at most 3⁴ distinct values exist), so the hot
    set-insertions of the pairwise lifting hash a cached value and compare
    by identity.
    """

    __slots__ = ("zf", "cf", "sf", "of", "_hash")

    def __new__(cls, zf: int | None = None, cf: int | None = None,
                sf: int | None = None, of: int | None = None) -> "FlagBits":
        key = (zf, cf, sf, of)
        cached = _FLAG_INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.zf = zf
        self.cf = cf
        self.sf = sf
        self.of = of
        self._hash = hash(key)
        _FLAG_INTERN[key] = self
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FlagBits)
            and self.zf == other.zf and self.cf == other.cf
            and self.sf == other.sf and self.of == other.of
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (FlagBits, (self.zf, self.cf, self.sf, self.of))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlagBits(zf={self.zf}, cf={self.cf}, sf={self.sf}, of={self.of})"

    @classmethod
    def exact(cls, result: int, carry: int, overflow: int, width: int) -> "FlagBits":
        """Flags of a concrete arithmetic result."""
        return cls(
            zf=1 if truncate(result, width) == 0 else 0,
            cf=carry,
            sf=sign_bit(result, width),
            of=overflow,
        )


# The nine flag outcomes of a boolean operation (AND, OR, XOR always clear
# CF and OF), by (zf, sf): the bulk products collect plain (zf, sf) tuples,
# which hash in C, and map each distinct one through this table once.
_BOOLEAN_FLAGS = {(zf, sf): FlagBits(zf=zf, cf=0, sf=sf, of=0)
                  for zf in (0, 1, None) for sf in (0, 1, None)}


def concrete_op(op_name: str, a: int, b: int | None, width: int) -> int:
    """Concrete counterpart of every abstract operation.

    Used by :class:`~repro.core.symbols.Valuation` to resolve provenance of
    fresh symbols, and by the soundness tests to cross-check the domain
    against real machine arithmetic.
    """
    if op_name == "AND":
        return truncate(a & b, width)
    if op_name == "OR":
        return truncate(a | b, width)
    if op_name == "XOR":
        return truncate(a ^ b, width)
    if op_name == "ADD":
        return add_with_carry(a, b, 0, width)[0]
    if op_name == "SUB":
        return sub_with_borrow(a, b, 0, width)[0]
    if op_name == "SHL":
        return truncate(a << (b % width), width) if b < width else 0
    if op_name == "SHR":
        return truncate(a, width) >> b if b < width else 0
    if op_name == "SAR":
        shifted = to_signed(a, width) >> min(b, width - 1)
        return truncate(shifted, width)
    if op_name == "MUL":
        return truncate(a * b, width)
    if op_name == "NOT":
        return truncate(~a, width)
    if op_name == "NEG":
        return truncate(-a, width)
    raise ValueError(f"unknown operation {op_name}")


class MaskedOps:
    """Abstract transformers over masked symbols, bound to a symbol table."""

    def __init__(self, table: SymbolTable, track_offsets: bool = True) -> None:
        self.table = table
        self.width = table.width
        self.track_offsets = track_offsets
        self._full = mask_of(self.width)
        self._sign_shift = self.width - 1
        self._dispatch = {
            "AND": self.and_,
            "OR": self.or_,
            "XOR": self.xor,
            "ADD": self.add,
            "SUB": self.sub,
            "MUL": self.mul,
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fresh_result(
        self, op_name: str, x: MaskedSymbol, y: MaskedSymbol | None, mask: Mask
    ) -> MaskedSymbol:
        """Allocate a fresh derived symbol with provenance for the result.

        Appends to the table's provenance columns, the inlined form of
        ``SymbolTable.fresh`` for an anonymous derived symbol.
        """
        table = self.table
        ident = len(table._ops)
        table._ops.append(op_name)
        table._lefts.append(x)
        table._rights.append(y)
        return MaskedSymbol.fresh_derived(ident, mask)

    @staticmethod
    def _zf_from_mask(mask: Mask) -> int | None:
        """ZF is 0 if any known bit of the result is nonzero (§5.4.3)."""
        if mask.is_constant:
            return 1 if mask.value == 0 else 0
        if mask.value != 0:
            return 0
        return None

    def _sf_from_mask(self, mask: Mask) -> int | None:
        shift = self._sign_shift
        if (mask.known >> shift) & 1:
            return (mask.value >> shift) & 1
        return None

    # ------------------------------------------------------------------
    # Boolean operations (§5.4.1)
    # ------------------------------------------------------------------
    def and_(self, x: MaskedSymbol, y: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract bitwise AND."""
        return self._boolean("AND", x, y)

    def or_(self, x: MaskedSymbol, y: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract bitwise OR."""
        return self._boolean("OR", x, y)

    def boolean_bulk(self, op_name: str, x_elements, y_elements) -> tuple[set, set]:
        """The full pairwise AND/OR product, loop-inlined for the set lifting.

        Semantically identical to calling :meth:`and_`/:meth:`or_` on every
        pair in the same (x outer, y inner) order, with the same
        :func:`intern_counters` movement — the per-pair dispatch, the
        constructor frames and repeated mask-attribute loads are hoisted,
        the same moves :meth:`xor_bulk` makes for XOR, and the
        keep-the-symbol side conditions of :meth:`_boolean_symbol` are
        loop-inlined with the neutral-bit masks specialized per direction.
        """
        global _hits
        results: set = set()
        flag_pairs: set = set()
        width = self.width
        full = self._full
        sign_shift = self._sign_shift
        is_and = op_name == "AND"
        # Fresh-symbol allocation inlined as in xor_bulk: identical
        # allocation order and provenance, minus two call frames per
        # allocated pair.
        table = self.table
        ops = table._ops
        add_op = ops.append
        add_left = table._lefts.append
        add_right = table._rights.append
        obj_new = object.__new__
        add_result = results.add
        add_flags = flag_pairs.add
        # Intern lookups inlined: a constructor runs only on a miss.
        find_mask = mask_mod._INTERN.get
        find_symbol = _INTERN.get
        find_constant = _CONSTANTS.get
        hits = 0
        for x in x_elements:
            xm = x.mask
            xk, xv = xm.known, xm.value
            x_sym = x.sym
            x_const = x.is_constant
            for y in y_elements:
                ym = y.mask
                yk, yv = ym.known, ym.value
                if x_const and y.is_constant:
                    known = full
                    value = (xv & yv) if is_and else (xv | yv)
                elif is_and:
                    known = ((xk & yk) | (xk & ~xv) | (yk & ~yv)) & full
                    value = xv & yv
                else:
                    known = ((xk & yk) | (xk & xv) | (yk & yv)) & full
                    value = xv | yv
                if known == full:
                    result = find_constant((value, width))
                    if result is None:
                        result = MaskedSymbol.constant(value, width)
                    else:
                        hits += 1
                    add_result(result)
                    add_flags((1 if value == 0 else 0, (value >> sign_shift) & 1))
                    continue
                mask = find_mask((known, value, width))
                if mask is None:
                    mask = Mask(known, value, width)
                # _boolean_symbol inlined: idempotent same-symbol case,
                # then the keep-the-symbol condition per side.  The
                # "other operand's neutral known bits" are known&value
                # for AND (neutral 1) and known&~value for OR.
                symbolic = ~known & full
                y_sym = y.sym
                if x_sym is not None and (x_sym == y_sym or not (symbolic & (
                        xk | ~(yk & (yv if is_and else ~yv))))):
                    kept = x_sym
                elif y_sym is not None and not (symbolic & (
                        yk | ~(xk & (xv if is_and else ~xv)))):
                    kept = y_sym
                else:
                    kept = None
                if kept is None:
                    ident = len(ops)
                    add_op(op_name)
                    add_left(x)
                    add_right(y)
                    result = obj_new(MaskedSymbol)
                    result.sym = ident
                    result.mask = mask
                    result.is_constant = False
                    result._hash = hash((ident, mask))
                else:
                    result = find_symbol((kept, known, value, width))
                    if result is None:
                        result = MaskedSymbol(kept, mask)
                    else:
                        hits += 1
                add_result(result)
                add_flags((0 if value else None,
                           (value >> sign_shift) & 1
                           if (known >> sign_shift) & 1 else None))
        _hits += hits
        return results, {_BOOLEAN_FLAGS[pair] for pair in flag_pairs}

    def _boolean(
        self, op_name: str, x: MaskedSymbol, y: MaskedSymbol
    ) -> tuple[MaskedSymbol, FlagBits]:
        if x.is_constant and y.is_constant:
            result = concrete_op(op_name, x.value, y.value, self.width)
            return (
                MaskedSymbol.constant(result, self.width),
                FlagBits(zf=1 if result == 0 else 0, cf=0, sf=sign_bit(result, self.width), of=0),
            )

        # Bitwise-parallel evaluation (the per-bit rule of §5.4.1): a result
        # bit is known where both operand bits are known, or where either
        # operand pins it to the absorbing element (0 for AND, 1 for OR) —
        # the Mask invariant (value ⊆ known) makes the value formulas exact.
        full = self._full
        xm, ym = x.mask, y.mask
        xk, xv = xm.known, xm.value
        yk, yv = ym.known, ym.value
        if op_name == "AND":
            neutral = 1
            known = ((xk & yk) | (xk & ~xv) | (yk & ~yv)) & full
            value = xv & yv
        else:
            neutral = 0
            known = ((xk & yk) | (xk & xv) | (yk & yv)) & full
            value = xv | yv
        mask = Mask(known, value, self.width)

        result = self._boolean_symbol(op_name, x, y, mask, neutral)
        flags = FlagBits(zf=self._zf_from_mask(mask), cf=0,
                         sf=self._sf_from_mask(mask), of=0)
        return result, flags

    def _boolean_symbol(
        self, op_name: str, x: MaskedSymbol, y: MaskedSymbol, mask: Mask, neutral: int
    ) -> MaskedSymbol:
        if mask.is_constant:
            return MaskedSymbol.constant(mask.value, self.width)
        # Same symbol on both sides: AND/OR are idempotent bitwise, so every
        # surviving symbolic bit still equals the corresponding bit of λ(s).
        if x.sym is not None and x.sym == y.sym:
            return MaskedSymbol(sym=x.sym, mask=mask)
        # Keep a symbol when every bit that stays symbolic in the result is
        # that operand's symbolic bit combined with a *neutral* known bit of
        # the other operand (absorbed positions are known in the result, so
        # they impose no constraint).  This is what makes the paper's
        # Example 6 work: AND 0xFFFFFFC0 keeps the symbol.
        symbolic = ~mask.known & self._full
        for sym_side, other in ((x, y), (y, x)):
            if sym_side.sym is None:
                continue
            other_mask = other.mask
            other_neutral = other_mask.known & (
                other_mask.value if neutral else ~other_mask.value
            )
            if not (symbolic & (sym_side.mask.known | ~other_neutral)):
                return MaskedSymbol(sym=sym_side.sym, mask=mask)
        return self._fresh_result(op_name, x, y, mask)

    def xor_bulk(self, x_elements, y_elements) -> tuple[set, set]:
        """The full pairwise XOR product, loop-inlined for the set lifting.

        Semantically identical to calling :meth:`xor` on every pair in the
        same (x outer, y inner) order, with the same :func:`intern_counters`
        movement — the per-pair call overhead, the constructor frames and
        repeated attribute loads are what this path removes; big symbolic
        products (modexp's masked limb merges) are the hottest loop of the
        whole analysis.  A symbolic pair whose mask (and kept symbol) is
        interned runs two Python frames, the ``Mask`` and ``MaskedSymbol``
        hashes: the mask, a kept symbol and a constant are intern-table
        lookups (a constructor runs only on a miss), and the flags are
        ``(zf, sf)`` tuples mapped through ``_BOOLEAN_FLAGS`` once per
        product.
        """
        global _hits
        results: set = set()
        flag_pairs: set = set()
        width = self.width
        full = self._full
        sign_shift = self._sign_shift
        # Fresh-symbol allocation inlined (the _fresh_result/fresh_derived
        # call chain, with identical allocation order and provenance): big
        # symbolic products allocate one derived symbol per pair, so the
        # two call frames per allocation are pure overhead.
        table = self.table
        ops = table._ops
        add_op = ops.append
        add_left = table._lefts.append
        add_right = table._rights.append
        obj_new = object.__new__
        add_result = results.add
        add_flags = flag_pairs.add
        find_mask = mask_mod._INTERN.get
        find_symbol = _INTERN.get
        find_constant = _CONSTANTS.get
        hits = 0
        for x in x_elements:
            xm = x.mask
            xk, xv = xm.known, xm.value
            x_sym = x.sym
            x_const = x.is_constant
            for y in y_elements:
                ym = y.mask
                yv = ym.value
                if x_const and y.is_constant:
                    known = full
                    value = xv ^ yv
                else:
                    yk = ym.known
                    y_sym = y.sym
                    known = xk & yk
                    if x_sym is not None and x_sym == y_sym:
                        known |= ~xk & ~yk & full
                    value = (xv ^ yv) & known
                if known == full:
                    result = find_constant((value, width))
                    if result is None:
                        result = MaskedSymbol.constant(value, width)
                    else:
                        hits += 1
                    add_result(result)
                    add_flags((1 if value == 0 else 0, (value >> sign_shift) & 1))
                    continue
                mask = find_mask((known, value, width))
                if mask is None:
                    mask = Mask(known, value, width)
                symbolic = ~known & full
                if x_sym is not None and not (symbolic & (xk | ~(yk & ~yv))):
                    kept = x_sym
                elif y_sym is not None and not (symbolic & (yk | ~(xk & ~xv))):
                    kept = y_sym
                else:
                    kept = None
                if kept is None:
                    ident = len(ops)
                    add_op("XOR")
                    add_left(x)
                    add_right(y)
                    result = obj_new(MaskedSymbol)
                    result.sym = ident
                    result.mask = mask
                    result.is_constant = False
                    result._hash = hash((ident, mask))
                else:
                    result = find_symbol((kept, known, value, width))
                    if result is None:
                        result = MaskedSymbol(kept, mask)
                    else:
                        hits += 1
                add_result(result)
                add_flags((0 if value else None,
                           (value >> sign_shift) & 1
                           if (known >> sign_shift) & 1 else None))
        _hits += hits
        return results, {_BOOLEAN_FLAGS[pair] for pair in flag_pairs}

    def xor(self, x: MaskedSymbol, y: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract bitwise XOR (§5.4.1)."""
        if x.is_constant and y.is_constant:
            result = concrete_op("XOR", x.value, y.value, self.width)
            return (
                MaskedSymbol.constant(result, self.width),
                FlagBits(zf=1 if result == 0 else 0, cf=0, sf=sign_bit(result, self.width), of=0),
            )
        full = self._full
        xm, ym = x.mask, y.mask
        xk, xv = xm.known, xm.value
        yk, yv = ym.known, ym.value
        x_sym, y_sym = x.sym, y.sym
        known = xk & yk
        if x_sym is not None and x_sym == y_sym:
            # λ(s)_i ⊕ λ(s)_i = 0 on positions symbolic in both operands.
            known |= ~xk & ~yk & full
        value = (xv ^ yv) & known
        mask = Mask(known, value, self.width)

        if mask.is_constant:
            result = MaskedSymbol.constant(value, self.width)
        else:
            # Keep-the-symbol side conditions with neutral = 0 (XOR), the
            # inlined form of the `_boolean_symbol` loop.
            symbolic = ~known & full
            if x_sym is not None and not (symbolic & (xk | ~(yk & ~yv))):
                result = MaskedSymbol(sym=x_sym, mask=mask)
            elif y_sym is not None and not (symbolic & (yk | ~(xk & ~xv))):
                result = MaskedSymbol(sym=y_sym, mask=mask)
            else:
                result = self._fresh_result("XOR", x, y, mask)
        flags = FlagBits(zf=self._zf_from_mask(mask), cf=0,
                        sf=self._sf_from_mask(mask), of=0)
        return result, flags

    def not_(self, x: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract bitwise NOT (x86 NOT does not affect flags)."""
        if x.is_constant:
            return MaskedSymbol.constant(concrete_op("NOT", x.value, None, self.width), self.width), FlagBits()
        known = x.mask.known
        value = (~x.mask.value) & known
        mask = Mask(known=known, value=value, width=self.width)
        return self._fresh_result("NOT", x, None, mask), FlagBits()

    # ------------------------------------------------------------------
    # Addition and subtraction (§5.4.1 + §5.4.2)
    # ------------------------------------------------------------------
    def add(self, x: MaskedSymbol, y: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract ADD with carry-exact known prefix and offset tracking."""
        if x.is_constant and y.is_constant:
            result, carry, overflow = add_with_carry(x.value, y.value, 0, self.width)
            return MaskedSymbol.constant(result, self.width), FlagBits.exact(result, carry, overflow, self.width)
        # Normalize: symbolic operand first, constant second when possible.
        if x.is_constant and not y.is_constant:
            x, y = y, x
        if y.is_constant:
            return self._add_symbol_constant(x, y)
        # Both contain symbolic bits: compute the known prefix, top the rest.
        mask = self._add_mask(x.mask, y.mask)[0]
        result = self._fresh_result("ADD", x, y, mask)
        return result, FlagBits(zf=self._zf_from_mask(mask), sf=self._sf_from_mask(mask))

    def _add_mask(self, xm: Mask, ym: Mask) -> tuple[Mask, int | None, bool]:
        """Bitwise-parallel ADD on masks (three-valued ripple carry).

        Returns ``(mask, carry_at_stop, neutral_suffix_possible)`` where
        ``carry_at_stop`` is the carry into the first symbolic position (or
        None if the whole word was known).

        A result bit is known where both operand bits *and* the incoming
        carry are known.  The carry into a position is pinned by comparing
        the two extreme sums — every symbolic bit taken as 0 (the Mask
        invariant ``value ⊆ known`` makes that the minimum) versus taken as
        1: where a known-zero ripple and a known-one ripple agree, the carry
        cannot depend on the symbolic choices below.  This is what keeps
        ``table + (unknown & 0x3C)`` inside its cache line: the symbolic
        window spans bits 2..5 of an aligned base, no carry can leave it,
        and every bit from 6 up stays known.
        """
        width_mask = mask_of(self.width)
        both_known = xm.known & ym.known
        unknown = ~both_known & width_mask
        if unknown == 0:
            # Fully known: plain addition, final carry discarded.
            value = (xm.value + ym.value) & width_mask
            return Mask.constant(value, self.width), None, False
        prefix = (unknown & -unknown).bit_length() - 1  # first symbolic bit
        low = low_ones(prefix)
        stop_carry = ((xm.value & low) + (ym.value & low)) >> prefix
        min_sum = (xm.value + ym.value) & width_mask
        max_sum = ((xm.value | (~xm.known & width_mask))
                   + (ym.value | (~ym.known & width_mask))) & width_mask
        zero_x = xm.known & ~xm.value
        zero_y = ym.known & ~ym.value
        carry_known = ((~(max_sum ^ zero_x ^ zero_y)
                        | (min_sum ^ xm.value ^ ym.value)) & width_mask)
        known = both_known & carry_known
        mask = Mask(known=known, value=min_sum & known, width=self.width)
        return mask, stop_carry, stop_carry == 0

    def _add_symbol_constant(
        self, x: MaskedSymbol, c: MaskedSymbol
    ) -> tuple[MaskedSymbol, FlagBits]:
        """ADD of a symbolic operand and a constant, with succ-table reuse."""
        offset_delta = to_signed(c.value, self.width)
        origin, base_offset = self.table.origin_offset(x)
        new_offset = base_offset + offset_delta
        if self.track_offsets:
            if self.table.successor(origin, base_offset) is None:
                self.table.register_successor(origin, base_offset, x)
            memo = self.table.successor(origin, new_offset)
            if memo is not None:
                # §5.4.2 case 1: reuse the memoized masked symbol.
                return memo, FlagBits(zf=self._zf_from_mask(memo.mask),
                                      sf=self._sf_from_mask(memo.mask))

        prefix_mask, stop_carry, _ = self._add_mask(x.mask, c.mask)
        first_symbolic = prefix_mask.known_prefix_length()
        keep_symbol = stop_carry == 0 and (c.value >> first_symbolic) == 0
        if keep_symbol:
            # Neutral constant: bits at and above the first symbolic position
            # are untouched, so the operand's mask survives there.
            high = ~low_ones(first_symbolic) & mask_of(self.width)
            mask = Mask(
                known=(prefix_mask.known & low_ones(first_symbolic)) | (x.mask.known & high),
                value=(prefix_mask.value & low_ones(first_symbolic)) | (x.mask.value & high),
                width=self.width,
            )
            result = MaskedSymbol(sym=x.sym, mask=mask)
            flags = FlagBits(zf=self._zf_from_mask(mask), cf=0, sf=self._sf_from_mask(mask))
        else:
            result = self._fresh_result("ADD", x, c, prefix_mask)
            flags = FlagBits(zf=self._zf_from_mask(prefix_mask), sf=self._sf_from_mask(prefix_mask))

        if self.track_offsets:
            self.table.register_origin(result, origin, new_offset)
            self.table.register_successor(origin, new_offset, result)
        return result, flags

    def sub(self, x: MaskedSymbol, y: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract SUB; CMP uses the same flag derivation (§5.4.3)."""
        if x.is_constant and y.is_constant:
            result, borrow, overflow = sub_with_borrow(x.value, y.value, 0, self.width)
            return MaskedSymbol.constant(result, self.width), FlagBits.exact(result, borrow, overflow, self.width)

        # Identical masked symbols: difference is exactly zero.
        if x.sym is not None and x.sym == y.sym and x.mask == y.mask:
            zero = MaskedSymbol.constant(0, self.width)
            return zero, FlagBits(zf=1, cf=0, sf=0, of=0)

        # Same origin: the difference of the offsets is exact under the
        # no-pointer-wrap assumption (§5.4.2/§5.4.3).
        if (
            self.track_offsets
            and x.sym is not None
            and y.sym is not None
            and self.table.same_origin(x, y)
        ):
            delta = self.table.origin_offset(x)[1] - self.table.origin_offset(y)[1]
            result = MaskedSymbol.constant(truncate(delta, self.width), self.width)
            flags = FlagBits(
                zf=1 if delta == 0 else 0,
                cf=1 if delta < 0 else 0,
                sf=1 if delta < 0 else 0,
                of=0,
            )
            return result, flags

        # Subtracting a constant: reuse the ADD machinery with the negation,
        # which keeps offsets consistent (offset decreases).
        if y.is_constant and x.sym is not None:
            negated = MaskedSymbol.constant(truncate(-y.value, self.width), self.width)
            result, _ = self._add_symbol_constant(x, negated)
            return result, FlagBits(zf=self._zf_from_mask(result.mask),
                                    sf=self._sf_from_mask(result.mask))

        # General case: borrow-exact known prefix; with coinciding symbols the
        # paper's rule zeroes positions where both bits are symbolic, which is
        # sound exactly while the incoming borrow is known to be zero.
        same_symbol = x.sym is not None and x.sym == y.sym
        known = 0
        value = 0
        borrow = 0
        for i in range(self.width):
            xb, yb = x.mask.bit_at(i), y.mask.bit_at(i)
            if xb is None and yb is None and same_symbol and borrow == 0:
                known |= 1 << i  # λ(s)_i - λ(s)_i - 0 = 0, no borrow out
                continue
            if xb is None or yb is None:
                break
            total = xb - yb - borrow
            value |= (total & 1) << i
            known |= 1 << i
            borrow = 1 if total < 0 else 0
        mask = Mask(known=known, value=value, width=self.width)
        if mask.is_constant:
            result = MaskedSymbol.constant(mask.value, self.width)
            return result, FlagBits(zf=1 if mask.value == 0 else 0, cf=borrow,
                                    sf=sign_bit(mask.value, self.width))
        result = self._fresh_result("SUB", x, y, mask)
        return result, FlagBits(zf=self._zf_from_mask(mask), sf=self._sf_from_mask(mask))

    def cmp(self, x: MaskedSymbol, y: MaskedSymbol) -> FlagBits:
        """CMP: SUB flags without the result."""
        return self.sub(x, y)[1]

    def neg(self, x: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Two's complement negation (0 - x)."""
        zero = MaskedSymbol.constant(0, self.width)
        result, flags = self.sub(zero, x)
        if x.is_constant:
            # x86 NEG sets CF iff the operand was nonzero.
            return result, FlagBits(zf=flags.zf, cf=0 if x.value == 0 else 1,
                                    sf=flags.sf, of=flags.of)
        return result, flags

    # ------------------------------------------------------------------
    # Shifts and multiplication
    # ------------------------------------------------------------------
    def shl(self, x: MaskedSymbol, amount: int) -> tuple[MaskedSymbol, FlagBits]:
        """Left shift by a known amount; known bits stay known.

        Callers are expected to reduce the shift count modulo the width
        beforehand (x86 masks the count register to 5 bits for 32-bit words).
        """
        if amount >= self.width:
            return MaskedSymbol.constant(0, self.width), FlagBits(zf=1, sf=0)
        if x.is_constant:
            result = concrete_op("SHL", x.value, amount, self.width)
            return MaskedSymbol.constant(result, self.width), FlagBits(
                zf=1 if result == 0 else 0, sf=sign_bit(result, self.width))
        if amount == 0:
            return x, FlagBits(zf=self._zf_from_mask(x.mask), sf=self._sf_from_mask(x.mask))
        known = truncate(x.mask.known << amount, self.width) | low_ones(amount)
        value = truncate(x.mask.value << amount, self.width)
        mask = Mask(known=known, value=value, width=self.width)
        amount_const = MaskedSymbol.constant(amount, self.width)
        result = self._fresh_result("SHL", x, amount_const, mask)
        return result, FlagBits(zf=self._zf_from_mask(mask), sf=self._sf_from_mask(mask))

    def shr(self, x: MaskedSymbol, amount: int) -> tuple[MaskedSymbol, FlagBits]:
        """Logical right shift by a known amount."""
        if x.is_constant:
            result = concrete_op("SHR", x.value, amount, self.width)
            return MaskedSymbol.constant(result, self.width), FlagBits(
                zf=1 if result == 0 else 0, sf=0)
        if amount == 0:
            return x, FlagBits(zf=self._zf_from_mask(x.mask), sf=self._sf_from_mask(x.mask))
        if amount >= self.width:
            return MaskedSymbol.constant(0, self.width), FlagBits(zf=1, sf=0)
        high_known = (~low_ones(self.width - amount)) & mask_of(self.width)
        known = (x.mask.known >> amount) | high_known
        value = x.mask.value >> amount
        mask = Mask(known=known, value=value, width=self.width)
        amount_const = MaskedSymbol.constant(amount, self.width)
        result = self._fresh_result("SHR", x, amount_const, mask)
        return result, FlagBits(zf=self._zf_from_mask(mask), sf=self._sf_from_mask(mask))

    def sar(self, x: MaskedSymbol, amount: int) -> tuple[MaskedSymbol, FlagBits]:
        """Arithmetic right shift by a known amount."""
        if x.is_constant:
            result = concrete_op("SAR", x.value, amount, self.width)
            return MaskedSymbol.constant(result, self.width), FlagBits(
                zf=1 if result == 0 else 0, sf=sign_bit(result, self.width))
        if amount == 0:
            return x, FlagBits(zf=self._zf_from_mask(x.mask), sf=self._sf_from_mask(x.mask))
        amount = min(amount, self.width - 1)
        sign = x.mask.bit_at(self.width - 1)
        known = x.mask.known >> amount
        value = x.mask.value >> amount
        if sign is not None:
            high = (~low_ones(self.width - amount)) & mask_of(self.width)
            known |= high
            if sign:
                value |= high
        mask = Mask(known=known, value=value, width=self.width)
        amount_const = MaskedSymbol.constant(amount, self.width)
        result = self._fresh_result("SAR", x, amount_const, mask)
        return result, FlagBits(zf=self._zf_from_mask(mask), sf=self._sf_from_mask(mask))

    def mul(self, x: MaskedSymbol, y: MaskedSymbol) -> tuple[MaskedSymbol, FlagBits]:
        """Abstract multiply: exact on constants, power-of-two via SHL."""
        if x.is_constant and y.is_constant:
            result = concrete_op("MUL", x.value, y.value, self.width)
            return MaskedSymbol.constant(result, self.width), FlagBits(
                zf=1 if result == 0 else 0, sf=sign_bit(result, self.width))
        for sym_side, const_side in ((x, y), (y, x)):
            if const_side.is_constant and const_side.value != 0:
                value = const_side.value
                if value & (value - 1) == 0:  # power of two
                    return self.shl(sym_side, value.bit_length() - 1)
        for sym_side, const_side in ((x, y), (y, x)):
            if const_side.is_constant and const_side.value == 0:
                return MaskedSymbol.constant(0, self.width), FlagBits(zf=1, sf=0)
        # Known low prefixes multiply exactly up to the shorter prefix.
        prefix = min(x.mask.known_prefix_length(), y.mask.known_prefix_length())
        if prefix > 0:
            low = truncate(
                x.mask.low_bits_value(prefix) * y.mask.low_bits_value(prefix),
                self.width,
            ) & low_ones(prefix)
            mask = Mask(known=low_ones(prefix), value=low, width=self.width)
        else:
            mask = Mask.top(self.width)
        result = self._fresh_result("MUL", x, y, mask)
        return result, FlagBits(zf=self._zf_from_mask(mask))

    # ------------------------------------------------------------------
    # Dispatch used by the transfer function
    # ------------------------------------------------------------------
    def apply(self, op_name: str, x: MaskedSymbol, y: MaskedSymbol | None):
        """Apply an operation by name (used by the abstract transfer function)."""
        binary = self._dispatch.get(op_name)
        if binary is not None:
            return binary(x, y)
        if op_name == "NOT":
            return self.not_(x)
        if op_name == "NEG":
            return self.neg(x)
        raise ValueError(f"unknown operation {op_name}")
