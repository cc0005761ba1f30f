"""Finite sets of masked symbols: the masked symbol domain M♯ (paper §5.1).

An abstract machine word is a finite, non-empty set of masked symbols.  High
(secret) data with known values is a multi-element set of constants (paper
Example 2: ``{1, 2}``); a low-but-unknown heap pointer is a singleton symbol
set ``{s}``; combinations such as ``{1, s}`` are allowed.

Operations are lifted to sets by applying the pairwise transformer of
:class:`~repro.core.masked.MaskedOps` to every element of the product
(§5.4: "the lifting of those operations to sets is obtained by performing the
operations on all pairs").  Set sizes are capped; exceeding the cap raises
:class:`PrecisionLoss` so that the analysis fails loudly rather than silently
returning meaningless bounds.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.core import masked as masked_mod
from repro.core.masked import FlagBits, MaskedOps, MaskedSymbol

__all__ = ["ValueSet", "ValueSetOps", "PrecisionLoss", "DEFAULT_SET_CAP",
           "KEPT_FLAGS", "intern_clear", "intern_counters", "intern_size"]

DEFAULT_SET_CAP = 64

# The flag outcome of a shift by a zero count, which leaves the flags alone.
KEPT_FLAGS = None

# Hash-consing: one canonical ValueSet per element frozenset, carrying a
# precomputed hash (same value as the historical ``hash(self.elements)``) and
# a process-unique small-int ``_id``.  Memo tables and the engine projection
# cache key on ``_id`` instead of re-hashing frozensets; the id counter is
# never reset (stale ids in a long-lived cache can only miss, never collide).
_INTERN: dict = {}
_CONSTANTS: dict = {}
_next_id = 0
_hits = 0
_misses = 0


def intern_clear() -> None:
    """Drop the canonical-instance tables (called per analysis run).

    Also clears the masked-symbol and mask layers beneath, so one call at
    :class:`~repro.analysis.state.AnalysisContext` construction bounds the
    interning memory of a process and makes per-run hit counters a pure
    function of the analyzed scenario.  The ``_id`` counter is *not* reset.
    """
    _INTERN.clear()
    _CONSTANTS.clear()
    masked_mod.intern_clear()


def intern_counters() -> tuple[int, int]:
    """Global (hits, misses) of value-set interning (monotonic)."""
    return _hits, _misses


def intern_size() -> int:
    """Live entries in the canonical-instance table (timeline telemetry)."""
    return len(_INTERN)


class PrecisionLoss(Exception):
    """Raised when a value set grows beyond the configured cap."""


class ValueSet:
    """A non-empty finite set of masked symbols (one abstract machine word)."""

    __slots__ = ("elements", "is_singleton", "is_constant", "_id", "_hash")

    def __new__(cls, elements: Iterable[MaskedSymbol]) -> "ValueSet":
        global _next_id, _hits, _misses
        key = elements if type(elements) is frozenset else frozenset(elements)
        cached = _INTERN.get(key)
        if cached is not None:
            _hits += 1
            return cached
        _misses += 1
        if not key:
            raise ValueError("value set must be non-empty")
        self = object.__new__(cls)
        self.elements = key
        self.is_singleton = len(key) == 1
        self.is_constant = self.is_singleton and next(iter(key)).is_constant
        self._hash = hash(key)
        self._id = _next_id
        _next_id += 1
        _INTERN[key] = self
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: int, width: int) -> "ValueSet":
        """A known low value: singleton constant set."""
        global _hits
        key = (value, width)
        cached = _CONSTANTS.get(key)
        if cached is None:
            cached = cls([MaskedSymbol.constant(value, width)])
            _CONSTANTS[key] = cached
        else:
            _hits += 1
        return cached

    @classmethod
    def constants(cls, values: Iterable[int], width: int) -> "ValueSet":
        """High data with known possible values (paper Example 2)."""
        return cls([MaskedSymbol.constant(v, width) for v in values])

    @classmethod
    def symbol(cls, sym: int, width: int) -> "ValueSet":
        """A low-but-unknown value: singleton symbol set ``{s}``."""
        return cls([MaskedSymbol.symbol(sym, width)])

    # ------------------------------------------------------------------
    # Queries (``is_singleton``/``is_constant`` are precomputed attributes)
    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """The unique concrete value (raises unless :attr:`is_constant`)."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a single constant")
        return next(iter(self.elements)).value

    def constant_values(self) -> set[int]:
        """The concrete values, if every element is a constant."""
        if not all(element.is_constant for element in self.elements):
            raise ValueError(f"{self} contains symbolic elements")
        return {element.value for element in self.elements}

    @property
    def has_symbolic(self) -> bool:
        """True iff any element contains symbolic bits."""
        return any(not element.is_constant for element in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, ValueSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle by value; unpickling re-interns (with a fresh local _id).
        return (ValueSet, (self.elements,))

    def describe(self, table=None) -> str:
        """Human-readable rendering of the set."""
        inner = ", ".join(sorted(e.describe(table) for e in self.elements))
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()

    # ------------------------------------------------------------------
    # Lattice
    # ------------------------------------------------------------------
    def join(self, other: "ValueSet", cap: int = DEFAULT_SET_CAP) -> "ValueSet":
        """Set union (the join of the powerset lattice).

        Zero-copy fast paths: when one side subsumes the other (identity
        being the common case at merge points) the existing canonical object
        is returned instead of materializing the union — the cap is still
        enforced on the result size, exactly as the rebuild would.
        """
        mine = self.elements
        theirs = other.elements
        if other is self or theirs <= mine:
            result, size = self, len(mine)
        elif mine <= theirs:
            result, size = other, len(theirs)
        else:
            union = mine | theirs
            result, size = None, len(union)
        if size > cap:
            raise PrecisionLoss(
                f"value set exceeded cap {cap} during join ({size} elements)"
            )
        return ValueSet(union) if result is None else result

    def subsumes(self, other: "ValueSet") -> bool:
        """True iff ``other ⊆ self`` (used to detect state stabilization)."""
        return other is self or other.elements <= self.elements


class ValueSetOps:
    """Lifting of :class:`MaskedOps` from pairs to sets (paper §5.4).

    Liftings are memoized per ``(operation, operands)`` — keyed by the
    operands' interned ids, so a lookup hashes a couple of ints instead of
    two frozensets of masked symbols.  A symbol denotes the same concrete
    value under any fixed valuation λ wherever it appears, so re-running an
    operation on the same operand sets must produce the same abstract
    result — the memo returns the first run's result (including any fresh
    symbols it allocated) instead of recomputing the pairwise product.
    This is the set-level counterpart of the §5.4.2 succ-table reuse and is
    what keeps repeated loop bodies from recomputing identical products.

    The memo is a plain dict that lives and dies with this object (one per
    :class:`~repro.analysis.state.AnalysisContext`, like the intern tables)
    and never evicts: a recomputed lifting would allocate new fresh symbols
    where the memo returns the first ones, so an eviction could only change
    results.  ``memo_hits`` and ``memo_misses`` count its lookups.

    ``add``, ``sub``, ``mul``, ``and_``, ``or_``, ``not_`` and ``neg`` are
    the liftings themselves, bound once per object, so a lifted operation is
    one Python frame; ``xor`` and ``shift`` are methods.
    """

    def __init__(self, masked_ops: MaskedOps, cap: int = DEFAULT_SET_CAP) -> None:
        self.masked = masked_ops
        self.cap = cap
        self.width = masked_ops.width
        self._memo: dict = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self._shift_ops = {"SHL": masked_ops.shl, "SHR": masked_ops.shr,
                           "SAR": masked_ops.sar}
        self.add = partial(self._lift_binary, "ADD", masked_ops.add)
        self.sub = partial(self._lift_binary, "SUB", masked_ops.sub)
        self.mul = partial(self._lift_binary, "MUL", masked_ops.mul)
        self.and_ = partial(self._lift_boolean, "AND", masked_ops.and_)
        self.or_ = partial(self._lift_boolean, "OR", masked_ops.or_)
        self.not_ = partial(self._lift_unary, "NOT", masked_ops.not_)
        self.neg = partial(self._lift_unary, "NEG", masked_ops.neg)

    def _lift_binary(
        self,
        op_name: str,
        op: Callable[[MaskedSymbol, MaskedSymbol], tuple[MaskedSymbol, FlagBits]],
        x: ValueSet,
        y: ValueSet,
    ) -> tuple[ValueSet, frozenset[FlagBits]]:
        """Lifted ADD/SUB/MUL: ``op`` on every pair of the product."""
        memo_key = (op_name, x._id, y._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        if x.is_singleton and y.is_singleton:
            # Degenerate 1×1 product: no set bookkeeping, no cap checks
            # (a singleton result can never exceed the cap).
            value, flag = op(next(iter(x.elements)), next(iter(y.elements)))
            lifted = self._memo[memo_key] = (ValueSet((value,)),
                                             frozenset((flag,)))
            return lifted
        if len(x) * len(y) > self.cap * self.cap:
            raise PrecisionLoss(
                f"operand product too large: {len(x)} x {len(y)} masked symbols"
            )
        results: set[MaskedSymbol] = set()
        flags: set[FlagBits] = set()
        for element_x in x:
            for element_y in y:
                value, flag = op(element_x, element_y)
                results.add(value)
                flags.add(flag)
        return self._finalize_lift(memo_key, results, flags)

    def _finalize_lift(
        self, memo_key: tuple, results: set, flags: set
    ) -> tuple[ValueSet, frozenset[FlagBits]]:
        """Shared cap-check / canonicalize / memoize tail of every lifting."""
        if len(results) > self.cap:
            raise PrecisionLoss(
                f"value set exceeded cap {self.cap} ({len(results)} elements)"
            )
        lifted = self._memo[memo_key] = (ValueSet(results), frozenset(flags))
        return lifted

    def _lift_unary(
        self,
        op_name: str,
        op: Callable[[MaskedSymbol], tuple[MaskedSymbol, FlagBits]],
        x: ValueSet,
    ) -> tuple[ValueSet, frozenset[FlagBits]]:
        """Lifted NOT/NEG: ``op`` on every element."""
        memo_key = (op_name, x._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        results: set[MaskedSymbol] = set()
        flags: set[FlagBits] = set()
        for element in x:
            value, flag = op(element)
            results.add(value)
            flags.add(flag)
        lifted = self._memo[memo_key] = (ValueSet(results), frozenset(flags))
        return lifted

    def _lift_boolean(
        self,
        op_name: str,
        op: Callable[[MaskedSymbol, MaskedSymbol], tuple[MaskedSymbol, FlagBits]],
        x: ValueSet,
        y: ValueSet,
    ) -> tuple[ValueSet, frozenset[FlagBits]]:
        """Lifted AND/OR through :meth:`MaskedOps.boolean_bulk` (the XOR
        treatment).

        The masking-heavy paths — byte extraction (``movzx``/``movb``/Reg8
        writes), address alignment, and the SETcc merge — all funnel through
        AND/OR; the 1×1 fast path and the memo keys are identical to
        :meth:`_lift_binary`, so counters and results are bit-for-bit
        unchanged.
        """
        memo_key = (op_name, x._id, y._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        if x.is_singleton and y.is_singleton:
            value, flag = op(next(iter(x.elements)), next(iter(y.elements)))
            lifted = self._memo[memo_key] = (ValueSet((value,)),
                                             frozenset((flag,)))
            return lifted
        if len(x) * len(y) > self.cap * self.cap:
            raise PrecisionLoss(
                f"operand product too large: {len(x)} x {len(y)} masked symbols"
            )
        results, flags = self.masked.boolean_bulk(op_name, x.elements, y.elements)
        return self._finalize_lift(memo_key, results, flags)

    # ------------------------------------------------------------------
    # Lifted operations (beside the bound liftings of __init__)
    # ------------------------------------------------------------------
    def xor(self, x: ValueSet, y: ValueSet):
        """Lifted bitwise XOR (bulk-inlined product, same memo/cap rules)."""
        memo_key = ("XOR", x._id, y._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        if len(x) * len(y) > self.cap * self.cap:
            raise PrecisionLoss(
                f"operand product too large: {len(x)} x {len(y)} masked symbols"
            )
        results, flags = self.masked.xor_bulk(x.elements, y.elements)
        return self._finalize_lift(memo_key, results, flags)

    def cmp(self, x: ValueSet, y: ValueSet) -> frozenset[FlagBits]:
        """Lifted comparison: the set of possible flag outcomes."""
        return self.sub(x, y)[1]

    def test(self, x: ValueSet, y: ValueSet) -> frozenset[FlagBits]:
        """x86 TEST: flags of bitwise AND without storing the result."""
        return self.and_(x, y)[1]

    def shift(self, op_name: str, x: ValueSet, amounts: ValueSet):
        """Lifted SHL/SHR/SAR; the shift count must be fully known.

        A zero count leaves the flags as they were (x86), so its flag
        outcome is ``KEPT_FLAGS``: the caller keeps the old flags when it
        is the only outcome, and joins them in when other counts change
        the flags.

        Shares the id-keyed memo and the :meth:`_finalize_lift` tail with
        the binary liftings; the product itself keeps the historical
        iteration order (integer counts outer, shifted operand inner, count
        reduced modulo the width as x86 masks the shift-count register) so
        fresh-symbol allocation order — and with it every downstream count —
        stays bit-identical.
        """
        memo_key = (op_name, amounts._id, x._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        shift_op = self._shift_ops[op_name]
        counts = amounts.constant_values()
        results: set[MaskedSymbol] = set()
        flags: set[FlagBits] = set()
        for count in counts:
            count %= self.width
            for element in x:
                value, flag = shift_op(element, count)
                results.add(value)
                flags.add(flag if count else KEPT_FLAGS)
        return self._finalize_lift(memo_key, results, flags)
