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

from typing import Callable, Iterable

from repro.core import masked as masked_mod
from repro.core.lru import LRUCache
from repro.core.masked import FlagBits, MaskedOps, MaskedSymbol

__all__ = ["ValueSet", "ValueSetOps", "PrecisionLoss", "DEFAULT_SET_CAP",
           "LIFT_MEMO_CAP", "intern_clear", "intern_counters", "intern_size"]

DEFAULT_SET_CAP = 64

# Cap of the per-context lifting memo.  Sized an order of magnitude above the
# distinct-lifting count of the heaviest catalogue scenario, so in practice
# nothing evicts (the memo exists for sharing, the bound for long-lived
# embedding processes); evictions are surfaced as ``lift_memo_evictions``.
LIFT_MEMO_CAP = 1 << 18

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
    """

    def __init__(self, masked_ops: MaskedOps, cap: int = DEFAULT_SET_CAP) -> None:
        self.masked = masked_ops
        self.cap = cap
        self.width = masked_ops.width
        self._memo: LRUCache = LRUCache(LIFT_MEMO_CAP)
        self._dispatch = {
            "AND": self.and_, "OR": self.or_, "XOR": self.xor,
            "ADD": self.add, "SUB": self.sub, "MUL": self.mul,
        }

    # Memo counters live on the LRU (its get/put increments them); the
    # historical attribute names stay as read-only views.
    @property
    def memo_hits(self) -> int:
        return self._memo.hits

    @property
    def memo_misses(self) -> int:
        return self._memo.misses

    @property
    def memo_evictions(self) -> int:
        return self._memo.evictions

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of lifted operations answered from the memo."""
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    def _lift_binary(
        self,
        op_name: str,
        op: Callable[[MaskedSymbol, MaskedSymbol], tuple[MaskedSymbol, FlagBits]],
        x: ValueSet,
        y: ValueSet,
    ) -> tuple[ValueSet, frozenset[FlagBits]]:
        memo_key = (op_name, x._id, y._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        if x.is_singleton and y.is_singleton:
            # Degenerate 1×1 product: no set bookkeeping, no cap checks
            # (a singleton result can never exceed the cap).
            value, flag = op(next(iter(x.elements)), next(iter(y.elements)))
            lifted = (ValueSet((value,)), frozenset((flag,)))
            self._memo.put(memo_key, lifted)
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
        lifted = (ValueSet(results), frozenset(flags))
        self._memo.put(memo_key, lifted)
        return lifted

    def _lift_unary(
        self,
        op_name: str,
        op: Callable[[MaskedSymbol], tuple[MaskedSymbol, FlagBits]],
        x: ValueSet,
    ) -> tuple[ValueSet, frozenset[FlagBits]]:
        memo_key = (op_name, x._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        results: set[MaskedSymbol] = set()
        flags: set[FlagBits] = set()
        for element in x:
            value, flag = op(element)
            results.add(value)
            flags.add(flag)
        lifted = (ValueSet(results), frozenset(flags))
        self._memo.put(memo_key, lifted)
        return lifted

    # ------------------------------------------------------------------
    # Lifted operations
    # ------------------------------------------------------------------
    def and_(self, x: ValueSet, y: ValueSet):
        """Lifted bitwise AND (bulk-inlined product, same memo/cap rules)."""
        return self._lift_boolean("AND", x, y)

    def or_(self, x: ValueSet, y: ValueSet):
        """Lifted bitwise OR (bulk-inlined product, same memo/cap rules)."""
        return self._lift_boolean("OR", x, y)

    def _lift_boolean(self, op_name: str, x: ValueSet, y: ValueSet):
        """AND/OR through :meth:`MaskedOps.boolean_bulk` (the XOR treatment).

        The masking-heavy paths — byte extraction (``movzx``/``movb``/Reg8
        writes), address alignment, and the SETcc merge — all funnel through
        AND/OR; the 1×1 fast path and the memo keys are identical to
        :meth:`_lift_binary`, so counters and results are bit-for-bit
        unchanged.
        """
        memo_key = (op_name, x._id, y._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        if x.is_singleton and y.is_singleton:
            op = self.masked.and_ if op_name == "AND" else self.masked.or_
            value, flag = op(next(iter(x.elements)), next(iter(y.elements)))
            lifted = (ValueSet((value,)), frozenset((flag,)))
            self._memo.put(memo_key, lifted)
            return lifted
        if len(x) * len(y) > self.cap * self.cap:
            raise PrecisionLoss(
                f"operand product too large: {len(x)} x {len(y)} masked symbols"
            )
        results, flags = self.masked.boolean_bulk(op_name, x.elements, y.elements)
        return self._finalize_lift(memo_key, results, flags)

    def xor(self, x: ValueSet, y: ValueSet):
        """Lifted bitwise XOR (bulk-inlined product, same memo/cap rules)."""
        memo_key = ("XOR", x._id, y._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        if len(x) * len(y) > self.cap * self.cap:
            raise PrecisionLoss(
                f"operand product too large: {len(x)} x {len(y)} masked symbols"
            )
        results, flags = self.masked.xor_bulk(x.elements, y.elements)
        return self._finalize_lift(memo_key, results, flags)

    def add(self, x: ValueSet, y: ValueSet):
        """Lifted addition."""
        return self._lift_binary("ADD", self.masked.add, x, y)

    def sub(self, x: ValueSet, y: ValueSet):
        """Lifted subtraction."""
        return self._lift_binary("SUB", self.masked.sub, x, y)

    def mul(self, x: ValueSet, y: ValueSet):
        """Lifted multiplication."""
        return self._lift_binary("MUL", self.masked.mul, x, y)

    def cmp(self, x: ValueSet, y: ValueSet) -> frozenset[FlagBits]:
        """Lifted comparison: the set of possible flag outcomes."""
        return self.sub(x, y)[1]

    def test(self, x: ValueSet, y: ValueSet) -> frozenset[FlagBits]:
        """x86 TEST: flags of bitwise AND without storing the result."""
        return self.and_(x, y)[1]

    def not_(self, x: ValueSet):
        """Lifted bitwise NOT."""
        return self._lift_unary("NOT", self.masked.not_, x)

    def neg(self, x: ValueSet):
        """Lifted negation."""
        return self._lift_unary("NEG", self.masked.neg, x)

    def shift(self, op_name: str, x: ValueSet, amounts: ValueSet):
        """Lifted SHL/SHR/SAR; the shift count must be fully known.

        Shares the id-keyed memo and the :meth:`_finalize_lift` tail with
        the binary liftings; the product itself keeps the historical
        iteration order (integer counts outer, shifted operand inner, count
        reduced modulo the width as x86 masks the shift-count register) so
        fresh-symbol allocation order — and with it every downstream count —
        stays bit-identical.
        """
        ops = {"SHL": self.masked.shl, "SHR": self.masked.shr, "SAR": self.masked.sar}
        shift_op = ops[op_name]
        memo_key = (op_name, amounts._id, x._id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        counts = amounts.constant_values()
        results: set[MaskedSymbol] = set()
        flags: set[FlagBits] = set()
        for count in counts:
            count %= self.width
            for element in x:
                value, flag = shift_op(element, count)
                results.add(value)
                flags.add(flag)
        return self._finalize_lift(memo_key, results, flags)

    def apply(self, op_name: str, x: ValueSet, y: ValueSet | None):
        """Apply a named operation (used by the abstract transfer function)."""
        binary = self._dispatch.get(op_name)
        if binary is not None:
            return binary(x, y)
        if op_name in ("SHL", "SHR", "SAR"):
            return self.shift(op_name, x, y)
        if op_name == "NOT":
            return self.not_(x)
        if op_name == "NEG":
            return self.neg(x)
        raise ValueError(f"unknown operation {op_name}")
