"""Symbols, origins, offsets, and valuations (paper §5.1, §5.4.2, §7).

A *symbol* uniquely identifies an unknown value, such as the base address of a
dynamically allocated buffer.  Symbols are plain ints allocated from a
:class:`SymbolTable`, which also maintains:

- the **origin/offset** bookkeeping of §5.4.2.  Origins and offsets are
  attached to *masked symbols* (pairs of symbol and mask), exactly as in the
  paper: ``orig(x)`` is the masked symbol from which ``x`` was derived by a
  sequence of constant additions and ``off(x)`` their cumulative effect.  The
  ``succ`` memo-table guarantees that the same ``(origin, offset)`` pair
  always yields the *same* masked symbol, which is what makes sets of
  addresses collapse under projection;
- **provenance** of symbols introduced during the analysis (paper §7.1,
  ``Ext(λ)``): for each derived symbol we record the operation and operands it
  came from, so that a :class:`Valuation` of the input symbols extends
  uniquely to all derived symbols.  This makes the soundness statements of
  the paper executable and is used heavily by the property-based test suite.

Provenance is stored by column: three parallel lists indexed by symbol id
hold the operation, the left operand and the right operand, so allocating a
derived symbol (hundreds of thousands per paper-geometry figure) appends
three references and creates no record.  The few named, input, unknown and
provenance-less symbols keep a :class:`SymbolInfo` in a side dict and a
``None`` placeholder in the columns; :meth:`SymbolTable.info` builds the
record of a derived symbol on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.masked import MaskedSymbol

__all__ = ["SymbolTable", "SymbolInfo", "Valuation", "SymbolKind"]


class SymbolKind:
    """Classification of symbols (paper distinguishes ``Sym_lo`` from fresh)."""

    INPUT = "input"  # element of Sym_lo: part of the low initial state
    DERIVED = "derived"  # introduced by an abstract operation
    UNKNOWN = "unknown"  # introduced for reads of unmodeled memory


class SymbolInfo:
    """Metadata attached to a symbol identifier.

    ``name`` is materialized lazily: derived symbols (the overwhelming
    majority) are only ever named when rendered for a human, so the default
    ``s<ident>`` string is not formatted on the allocation hot path.
    """

    __slots__ = ("ident", "_name", "kind", "provenance")

    def __init__(self, ident: int, name: str | None, kind: str,
                 provenance: tuple | None = None) -> None:
        self.ident = ident
        self._name = name
        self.kind = kind
        self.provenance = provenance  # (op_name, operand_a, operand_b)

    @property
    def name(self) -> str:
        return self._name or f"s{self.ident}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SymbolInfo(ident={self.ident}, name={self.name!r}, "
                f"kind={self.kind!r})")


@dataclass(slots=True)
class SymbolTable:
    """Allocator and registry for symbols plus §5.4.2 offset bookkeeping.

    One table is shared by everything participating in a single analysis run
    (abstract values, abstract state, trace domain), so that origins, offsets
    and the ``succ`` table are globally consistent.
    """

    width: int = 32
    # Provenance columns indexed by symbol id (see the module docstring);
    # the next id to allocate is ``len(_ops)``.  ``MaskedOps`` appends to
    # them directly on its fresh-symbol paths.
    _ops: list[str | None] = field(default_factory=list)
    _lefts: list["MaskedSymbol | None"] = field(default_factory=list)
    _rights: list["MaskedSymbol | None"] = field(default_factory=list)
    # Symbols that are not anonymous derived ones with provenance.
    _records: dict[int, SymbolInfo] = field(default_factory=dict)
    # orig/off/succ of §5.4.2, keyed by masked symbols.
    _origin: dict["MaskedSymbol", tuple["MaskedSymbol", int]] = field(default_factory=dict)
    _succ: dict[tuple["MaskedSymbol", int], "MaskedSymbol"] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def fresh(
        self,
        name: str | None = None,
        kind: str = SymbolKind.DERIVED,
        provenance: tuple | None = None,
    ) -> int:
        """Allocate a new symbol and return its identifier."""
        ident = len(self._ops)
        if name is None and kind == SymbolKind.DERIVED and provenance is not None:
            op_name, left, right = provenance
        else:
            op_name = left = right = None
            self._records[ident] = SymbolInfo(ident, name, kind, provenance)
        self._ops.append(op_name)
        self._lefts.append(left)
        self._rights.append(right)
        return ident

    def input_symbol(self, name: str) -> int:
        """Allocate a low-but-unknown input symbol (element of ``Sym_lo``)."""
        return self.fresh(name=name, kind=SymbolKind.INPUT)

    def unknown_symbol(self, name: str) -> int:
        """Allocate a symbol for a read of unmodeled memory."""
        return self.fresh(name=name, kind=SymbolKind.UNKNOWN)

    # ------------------------------------------------------------------
    # Metadata accessors
    # ------------------------------------------------------------------
    def info(self, ident: int) -> SymbolInfo:
        """Return the metadata record of symbol ``ident``.

        A derived symbol's record is built from the columns on each call.
        """
        record = self._records.get(ident)
        if record is not None:
            return record
        if not 0 <= ident < len(self._ops):
            raise KeyError(ident)
        return SymbolInfo(ident, None, SymbolKind.DERIVED,
                          (self._ops[ident], self._lefts[ident], self._rights[ident]))

    def name(self, ident: int) -> str:
        """Human-readable name of the symbol."""
        return self.info(ident).name

    def kind(self, ident: int) -> str:
        """Symbol kind: input, derived, or unknown."""
        return self.info(ident).kind

    def input_symbols(self) -> list[int]:
        """All symbols of kind INPUT, in allocation order."""
        return [i for i, info in self._records.items() if info.kind == SymbolKind.INPUT]

    def all_symbols(self) -> list[int]:
        """All allocated symbols, in allocation order."""
        return list(range(len(self._ops)))

    # ------------------------------------------------------------------
    # Origins, offsets and the succ table (§5.4.2)
    # ------------------------------------------------------------------
    def origin_offset(self, masked: "MaskedSymbol") -> tuple["MaskedSymbol", int]:
        """Return ``(orig(x), off(x))``; a fresh masked symbol is its own origin."""
        return self._origin.get(masked, (masked, 0))

    def register_origin(
        self, masked: "MaskedSymbol", origin: "MaskedSymbol", offset: int
    ) -> None:
        """Record that ``masked`` lies ``offset`` bytes after ``origin``."""
        self._origin[masked] = (origin, offset)

    def successor(self, origin: "MaskedSymbol", offset: int) -> "MaskedSymbol | None":
        """Look up the memoized masked symbol at ``(origin, offset)``."""
        return self._succ.get((origin, offset))

    def register_successor(
        self, origin: "MaskedSymbol", offset: int, value: "MaskedSymbol"
    ) -> None:
        """Memoize the masked symbol reachable at ``(origin, offset)``."""
        self._succ[(origin, offset)] = value

    def same_origin(self, a: "MaskedSymbol", b: "MaskedSymbol") -> bool:
        """True iff two masked symbols share an origin."""
        return self.origin_offset(a)[0] == self.origin_offset(b)[0]


class Valuation:
    """A valuation ``λ : Sym → {0,1}^n`` of the *input* symbols (paper §5.2).

    Derived symbols are resolved through their provenance, implementing the
    extension ``λ̄ ∈ Ext(λ)`` of §7.1: the value of a symbol produced by an
    abstract operation is the concrete result of that operation on the
    concretized operands.  Symbols of kind UNKNOWN (reads of unmodeled
    memory) take values from ``unknown_default``.
    """

    def __init__(
        self,
        table: SymbolTable,
        assignment: dict[int, int] | None = None,
        unknown_default: Callable[[int], int] | None = None,
    ) -> None:
        self._table = table
        self._assignment = dict(assignment or {})
        self._unknown_default = unknown_default or (lambda ident: 0)
        self._cache: dict[int, int] = {}

    def assign(self, ident: int, value: int) -> None:
        """Set the value of an input symbol."""
        self._assignment[ident] = value
        self._cache.clear()

    def value_of(self, ident: int) -> int:
        """Resolve the concrete value of any symbol (input or derived)."""
        if ident in self._cache:
            return self._cache[ident]
        if ident in self._assignment:
            value = self._assignment[ident]
        else:
            info = self._table.info(ident)
            if info.provenance is None:
                value = self._unknown_default(ident)
            else:
                value = self._eval_provenance(info.provenance)
        self._cache[ident] = value
        return value

    def concretize(self, masked) -> int:
        """Concretize a masked symbol: ``λ(s) ⊙ m`` (paper §5.2)."""
        if masked.sym is None:
            return masked.mask.value
        return masked.mask.concretize(self.value_of(masked.sym))

    def _eval_provenance(self, provenance: tuple) -> int:
        from repro.core import masked as masked_mod

        op_name, operand_a, operand_b = provenance
        concrete_a = self.concretize(operand_a)
        concrete_b = self.concretize(operand_b) if operand_b is not None else None
        return masked_mod.concrete_op(op_name, concrete_a, concrete_b, self._table.width)
