"""Memory-trace observers and projections (paper §3.2 and §5.3).

An observer is characterized by the number ``b`` of low address bits it cannot
see: it observes ``π_{n:b}(a)``, the ``n-b`` most significant bits of each
accessed address.  The standard hierarchy is:

- **address** observer (``b = 0``): full address trace;
- **bank** observer (``b = log2(bank size)``, typically 2): cache banks,
  the CacheBleed adversary;
- **block** observer (``b = log2(line size)``, typically 5..7): memory blocks
  loaded into cache lines, the classic prime+probe/flush+reload adversary;
- **page** observer (``b = 12``): page-fault adversaries.

Projections operate on sets of masked symbols.  The projection of a single
masked symbol is a *key* whose equality implies equality of the concrete
projections for **every** valuation λ of the symbols (Proposition 1), so that
counting keys soundly counts observations:

- if all projected bits are known, the key is the concrete value of the
  projection (this is how differently-masked accesses collapse);
- otherwise, if the masked symbol was derived from an origin ``B`` by a
  constant offset ``q`` (§5.4.2) and the low ``b`` bits of ``B`` are known to
  be ``r``, the key is ``(B, (r + q) >> b)``.  Because the low ``b`` bits of
  ``B`` are known, no carry can cross bit ``b`` whose value depends on λ, and
  ``γ_λ(x) >> b = (γ_λ(B) >> b) + ((r + q) >> b) (mod 2^{n-b})`` holds for
  every λ.  This is the *offset-refined projection*: it is what proves that
  ``gather``'s accesses ``buf + k + i·spacing`` hit the same block for every
  secret ``k``;
- otherwise the key is the bitwise projection with symbolic bits tagged by
  their symbol (paper Example 4).

Additionally, when all elements of a set share one origin, the number of
distinct projections is bounded by the *spread* of their offsets
(``(max-min) >> b + 1``), which refines the count (not the keys) further.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.masked import MaskedSymbol
from repro.core.symbols import SymbolTable
from repro.core.valueset import ValueSet

__all__ = [
    "Observer",
    "CacheGeometry",
    "ProjectionPolicy",
    "ProjectedLabel",
    "project_element",
    "project_element_subset",
    "project_value_set",
    "standard_observers",
    "AccessKind",
]


class AccessKind(enum.Enum):
    """Which cache a memory access exercises."""

    INSTRUCTION = "I-Cache"
    DATA = "D-Cache"
    SHARED = "Shared"


class ProjectionPolicy(enum.Enum):
    """Projection precision (PLAIN is the ablation of the offset refinement)."""

    OFFSET = "offset-refined"
    PLAIN = "plain"


@dataclass(frozen=True, slots=True)
class Observer:
    """An adversary observing ``π_{n:b}`` of every access of one kind."""

    name: str
    offset_bits: int

    def unit_bytes(self) -> int:
        """Size of the observation unit in bytes (2^b)."""
        return 1 << self.offset_bits


@dataclass(frozen=True, slots=True)
class CacheGeometry:
    """Architectural unit sizes (paper Example 1)."""

    word_bits: int = 32
    bank_bytes: int = 4
    line_bytes: int = 64
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        for value, label in (
            (self.bank_bytes, "bank_bytes"),
            (self.line_bytes, "line_bytes"),
            (self.page_bytes, "page_bytes"),
        ):
            if value & (value - 1):
                raise ValueError(f"{label} must be a power of two, got {value}")

    @property
    def bank_bits(self) -> int:
        """Offset bits invisible to the bank observer."""
        return self.bank_bytes.bit_length() - 1

    @property
    def line_bits(self) -> int:
        """Offset bits invisible to the block observer."""
        return self.line_bytes.bit_length() - 1

    @property
    def page_bits(self) -> int:
        """Offset bits invisible to the page observer."""
        return self.page_bytes.bit_length() - 1


def standard_observers(geometry: CacheGeometry) -> list[Observer]:
    """The paper's observer hierarchy for a given geometry."""
    return [
        Observer("address", 0),
        Observer("bank", geometry.bank_bits),
        Observer("block", geometry.line_bits),
        Observer("page", geometry.page_bits),
    ]


class ProjectedLabel:
    """The projection of one access: a set of keys plus a refined count.

    ``count`` is the bound on the number of distinct concrete observations;
    it equals ``len(keys)`` unless the spread refinement improved it.

    Labels are hashed on every trace-DAG commit, so the hash (same value as
    the historical ``hash((keys, count))``) and the ``is_single`` flag are
    precomputed; the per-run projection cache makes equal labels usually be
    the *same* object, which the equality fast path exploits.
    """

    __slots__ = ("keys", "count", "is_single", "_hash")

    def __init__(self, keys: frozenset, count: int) -> None:
        if count < 1:
            raise ValueError("a projected label represents at least one observation")
        self.keys = keys
        self.count = count
        self.is_single = count == 1
        self._hash = hash((keys, count))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, ProjectedLabel)
            and self._hash == other._hash
            and self.count == other.count
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProjectedLabel(keys={self.keys!r}, count={self.count})"


def project_element(
    element: MaskedSymbol,
    offset_bits: int,
    table: SymbolTable,
    policy: ProjectionPolicy = ProjectionPolicy.OFFSET,
):
    """Project a single masked symbol to its observation key.

    Equal keys imply equal concrete observations ``π_{n:b}(γ_λ(x))`` for every
    valuation λ (Proposition 1 plus the offset refinement).
    """
    width = element.width
    if offset_bits >= width:
        return ("const", 0)
    projected = element.mask.drop_low(offset_bits)
    if projected.is_constant:
        return ("const", projected.value)
    if offset_bits == 0:
        # Full-address observer: the masked symbol itself is the key.
        return ("addr", element.sym, element.mask.known, element.mask.value)
    if policy is ProjectionPolicy.OFFSET:
        origin, offset = table.origin_offset(element)
        if origin.mask.low_bits_known(offset_bits):
            low = origin.mask.low_bits_value(offset_bits)
            return ("org", origin, (low + offset) >> offset_bits)
    # Plain bitwise projection: known bits verbatim, symbolic bits tagged by
    # the symbol they come from (the per-bit provenance of §5.3).
    bits = []
    for index in range(offset_bits, width):
        value = element.mask.bit_at(index)
        bits.append(("T", element.sym) if value is None else value)
    return ("bits", tuple(bits))


def project_value_set(
    values: ValueSet,
    offset_bits: int,
    table: SymbolTable,
    policy: ProjectionPolicy = ProjectionPolicy.OFFSET,
) -> ProjectedLabel:
    """Project every element and bound the number of distinct observations."""
    keys = frozenset(
        project_element(element, offset_bits, table, policy) for element in values
    )
    count = len(keys)
    if count > 1 and offset_bits > 0 and policy is ProjectionPolicy.OFFSET:
        count = min(count, _spread_bound(values, offset_bits, table))
    return ProjectedLabel(keys=keys, count=count)


def _spread_bound(values: ValueSet, offset_bits: int, table: SymbolTable) -> int:
    """Bound the count by the offset spread when all elements share an origin.

    For any fixed (unknown) base value ``c``, the projections
    ``(c + q) >> b`` for ``q`` spanning ``d = q_max - q_min`` form a
    consecutive range of size at most ``((d - 1) >> b) + 2`` (the worst case
    is ``c`` just below a unit boundary); for ``d = 0`` the size is 1.
    """
    origins = set()
    offsets = []
    for element in values:
        origin, offset = table.origin_offset(element)
        origins.add(origin)
        offsets.append(offset)
    if len(origins) != 1:
        return len(values)
    span = max(offsets) - min(offsets)
    if span == 0:
        return 1
    return ((span - 1) >> offset_bits) + 2


def project_element_subset(element: MaskedSymbol, indices: tuple[int, ...]):
    """General projection to an arbitrary subset of bit positions (Prop. 1).

    The observers of §3.2 only use suffix projections (``drop low b``), but
    Proposition 1 is stated — and tested — for arbitrary component subsets,
    e.g. the least-significant-bit projection of the paper's Example 4.
    """
    bits = []
    for index in indices:
        value = element.mask.bit_at(index)
        bits.append(("T", element.sym) if value is None else value)
    return ("bits", tuple(bits))
