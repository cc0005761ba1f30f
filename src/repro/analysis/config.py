"""Analysis configuration and input specifications (paper §4, §8.2).

The configuration bundles the architectural geometry (which defines the
observer hierarchy), the observers and access kinds to track, precision knobs
(offset tracking, branch refinement, projection policy — each of which has an
ablation benchmark), and resource bounds that make imprecision loud.

The :class:`InputSpec` describes the initial state of an analyzed region,
classifying inputs along the paper's two dimensions (secret/public ×
known/unknown):

- ``high_values``: secret data with known candidate values (e.g. a key
  window in ``{0..7}``) — a multi-element constant set;
- ``symbol``: public-but-unknown data (e.g. a malloc'd pointer) — a
  singleton symbol set;
- ``constant``: public known data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.adversary import ADVERSARY_MODELS
from repro.core.observers import AccessKind, CacheGeometry, Observer, ProjectionPolicy
from repro.vm.cache import POLICIES, HierarchySpec

__all__ = ["AnalysisConfig", "ArgInit", "InputSpec", "RegInit", "MemInit",
           "AnalysisError", "ResourceLimitError"]


class AnalysisError(Exception):
    """Raised when the analysis cannot produce a sound bound."""


class ResourceLimitError(AnalysisError):
    """A resource guard (deadline or RSS ceiling) aborted the run.

    ``reason`` is the sweep-facing status the abort maps to: ``"timeout"``
    for a blown ``deadline_s``, ``"oom"`` for a blown ``max_rss_bytes``.
    Engine guards raise this instead of hanging a pool worker; the sweep
    layer degrades it into a ``SweepResult`` with that status.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Knobs of one analysis run.

    ``adversary_models`` selects which derived adversary bounds (trace-/
    time-based, :mod:`repro.core.adversary`) the analyzer attaches to the
    report; they are computed from the block DAG, so the block observer must
    be tracked for them to appear.  ``cache_policy`` names the concrete
    replacement policy the bounds are validated/simulated against — the
    static bounds themselves hold for every deterministic policy.
    """

    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    observer_names: tuple[str, ...] = ("address", "bank", "block", "page")
    kinds: tuple[AccessKind, ...] = (AccessKind.INSTRUCTION, AccessKind.DATA)
    projection_policy: ProjectionPolicy = ProjectionPolicy.OFFSET
    adversary_models: tuple[str, ...] = ("trace", "time")
    cache_policy: str = "lru"
    # Concrete cache hierarchy (per-core L1s + shared LLC) the bounds are
    # validated against.  ``None`` — the default, and what every
    # pre-hierarchy config is — means the historical single-level cache.
    # Like ``cache_policy`` this never feeds the static analysis (the
    # bounds hold for any deterministic hierarchy); the ``probe`` adversary
    # model's concrete spy-replay builds this shape.
    hierarchy: HierarchySpec | None = None
    track_offsets: bool = True
    refine_branches: bool = True
    value_set_cap: int = 64
    fuel: int = 1_000_000
    # Resource guards (besides the step-fuel bound above): wall-clock and
    # memory ceilings for one engine run, checked cheaply inside the
    # worklist loop on the timeline-sampling cadence (REPRO_GUARD_STEPS
    # overrides the check interval).  ``None`` disables a guard.  A blown
    # guard raises :class:`ResourceLimitError` — a loud, graceful abort
    # the sweep layer turns into a ``status="timeout"|"oom"`` result —
    # instead of letting a runaway scenario hang or OOM-kill its worker.
    deadline_s: float | None = None
    max_rss_bytes: int | None = None
    stack_top: int = 0x0BFF_F000
    # Compile tier (repro.analysis.specialize): execute straight-line code
    # through per-block specialized functions.  Results are bit-identical
    # with the interpreted path; the knob (and the REPRO_NO_SPECIALIZE env
    # var, which overrides it) exists for ablation and as a rot guard.
    specialize: bool = True
    # Observability (repro.obs): emit phase spans into the process tracer.
    # Default off; the engine activates the tracer when set, and the
    # REPRO_TRACE env var (how `--trace` reaches pool workers) enables the
    # tracer process-wide regardless of this knob.  Tracing is annotation-
    # only — results are bit-identical on or off, enforced by the catalogue
    # differential in tests/sweep/test_observability.py.
    trace: bool = False

    def __post_init__(self) -> None:
        unknown = [model for model in self.adversary_models
                   if model not in ADVERSARY_MODELS]
        if unknown:
            raise AnalysisError(
                f"unknown adversary models {unknown} "
                f"(available: {', '.join(ADVERSARY_MODELS)})")
        if self.cache_policy not in POLICIES:
            raise AnalysisError(
                f"unknown cache policy {self.cache_policy!r} "
                f"(available: {', '.join(sorted(POLICIES))})")
        if self.hierarchy is not None and not isinstance(self.hierarchy,
                                                         HierarchySpec):
            raise AnalysisError(
                f"hierarchy must be a HierarchySpec, got "
                f"{type(self.hierarchy).__name__}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise AnalysisError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if self.max_rss_bytes is not None and self.max_rss_bytes <= 0:
            raise AnalysisError(
                f"max_rss_bytes must be positive, got {self.max_rss_bytes}")

    def observers(self) -> list[Observer]:
        """The observer objects selected by ``observer_names``."""
        available = {
            "address": Observer("address", 0),
            "bank": Observer("bank", self.geometry.bank_bits),
            "block": Observer("block", self.geometry.line_bits),
            "page": Observer("page", self.geometry.page_bits),
        }
        return [available[name] for name in self.observer_names]


@dataclass(frozen=True, slots=True)
class RegInit:
    """Initial value of a register: exactly one field must be set."""

    reg: int
    constant: int | None = None
    high_values: tuple[int, ...] | None = None
    symbol: str | None = None


@dataclass(frozen=True, slots=True)
class ArgInit:
    """One stack argument of the analyzed function (cdecl order)."""

    constant: int | None = None
    high_values: tuple[int, ...] | None = None
    symbol: str | None = None

    @classmethod
    def high(cls, values) -> "ArgInit":
        return cls(high_values=tuple(values))

    @classmethod
    def of(cls, value: int) -> "ArgInit":
        return cls(constant=value)

    @classmethod
    def pointer(cls, name: str) -> "ArgInit":
        return cls(symbol=name)


@dataclass(frozen=True, slots=True)
class MemInit:
    """Initial contents of memory.

    ``at`` is either a concrete address, a symbol name (the location the
    symbol points to), or a ``(symbol, offset)`` pair.  The value follows the
    same secret/public × known/unknown classification as registers.
    """

    at: int | str | tuple[str, int]
    constant: int | None = None
    high_values: tuple[int, ...] | None = None
    symbol: str | None = None
    size: int = 4


@dataclass(frozen=True)
class InputSpec:
    """Initial-state specification for one analyzed region.

    ``args`` are the analyzed function's stack arguments (first argument
    first); they are placed above the sentinel return address, matching the
    cdecl-like convention of the compiler and the concrete VM.
    """

    entry: str
    registers: tuple[RegInit, ...] = ()
    args: tuple[ArgInit, ...] = ()
    memory: tuple[MemInit, ...] = ()
    extern_clobbers: tuple[str, ...] = ()
    description: str = ""

    @staticmethod
    def reg_constant(reg: int, value: int) -> RegInit:
        """A public, known register value."""
        return RegInit(reg=reg, constant=value)

    @staticmethod
    def reg_high(reg: int, values: Iterable[int]) -> RegInit:
        """A secret register with known candidate values (paper Example 2)."""
        return RegInit(reg=reg, high_values=tuple(values))

    @staticmethod
    def reg_symbol(reg: int, name: str) -> RegInit:
        """A public-but-unknown register value (e.g. a heap pointer)."""
        return RegInit(reg=reg, symbol=name)
