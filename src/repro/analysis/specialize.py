"""Block units: the straight-line stretches the engine runs in one pop.

:func:`specialized_program` builds the control-flow graph of one (image,
entry) and keeps, per CFG block, the block's straight-line prefix: its
instructions up to the first control-flow one (``jmp``, ``jcc``, ``call``,
``ret``, ``hlt``).  The engine runs each prefix of at least ``MIN_PREFIX``
instructions as one *unit* from the block's first execution in a run: one
worklist pop, the instructions' handlers (:mod:`repro.analysis.transfer`)
in sequence, the fetch batch projected once per run and the data batch
after every execution.  Control flow, shorter prefixes and everything the
CFG walk could not reach run one instruction at a time through the same
handlers.

Scheduling equivalence: interior addresses of a prefix are never CFG
leaders (every branch/call target and fall-through is a leader, and blocks
are carved at leaders), so no pending configuration's key can name them,
and no order key can sort strictly between two consecutive straight-line
pcs of the same frame stack — running the prefix in one pop keeps the
single-step order and loses no merges.

The CFG walk is cached per ``(image fingerprint, entry)`` in a bounded
:class:`~repro.core.lru.LRUCache`; handlers are not, because
:class:`~repro.analysis.state.AnalysisContext` clears the intern tables
their constants live in.
"""

from __future__ import annotations

from repro.analysis.cfg import build_cfg
from repro.core.lru import DEFAULT_CACHE_CAP, LRUCache
from repro.isa.image import Image
from repro.isa.instructions import Instruction

__all__ = ["SpecializedProgram", "specialized_program",
           "program_cache_evictions", "MIN_PREFIX"]

# Shorter prefixes run as single steps: a one-instruction unit saves no pop.
MIN_PREFIX = 2

_CONTROL_FLOW = frozenset(("jmp", "call", "ret", "hlt"))

# Block units per (image fingerprint, entry).  Shares the cap (and the LRU
# discipline) with the compile_program memo.
_PROGRAM_CACHE: LRUCache = LRUCache(DEFAULT_CACHE_CAP)


def program_cache_evictions() -> int:
    """Total LRU evictions across the program-level caches (monotonic).

    Covers the block-unit cache here and the ``compile_program`` image
    memo; the engine reports the per-run delta on ``SchedulerStats``.
    """
    from repro.lang.driver import compile_cache_evictions

    return _PROGRAM_CACHE.evictions + compile_cache_evictions()


class SpecializedProgram:
    """The block units of one (image, entry).

    ``blocks`` maps each unit's start to its instructions.  ``source`` is
    always empty: the benchmark's ``specialize`` layer
    (``perfbench/layers.py``) is its only reader, and it wraps
    :func:`specialized_program` by name, until ROADMAP item 6 drops the
    ``specialize.*`` metrics.
    """

    __slots__ = ("blocks", "source")

    def __init__(self, blocks: dict[int, tuple[Instruction, ...]]) -> None:
        self.blocks = blocks
        self.source = ""


def specialized_program(image: Image, entry: int) -> SpecializedProgram:
    """The (cached) block units of ``image`` explored from ``entry``."""
    key = (image.fingerprint, entry)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = SpecializedProgram(_block_units(image, entry))
        _PROGRAM_CACHE.put(key, program)
    return program


def _block_units(image: Image, entry: int) -> dict[int, tuple]:
    try:
        cfg = build_cfg(image, entry)
    except Exception:
        # Unreconstructable control flow (decode failure on a dead path,
        # budget exhaustion): single steps handle — or report — whatever
        # the CFG walk could not.
        return {}
    units = {}
    for start, block in cfg.blocks.items():
        prefix = []
        for instruction in block.instructions:
            mnemonic = instruction.mnemonic
            if mnemonic in _CONTROL_FLOW or mnemonic.startswith("j"):
                break
            prefix.append(instruction)
        if len(prefix) >= MIN_PREFIX:
            units[start] = tuple(prefix)
    return units
