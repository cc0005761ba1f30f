"""A small LRU cache shared by the repo's program-level memos.

The program-level caches — the source→:class:`~repro.isa.image.Image` memo
of :func:`repro.lang.driver.compile_program`, its transformed-variant
counterpart :func:`repro.transform.pipeline.transformed_image`, and the
per-(image, entry) block-unit cache of :mod:`repro.analysis.specialize`
— are bounded by the same cap and use this class, so a long sweep over
thousands of generated program variants cannot grow any of them without
bound.  Evictions are counted (monotonically, per cache); those of the
compile memo and the block-unit cache are surfaced as a per-run delta
on :class:`~repro.analysis.engine.SchedulerStats`.

Recency is tracked with an ``OrderedDict``: a hit moves the key to the MRU
end, an insert beyond the cap evicts from the LRU end until the cache fits
(unlike the FIFO this replaces, which evicted exactly one entry and could
therefore exceed its nominal bound after a burst of inserts).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

__all__ = ["LRUCache", "DEFAULT_CACHE_CAP"]

# One cap for every program-level memo in the process.
DEFAULT_CACHE_CAP = 256


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int = DEFAULT_CACHE_CAP) -> None:
        if maxsize < 1:
            raise ValueError(f"cache cap must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency on a hit."""
        entries = self._entries
        value = entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries beyond the cap."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved: they are monotonic)."""
        self._entries.clear()


_MISSING = object()
