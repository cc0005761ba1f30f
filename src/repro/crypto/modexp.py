"""The six modular exponentiation variants of the paper's case study (§8.2).

Each variant mirrors the structure of its library implementation, calling
instrumentation hooks for every squaring, multiplication, reduction, and
table-retrieval event — the hooks drive the Figure 16 cost model, and the
lookup patterns are exactly the ones whose compiled kernels the analysis
bounds in Figures 7/8/14.

Variants (paper Figure 16a columns):

================  ==========================  ==============================
key               implementation              countermeasure
================  ==========================  ==============================
sqm_152           libgcrypt 1.5.2             none (square-and-multiply)
sqam_153          libgcrypt 1.5.3             always multiply
window_161        libgcrypt 1.6.1             none (sliding window)
scatter_102f      OpenSSL 1.0.2f              scatter/gather
secure_163        libgcrypt 1.6.3             access all entries
defensive_102g    OpenSSL 1.0.2g              defensive (branch-free) gather
================  ==========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.crypto.countermeasures import (
    defensive_gather, gather, scatter, secure_retrieve,
)
from repro.crypto.mpi import MPI, OpCounter

__all__ = ["ModExpStats", "MODEXP_VARIANTS", "modexp", "VariantInfo"]


@dataclass(slots=True)
class ModExpStats:
    """Instrumentation record of one exponentiation."""

    squarings: int = 0
    multiplications: int = 0
    reductions: int = 0
    lookups: int = 0
    lookup_bytes: int = 0
    counter: OpCounter = field(default_factory=OpCounter)


def _sqr_mod(value: MPI, modulus: MPI, stats: ModExpStats) -> MPI:
    stats.squarings += 1
    stats.reductions += 1
    return value.sqr(stats.counter).mod(modulus, stats.counter)


def _mul_mod(a: MPI, b: MPI, modulus: MPI, stats: ModExpStats) -> MPI:
    stats.multiplications += 1
    stats.reductions += 1
    return a.mul(b, stats.counter).mod(modulus, stats.counter)


# ----------------------------------------------------------------------
# Square-and-multiply family (paper Figures 5 and 6)
# ----------------------------------------------------------------------

def square_and_multiply(base: MPI, exponent: MPI, modulus: MPI,
                        stats: ModExpStats) -> MPI:
    """libgcrypt 1.5.2 (Figure 5): the exploited conditional multiply."""
    result = MPI.from_int(1)
    for index in reversed(range(exponent.bit_length)):
        result = _sqr_mod(result, modulus, stats)
        if exponent.bit(index) == 1:  # secret-dependent branch
            result = _mul_mod(base, result, modulus, stats)
    return result


def square_and_always_multiply(base: MPI, exponent: MPI, modulus: MPI,
                               stats: ModExpStats) -> MPI:
    """libgcrypt 1.5.3 (Figure 6): multiply always, select the outcome."""
    result = MPI.from_int(1)
    for index in reversed(range(exponent.bit_length)):
        result = _sqr_mod(result, modulus, stats)
        tmp = _mul_mod(base, result, modulus, stats)
        if exponent.bit(index) == 1:  # conditional (pointer) copy
            result = tmp
    return result


# ----------------------------------------------------------------------
# Windowed family (§8.4); window size 3 → 8 table entries
# ----------------------------------------------------------------------

WINDOW_BITS = 3
TABLE_ENTRIES = 1 << WINDOW_BITS
SPACING = TABLE_ENTRIES  # scatter/gather spacing in bytes


def _precompute(base: MPI, modulus: MPI, stats: ModExpStats) -> list[MPI]:
    """Table of base^0 .. base^(2^w - 1) mod m."""
    powers = [MPI.from_int(1)]
    for _ in range(TABLE_ENTRIES - 1):
        powers.append(_mul_mod(powers[-1], base, modulus, stats))
    return powers


def _windows(exponent: MPI) -> list[int]:
    """Fixed windows of WINDOW_BITS bits, most significant first."""
    bits = exponent.bit_length
    padded = (bits + WINDOW_BITS - 1) // WINDOW_BITS * WINDOW_BITS
    windows = []
    for top in range(padded, 0, -WINDOW_BITS):
        window = 0
        for offset in range(WINDOW_BITS):
            window = (window << 1) | exponent.bit(top - 1 - offset)
        windows.append(window)
    return windows


def _windowed(base: MPI, exponent: MPI, modulus: MPI, stats: ModExpStats,
              retrieve: Callable[[list[MPI], int, ModExpStats], MPI]) -> MPI:
    powers = _precompute(base, modulus, stats)
    result = MPI.from_int(1)
    for window in _windows(exponent):
        for _ in range(WINDOW_BITS):
            result = _sqr_mod(result, modulus, stats)
        entry = retrieve(powers, window, stats)
        result = _mul_mod(result, entry, modulus, stats)
    return result


def _retrieve_direct(powers: list[MPI], window: int, stats: ModExpStats) -> MPI:
    """libgcrypt 1.6.1: pointer into the table (the Figure 10 lookup)."""
    stats.lookups += 1
    stats.lookup_bytes += 4  # a pointer copy
    return powers[window]


def _table_bytes(powers: list[MPI]) -> int:
    """Uniform entry size: every table slot is as wide as the widest power."""
    return max(4 * entry.nlimbs for entry in powers)


def _retrieve_secure(powers: list[MPI], window: int, stats: ModExpStats) -> MPI:
    """libgcrypt 1.6.3 (Figure 11): read every entry, mask-select one."""
    stats.lookups += 1
    nbytes = _table_bytes(powers)
    stats.lookup_bytes += nbytes * len(powers)
    flat = [entry.to_bytes(nbytes) for entry in powers]
    selected = secure_retrieve(flat, window)
    return MPI.from_bytes(selected)


def _retrieve_scatter(powers: list[MPI], window: int, stats: ModExpStats) -> MPI:
    """OpenSSL 1.0.2f: gather from the interleaved buffer (Figure 3)."""
    stats.lookups += 1
    nbytes = _table_bytes(powers)
    stats.lookup_bytes += nbytes
    buffer = bytearray(nbytes * SPACING)
    for key, entry in enumerate(powers):
        scatter(buffer, entry.to_bytes(nbytes), key, SPACING)
    return MPI.from_bytes(gather(buffer, window, nbytes, SPACING))


def _retrieve_defensive(powers: list[MPI], window: int, stats: ModExpStats) -> MPI:
    """OpenSSL 1.0.2g (Figure 12): branch-free gather over all banks."""
    stats.lookups += 1
    nbytes = _table_bytes(powers)
    stats.lookup_bytes += nbytes * SPACING
    buffer = bytearray(nbytes * SPACING)
    for key, entry in enumerate(powers):
        scatter(buffer, entry.to_bytes(nbytes), key, SPACING)
    return MPI.from_bytes(defensive_gather(buffer, window, nbytes, SPACING))


def window_161(base, exponent, modulus, stats):
    """Sliding/fixed-window exponentiation with the unprotected lookup."""
    return _windowed(base, exponent, modulus, stats, _retrieve_direct)


def secure_163(base, exponent, modulus, stats):
    """Windowed exponentiation with the access-all-entries lookup."""
    return _windowed(base, exponent, modulus, stats, _retrieve_secure)


def scatter_102f(base, exponent, modulus, stats):
    """Windowed exponentiation with scatter/gather tables."""
    return _windowed(base, exponent, modulus, stats, _retrieve_scatter)


def defensive_102g(base, exponent, modulus, stats):
    """Windowed exponentiation with the defensive gather."""
    return _windowed(base, exponent, modulus, stats, _retrieve_defensive)


@dataclass(frozen=True, slots=True)
class VariantInfo:
    """Metadata of one case-study implementation (Figure 16a columns)."""

    key: str
    library: str
    algorithm: str
    countermeasure: str
    function: Callable


MODEXP_VARIANTS: dict[str, VariantInfo] = {
    "sqm_152": VariantInfo(
        "sqm_152", "libgcrypt 1.5.2", "square and multiply", "no CM",
        square_and_multiply),
    "sqam_153": VariantInfo(
        "sqam_153", "libgcrypt 1.5.3", "square and multiply", "always multiply",
        square_and_always_multiply),
    "window_161": VariantInfo(
        "window_161", "libgcrypt 1.6.1", "sliding window", "no CM",
        window_161),
    "scatter_102f": VariantInfo(
        "scatter_102f", "openssl 1.0.2f", "sliding window", "scatter/gather",
        scatter_102f),
    "secure_163": VariantInfo(
        "secure_163", "libgcrypt 1.6.3", "sliding window", "access all bytes",
        secure_163),
    "defensive_102g": VariantInfo(
        "defensive_102g", "openssl 1.0.2g", "sliding window", "defensive gather",
        defensive_102g),
}


def modexp(variant: str, base: int, exponent: int, modulus: int) -> tuple[int, ModExpStats]:
    """Run one variant on Python ints; returns (result, instrumentation)."""
    stats = ModExpStats()
    info = MODEXP_VARIANTS[variant]
    result = info.function(
        MPI.from_int(base), MPI.from_int(exponent), MPI.from_int(modulus), stats)
    return result.mod(MPI.from_int(modulus), stats.counter).to_int(), stats
