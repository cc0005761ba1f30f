"""Flat memory and malloc model for the concrete VM.

Memory is a sparse byte store over the full 32-bit address space.  The heap
is a bump allocator whose base can be shifted (``aslr_offset``) to validate
the paper's central claim experimentally: for secure countermeasures the
adversary's *view* of the access trace is identical for every heap placement,
even though the concrete addresses differ.
"""

from __future__ import annotations

from repro.isa.image import Image

__all__ = ["FlatMemory", "MemoryError_", "DEFAULT_HEAP_BASE", "DEFAULT_STACK_TOP"]

DEFAULT_HEAP_BASE = 0x0900_0000
DEFAULT_STACK_TOP = 0x0BFF_F000

_MASK = 0xFFFF_FFFF  # addresses wrap around at 2**32


class MemoryError_(Exception):
    """Raised on invalid memory accesses (kept distinct from builtins)."""


class FlatMemory:
    """Sparse byte-addressable memory with a bump-allocating heap."""

    def __init__(
        self,
        heap_base: int = DEFAULT_HEAP_BASE,
        aslr_offset: int = 0,
        heap_align: int = 16,
    ) -> None:
        self._bytes: dict[int, int] = {}
        self._heap_next = heap_base + aslr_offset
        self._heap_align = heap_align
        self.allocations: list[tuple[int, int]] = []  # (address, size)

    # ------------------------------------------------------------------
    # Image loading
    # ------------------------------------------------------------------
    def load_image(self, image: Image) -> None:
        """Copy every section of an assembled image into memory."""
        self._bytes.update(image.snapshot())

    # ------------------------------------------------------------------
    # Byte/word access
    # ------------------------------------------------------------------
    def read_byte(self, addr: int) -> int:
        """Read one byte (uninitialized memory reads as 0)."""
        return self._bytes.get(addr & _MASK, 0)

    def write_byte(self, addr: int, value: int) -> None:
        """Write one byte."""
        self._bytes[addr & _MASK] = value & 0xFF

    def read(self, addr: int, size: int) -> int:
        """Little-endian read of ``size`` bytes."""
        get = self._bytes.get
        if size == 4:
            return (get(addr & _MASK, 0) | get((addr + 1) & _MASK, 0) << 8
                    | get((addr + 2) & _MASK, 0) << 16
                    | get((addr + 3) & _MASK, 0) << 24)
        value = 0
        for offset in range(size):
            value |= get((addr + offset) & _MASK, 0) << (8 * offset)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Little-endian write of ``size`` bytes."""
        data = self._bytes
        if size == 4:
            data[addr & _MASK] = value & 0xFF
            data[(addr + 1) & _MASK] = (value >> 8) & 0xFF
            data[(addr + 2) & _MASK] = (value >> 16) & 0xFF
            data[(addr + 3) & _MASK] = (value >> 24) & 0xFF
            return
        for offset in range(size):
            data[(addr + offset) & _MASK] = (value >> (8 * offset)) & 0xFF

    def write_block(self, addr: int, payload: bytes) -> None:
        """Write a contiguous byte string."""
        data = self._bytes
        for offset, value in enumerate(payload):
            data[(addr + offset) & _MASK] = value & 0xFF

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the (low, secret-independent)
        address chosen by the bump allocator."""
        if size <= 0:
            raise MemoryError_(f"malloc of non-positive size {size}")
        align = self._heap_align
        addr = (self._heap_next + align - 1) // align * align
        self._heap_next = addr + size
        self.allocations.append((addr, size))
        return addr
