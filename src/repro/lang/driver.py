"""Compiler driver: source text → assembled image."""

from __future__ import annotations

from repro.core.lru import DEFAULT_CACHE_CAP, LRUCache
from repro.isa.image import Assembler, DEFAULT_CODE_BASE, DEFAULT_DATA_BASE, Image
from repro.lang.codegen import generate_program
from repro.lang.ir import IRProgram
from repro.lang.lower import lower_program
from repro.lang.parser import parse

__all__ = ["compile_program", "compile_to_assembler", "compile_ir_program"]


def compile_to_assembler(
    source: str,
    opt_level: int = 2,
    code_base: int = DEFAULT_CODE_BASE,
    data_base: int = DEFAULT_DATA_BASE,
    function_align: int | None = None,
    stub_align: int | None = None,
    cold_align: int | None = None,
    data_align: dict[str, int] | None = None,
    data_pad: dict[str, int] | None = None,
) -> Assembler:
    """Compile without assembling, so callers can append more items
    (extra data tables, hand-written stubs) before layout is fixed."""
    program = lower_program(parse(source))
    assembler = Assembler(code_base=code_base, data_base=data_base)
    return generate_program(
        program, assembler, opt_level=opt_level,
        function_align=function_align, stub_align=stub_align,
        cold_align=cold_align, data_align=data_align, data_pad=data_pad,
    )


def compile_ir_program(
    program: IRProgram,
    opt_level: int = 2,
    code_base: int = DEFAULT_CODE_BASE,
    data_base: int = DEFAULT_DATA_BASE,
    function_align: int | None = None,
    stub_align: int | None = None,
    cold_align: int | None = None,
    data_align: dict[str, int] | None = None,
    data_pad: dict[str, int] | None = None,
) -> Image:
    """Assemble an already-lowered (possibly transformed) IR program.

    The entry point for the countermeasure pass pipeline
    (:mod:`repro.transform`): passes rewrite IR and layout directives, then
    hand the program here for code generation and assembly.  No caching —
    IR programs are mutable; callers that want caching key on their own
    inputs (see :func:`repro.transform.pipeline.transformed_image`).
    """
    assembler = Assembler(code_base=code_base, data_base=data_base)
    return generate_program(
        program, assembler, opt_level=opt_level,
        function_align=function_align, stub_align=stub_align,
        cold_align=cold_align, data_align=data_align, data_pad=data_pad,
    ).assemble()


_COMPILE_CACHE_MAX = DEFAULT_CACHE_CAP
_COMPILE_CACHE = LRUCache(_COMPILE_CACHE_MAX)


def compile_cache_evictions() -> int:
    """Monotonic eviction count of the compile memo (compile-tier stats)."""
    return _COMPILE_CACHE.evictions


def _cache_key(source: str, opt_level: int, kwargs: dict) -> tuple:
    frozen = tuple(
        (name, tuple(sorted(value.items())) if isinstance(value, dict) else value)
        for name, value in sorted(kwargs.items())
    )
    return (source, opt_level, frozen)


def compile_program(source: str, opt_level: int = 2, **kwargs) -> Image:
    """Compile and assemble a program into a binary image.

    Results are cached per (source, options): an :class:`Image` is immutable
    after assembly (the VM copies sections into its own memory; the analyzer
    only reads), so figure runners and sweeps that rebuild the same target
    share one compiled image — and its decoded-instruction cache.  The memo
    is a bounded :class:`~repro.core.lru.LRUCache`: a sweep over more than
    ``_COMPILE_CACHE_MAX`` distinct sources keeps its most recently used
    images instead of thrashing the whole cache to zero hits.
    """
    key = _cache_key(source, opt_level, kwargs)
    image = _COMPILE_CACHE.get(key)
    if image is None:
        image = compile_to_assembler(source, opt_level=opt_level, **kwargs).assemble()
        _COMPILE_CACHE.put(key, image)
    return image
