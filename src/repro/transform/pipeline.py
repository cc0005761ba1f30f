"""Pipeline plumbing: specs → passes → transformed images.

A :class:`TransformUnit` is what passes operate on: the lowered IR program,
the entry point, the names of the secret parameters (derived from the input
spec's ``high_values`` argument positions), and the layout directives that
:func:`repro.lang.driver.compile_ir_program` forwards to the code generator.
Passes mutate the unit; :func:`transformed_image` runs a whole pipeline and
assembles the result, behind an LRU cache keyed like the driver's compile
cache (source × pipeline fingerprint × options) and capped like it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.lru import DEFAULT_CACHE_CAP, LRUCache
from repro.isa.image import Image
from repro.lang.driver import compile_ir_program
from repro.obs import trace as obs_trace
from repro.lang.ir import IRFunction, IRProgram
from repro.lang.lower import lower_program
from repro.lang.parser import parse
from repro.transform.passes import (
    AlignTablesPass,
    BranchBalancePass,
    PreloadPass,
    ScatterGatherPass,
    TransformPass,
)
from repro.transform.spec import TransformError, TransformSpec, as_specs

__all__ = [
    "PASS_REGISTRY", "TransformUnit", "apply_pipeline", "build_passes",
    "build_unit", "targeted_observers", "transformed_image",
]

PASS_REGISTRY: dict[str, type[TransformPass]] = {
    PreloadPass.name: PreloadPass,
    ScatterGatherPass.name: ScatterGatherPass,
    AlignTablesPass.name: AlignTablesPass,
    BranchBalancePass.name: BranchBalancePass,
}


@dataclass
class TransformUnit:
    """One kernel mid-transformation: IR plus layout directives."""

    program: IRProgram
    entry: str
    secret_params: tuple[str, ...]
    layout: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def entry_function(self) -> IRFunction:
        try:
            return self.program.functions[self.entry]
        except KeyError:
            raise TransformError(
                f"no function {self.entry!r} in the program") from None

    def global_names(self) -> set[str]:
        return {decl.name for decl in self.program.globals_}

    def add_global(self, decl) -> None:
        self.program.globals_ = tuple(self.program.globals_) + (decl,)

    def align_data(self, name: str, boundary: int,
                   clear_pad: bool = False) -> None:
        """Layout directive: align a global, optionally dropping its pad."""
        alignments = self.layout.get("data_align") or {}
        alignments[name] = boundary
        self.layout["data_align"] = alignments
        if clear_pad:
            pads = dict(self.layout.get("data_pad") or {})
            pads.pop(name, None)
            self.layout["data_pad"] = pads

    def note(self, message: str) -> None:
        self.notes.append(message)


def build_passes(specs) -> list[TransformPass]:
    """Instantiate the registry passes a spec tuple names."""
    passes = []
    for spec in as_specs(specs):
        pass_class = PASS_REGISTRY.get(spec.name)
        if pass_class is None:
            raise TransformError(
                f"unknown transform pass {spec.name!r} "
                f"(available: {', '.join(sorted(PASS_REGISTRY))})")
        try:
            passes.append(pass_class(**spec.params_dict()))
        except TypeError as problem:
            raise TransformError(
                f"bad parameters for pass {spec.name!r}: {problem}") from None
    return passes


def targeted_observers(specs) -> tuple[str, ...]:
    """The union of the observers the named passes aim to improve."""
    names: set[str] = set()
    for transform_pass in build_passes(specs):
        names.update(transform_pass.targets)
    return tuple(sorted(names))


def build_unit(source: str, entry: str, secret_args=(),
               **compile_kwargs) -> TransformUnit:
    """Lower a kernel source into a fresh, mutable transform unit.

    ``secret_args`` are the positional indexes of the entry function's
    secret arguments (the input spec's ``high_values`` positions); they are
    resolved to parameter names here so passes can seed their taint
    analysis.  ``compile_kwargs`` are the layout arguments of
    :func:`repro.lang.driver.compile_ir_program` (dict-valued ones are
    copied — passes may mutate them).
    """
    program = lower_program(parse(source))
    fn = program.functions.get(entry)
    if fn is None:
        raise TransformError(f"no function {entry!r} in the program")
    for index in secret_args:
        if not 0 <= index < len(fn.params):
            raise TransformError(
                f"secret argument index {index} out of range for "
                f"{entry!r} ({len(fn.params)} parameters)")
    layout = {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in compile_kwargs.items()
    }
    return TransformUnit(
        program=program, entry=entry,
        secret_params=tuple(fn.params[index] for index in secret_args),
        layout=layout)


def apply_pipeline(unit: TransformUnit, specs) -> TransformUnit:
    """Run every pass of a pipeline over the unit, in order."""
    for transform_pass in build_passes(specs):
        with obs_trace.span(f"transform.pass.{transform_pass.name}",
                            entry=unit.entry):
            transform_pass.run(unit)
    return unit


# ----------------------------------------------------------------------
# Cached source → transformed image compilation
# ----------------------------------------------------------------------

_IMAGE_CACHE = LRUCache(DEFAULT_CACHE_CAP)


def _cache_key(source: str, specs: tuple[TransformSpec, ...], entry: str,
               secret_args: tuple, opt_level: int, kwargs: dict) -> tuple:
    frozen = tuple(
        (name, tuple(sorted(value.items())) if isinstance(value, dict) else value)
        for name, value in sorted(kwargs.items())
    )
    pipeline = tuple(spec.fingerprint() for spec in specs)
    return (source, pipeline, entry, secret_args, opt_level, frozen)


def transformed_image(source: str, transforms, entry: str, secret_args=(),
                      opt_level: int = 2, **compile_kwargs) -> Image:
    """Compile a kernel with a countermeasure pipeline applied.

    The counterpart of :func:`repro.lang.driver.compile_program` for
    transformed variants: same caching discipline (images are immutable
    after assembly; an :class:`~repro.core.lru.LRUCache` capped at
    ``DEFAULT_CACHE_CAP``), with the pipeline fingerprint joining the cache
    key.
    """
    specs = as_specs(transforms)
    key = _cache_key(source, specs, entry, tuple(secret_args), opt_level,
                     compile_kwargs)
    image = _IMAGE_CACHE.get(key)
    if image is None:
        with obs_trace.span("transform.compile", entry=entry,
                            passes="+".join(spec.name for spec in specs)):
            unit = build_unit(source, entry, secret_args=secret_args,
                              **compile_kwargs)
            apply_pipeline(unit, specs)
            image = compile_ir_program(unit.program, opt_level=opt_level,
                                       **unit.layout)
        _IMAGE_CACHE.put(key, image)
    return image
