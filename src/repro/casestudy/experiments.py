"""Experiment runners regenerating the paper's leakage tables (§8.3, §8.4).

Each ``figure_*`` function returns a structured result carrying the measured
bits per (cache, observer) cell alongside the paper's reported value, and a
``format()`` rendering in the paper's table style.  Entry sizes are
parameterizable so the same code serves fast tests (small tables) and the
full paper geometry (384-byte entries) in the benchmarks.

All figures run through the sweep layer: each one is a declarative
:class:`~repro.sweep.scenario.Scenario` from
:mod:`repro.casestudy.scenarios`, executed by the process-wide
:func:`~repro.sweep.runner.default_runner`.  Scenarios shared between
figures (e.g. the Figure 14c gather analysis and the CacheBleed bank
analysis) are therefore computed once per process, and ``figure_*`` results
serialize losslessly for the CLI and the result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudy import scenarios, targets
from repro.core.leakage import format_bits
from repro.core.observers import AccessKind
from repro.sweep import Scenario, SweepResult, default_runner

__all__ = [
    "FigureCell", "FigureResult", "ScenarioFailed", "run_scenario",
    "figure7a", "figure7b", "figure8",
    "figure14a", "figure14b", "figure14c", "figure14d",
    "cachebleed_bank_analysis", "figure15_effect",
]

I, D = AccessKind.INSTRUCTION, AccessKind.DATA


class ScenarioFailed(RuntimeError):
    """A figure's scenario ended without bounds (timeout, oom or error)."""

    def __init__(self, result: SweepResult) -> None:
        super().__init__(result.failure())
        self.result = result


def run_scenario(scenario: Scenario) -> SweepResult:
    """Run one scenario through the shared sweep runner (cached).

    Raises :class:`ScenarioFailed` for a result that is not ``ok``: a
    failed result carries no bounds for a figure table to read.
    """
    result = default_runner().run_one(scenario)
    if not result.ok:
        raise ScenarioFailed(result)
    return result


@dataclass(frozen=True, slots=True)
class FigureCell:
    """One table cell: measured vs paper-reported bits."""

    cache: str
    observer: str
    measured_bits: float
    paper_bits: float | None

    @property
    def matches_paper(self) -> bool:
        if self.paper_bits is None:
            return True
        return abs(self.measured_bits - self.paper_bits) < 0.05


@dataclass(slots=True)
class FigureResult:
    """One reproduced figure/table."""

    figure: str
    title: str
    cells: list[FigureCell] = field(default_factory=list)
    analysis: SweepResult | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(cell.matches_paper for cell in self.cells)

    def cell(self, cache: str, observer: str) -> FigureCell:
        for cell in self.cells:
            if cell.cache == cache and cell.observer == observer:
                return cell
        raise KeyError((cache, observer))

    def format(self) -> str:
        lines = [f"{self.figure}: {self.title}",
                 f"{'Observer':<10} {'address':>12} {'block':>12} {'b-block':>12}"]
        for cache in ("I-Cache", "D-Cache"):
            row = [cache.ljust(10)]
            for observer in ("address", "block", "b-block"):
                try:
                    cell = self.cell(cache, observer)
                except KeyError:
                    row.append("-".rjust(12))
                    continue
                text = format_bits(cell.measured_bits)
                if cell.paper_bits is not None and not cell.matches_paper:
                    text += f" (paper {format_bits(cell.paper_bits)})"
                row.append(text.rjust(12))
            lines.append(" ".join(row))
        lines.extend(self.notes)
        return "\n".join(lines)


def _table(figure: str, title: str, sweep: SweepResult,
           paper: dict[tuple[str, str], float]) -> FigureResult:
    result = FigureResult(figure=figure, title=title, analysis=sweep)
    report = sweep.report
    for cache, kind in (("I-Cache", I), ("D-Cache", D)):
        row = report.paper_row(kind)
        for observer in ("address", "block", "b-block"):
            result.cells.append(FigureCell(
                cache=cache, observer=observer,
                measured_bits=row[observer],
                paper_bits=paper.get((cache, observer)),
            ))
    return result


# ----------------------------------------------------------------------
# Figure 7: square-and-multiply vs square-and-always-multiply (§8.3)
# ----------------------------------------------------------------------

def figure7a() -> FigureResult:
    """Square-and-multiply from libgcrypt 1.5.2: 1 bit everywhere."""
    sweep = run_scenario(scenarios.sqm_scenario(opt_level=2, line_bytes=64))
    paper = {(cache, observer): 1.0
             for cache in ("I-Cache", "D-Cache")
             for observer in ("address", "block", "b-block")}
    return _table("Figure 7a", "square-and-multiply, libgcrypt 1.5.2 "
                  "(-O2, 64B lines)", sweep, paper)


def figure7b() -> FigureResult:
    """Square-and-always-multiply from 1.5.3: only the I-cache leaks, and
    not to stuttering observers."""
    sweep = run_scenario(scenarios.sqam_scenario(opt_level=2, line_bytes=64))
    paper = {
        ("I-Cache", "address"): 1.0, ("I-Cache", "block"): 1.0,
        ("I-Cache", "b-block"): 0.0,
        ("D-Cache", "address"): 0.0, ("D-Cache", "block"): 0.0,
        ("D-Cache", "b-block"): 0.0,
    }
    return _table("Figure 7b", "square-and-always-multiply, libgcrypt 1.5.3 "
                  "(-O2, 64B lines)", sweep, paper)


def figure8() -> FigureResult:
    """Same countermeasure at -O0 with 32-byte lines: 1 bit everywhere."""
    sweep = run_scenario(scenarios.sqam_scenario(opt_level=0, line_bytes=32))
    paper = {(cache, observer): 1.0
             for cache in ("I-Cache", "D-Cache")
             for observer in ("address", "block", "b-block")}
    return _table("Figure 8", "square-and-always-multiply, libgcrypt 1.5.3 "
                  "(-O0, 32B lines)", sweep, paper)


# ----------------------------------------------------------------------
# Figure 14: windowed exponentiation table management (§8.4)
# ----------------------------------------------------------------------

def figure14a() -> FigureResult:
    """Unprotected lookup (libgcrypt 1.6.1): 5.6/2.3/2.3 data-cache bits."""
    sweep = run_scenario(scenarios.lookup_scenario(opt_level=2))
    paper = {
        ("I-Cache", "address"): 1.0, ("I-Cache", "block"): 1.0,
        ("I-Cache", "b-block"): 1.0,
        ("D-Cache", "address"): 5.6439,  # log2(50): 7x7 correlated lookups + 1
        ("D-Cache", "block"): 2.3219,    # log2(5)
        ("D-Cache", "b-block"): 2.3219,
    }
    result = _table("Figure 14a", "secret-dependent lookup, libgcrypt 1.6.1",
                    sweep, paper)
    result.notes.append(
        "note: 5.6 bits = two correlated 7-entry lookups counted "
        "independently (the paper's documented imprecision)")
    return result


def figure14b(nlimbs: int = 24) -> FigureResult:
    """libgcrypt 1.6.3 defensive copy: zero leakage everywhere."""
    sweep = run_scenario(scenarios.secure_retrieve_scenario(nlimbs=nlimbs))
    paper = {(cache, observer): 0.0
             for cache in ("I-Cache", "D-Cache")
             for observer in ("address", "block", "b-block")}
    return _table("Figure 14b", "secure table access, libgcrypt 1.6.3",
                  sweep, paper)


def figure14c(nbytes: int = targets.PAPER_ENTRY_BYTES) -> FigureResult:
    """Scatter/gather: block-trace safe, address-trace leaks 3 bits/access."""
    sweep = run_scenario(scenarios.gather_scenario(nbytes=nbytes))
    paper = {
        ("I-Cache", "address"): 0.0, ("I-Cache", "block"): 0.0,
        ("I-Cache", "b-block"): 0.0,
        ("D-Cache", "address"): 3.0 * nbytes,  # 1152 at the paper's 384 bytes
        ("D-Cache", "block"): 0.0,
        ("D-Cache", "b-block"): 0.0,
    }
    result = _table("Figure 14c", "scatter/gather, OpenSSL 1.0.2f "
                    f"({nbytes}-byte entries)", sweep, paper)
    if nbytes == targets.PAPER_ENTRY_BYTES:
        result.notes.append("paper: 1152 bit = 3 bits x 384 accesses")
    return result


def figure14d(nbytes: int = targets.PAPER_ENTRY_BYTES) -> FigureResult:
    """Defensive gather (OpenSSL 1.0.2g): zero leakage everywhere."""
    sweep = run_scenario(scenarios.defensive_gather_scenario(nbytes=nbytes))
    paper = {(cache, observer): 0.0
             for cache in ("I-Cache", "D-Cache")
             for observer in ("address", "block", "b-block")}
    return _table("Figure 14d", "defensive gather, OpenSSL 1.0.2g "
                  f"({nbytes}-byte entries)", sweep, paper)


def cachebleed_bank_analysis(nbytes: int = targets.PAPER_ENTRY_BYTES):
    """§8.4: the bank-trace observer sees 1 bit per access of gather.

    Returns ``(measured_bits, paper_bits)`` — 384 bits at paper geometry.
    Shares the Figure 14c scenario, so when both run in one process the
    analysis happens once.
    """
    sweep = run_scenario(scenarios.gather_scenario(nbytes=nbytes))
    measured = sweep.report.bits(D, "bank")
    return measured, 1.0 * nbytes


def figure15_effect() -> dict[int, float]:
    """Figure 15: the I-cache b-block leak exists at -O2 and vanishes at -O1.

    Returns {opt_level: b-block bits}.
    """
    return {
        opt: run_scenario(scenarios.lookup_scenario(opt_level=opt))
        .report.bits(I, "block", stuttering=True)
        for opt in (1, 2)
    }
