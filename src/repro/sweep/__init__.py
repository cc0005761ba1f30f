"""Sweep orchestration: declarative scenarios, parallel execution, caching.

The paper's results are dozens of independent analyses over a scenario grid
(target × optimization level × cache geometry × observer set).  This package
turns that grid into data and machinery:

- :class:`Scenario` — one grid point as a picklable, fingerprinted value;
- :class:`SweepRunner` — fans scenarios over a process pool with in-process
  and on-disk caches keyed by the fingerprint;
- :class:`SweepResult` / :class:`ResultStore` — deterministic, structured
  results that figure tables, benchmarks, and the ``python -m repro`` CLI
  consume.

Execution is fault-tolerant: :mod:`repro.sweep.supervisor` replaces the
bare process pool with supervised workers (death detection, retry,
quarantine), :mod:`repro.sweep.faults` provides the
deterministic chaos harness that tests it, and completed results are
checkpointed into the store as they land so interrupted sweeps resume.
"""

from repro.sweep.results import AdversaryRow, BoundRow, ResultStore, SweepResult
from repro.sweep.runner import (
    SweepRunner,
    default_runner,
    execute_scenario,
    execute_scenario_safe,
)
from repro.sweep.scenario import Scenario, ScenarioError, resolve_dotted

__all__ = [
    "AdversaryRow",
    "BoundRow",
    "ResultStore",
    "Scenario",
    "ScenarioError",
    "SweepResult",
    "SweepRunner",
    "default_runner",
    "execute_scenario",
    "execute_scenario_safe",
    "resolve_dotted",
]
