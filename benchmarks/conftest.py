"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's tables or figures and asserts
its shape against the paper's reported numbers, so ``pytest
benchmarks/bench_*.py`` doubles as the reproduction harness.  Analyses are
deterministic, so a single measured round is representative.  Speed claims
are measured by ``perfbench/run.py``; ``tests/test_work_budget.py`` pins
the exact work the engine does.
"""

import pytest


@pytest.fixture()
def once(benchmark):
    """Run the benchmarked callable exactly once (deterministic analyses)."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run
