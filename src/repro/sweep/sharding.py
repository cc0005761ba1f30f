"""Cost-aware sharding of sweep batches across pool workers.

``SweepRunner._run_pool`` used to hand the pool a blind ``chunksize``: the
batch was cut into equal-count chunks, so one chunk could hold every
expensive full-geometry analysis while another held only sub-millisecond VM
measurements — the sweep then waits on the unlucky worker.  This module
replaces count balancing with *duration* balancing:

- :func:`predict_costs` estimates each scenario's runtime, preferring real
  wall-clock timings from a ``BENCH_sweep.json``-style log (matched by
  scenario name against the log's CLI keys and test ids) and falling back
  to a size heuristic derived from the scenario's declarative fields;
- :func:`calculate_shards` assigns scenarios to one shard per worker with
  the classic greedy longest-processing-time rule: place the most expensive
  remaining scenario on the least-loaded shard.

Predictions only steer the *assignment*; results are reassembled in input
order and every scenario runs exactly once, so a stale or empty timing log
degrades balance, never correctness.
"""

from __future__ import annotations

import heapq

from repro.sweep.scenario import KERNEL, Scenario

__all__ = ["predict_costs", "calculate_shards", "heuristic_cost"]

#: Baseline cost (in pseudo-seconds) of an analysis scenario with no size
#: parameters; kernel scenarios are concrete VM replays and run much faster
#: than abstract analyses of the same target.
_BASE_COST = {KERNEL: 0.02}
_DEFAULT_BASE = 0.05

#: Declarative size parameters that scale an analysis, with the per-unit
#: weight each contributes to the heuristic (measured orders of magnitude,
#: not a model: entry bytes dominate, limb counts are secondary).
_SIZE_WEIGHTS = (
    ("nbytes", 1 / 64),
    ("entry_bytes", 1 / 64),
    ("nlimbs", 1 / 16),
    ("rounds", 1 / 16),
)


def heuristic_cost(scenario: Scenario) -> float:
    """A relative runtime estimate from the scenario's declarative fields.

    Only the ordering matters (the greedy packer compares costs, it never
    interprets them as seconds), so the weights just need to rank a
    full-geometry gather above an 8-limb toy above a VM replay.
    """
    cost = _BASE_COST.get(scenario.kind, _DEFAULT_BASE)
    params = dict(scenario.params)
    for key, weight in _SIZE_WEIGHTS:
        value = params.get(key)
        if isinstance(value, (int, float)) and value > 0:
            cost += value * weight
    return cost


def predict_costs(scenarios: list[Scenario],
                  timings: dict[str, float] | None) -> list[float]:
    """Predicted runtime per scenario, in input order.

    A timing log entry matches a scenario named ``name`` when its key is
    the CLI key ``cli/sweep/<name>``, or a pytest node id whose test is
    ``test_<name>`` or ``test_<name>_<variant>`` (e.g.
    ``benchmarks/bench_fig14_lookup.py::test_figure14b_full_limbs``).  A
    plain substring match would hand ``aes-O2-64B`` the time of
    ``cli/sweep/aes-O2-64B-preload-aligned``.  The largest match wins, as
    the log may record both a toy-geometry and a full-geometry variant and
    over-estimating an expensive scenario is the safe direction for the
    longest-first packer.  Unmatched scenarios fall back to
    :func:`heuristic_cost`.
    """
    costs = []
    for scenario in scenarios:
        predicted = None
        if timings:
            name = scenario.name
            matches = [value for key, value in timings.items()
                       if _measures(key, name)
                       and isinstance(value, (int, float))]
            if matches:
                predicted = float(max(matches))
        if predicted is None or predicted <= 0:
            predicted = heuristic_cost(scenario)
        costs.append(predicted)
    return costs


def _measures(key: str, name: str) -> bool:
    """Whether the timing-log ``key`` timed the scenario ``name``."""
    if key == f"cli/sweep/{name}":
        return True
    _, separator, test = key.rpartition("::")
    return bool(separator) and (test == f"test_{name}"
                                or test.startswith(f"test_{name}_"))


def calculate_shards(costs: list[float], n_shards: int) -> list[list[int]]:
    """Partition ``range(len(costs))`` into ``n_shards`` duration-balanced
    shards (lists of indices), greedy longest-first.

    Every index lands in exactly one shard.  Ties are broken by shard
    number and then by input order (the sort is stable), so the partition
    is deterministic.  Empty shards are kept so callers can zip the result
    with a worker list; shards of an over-provisioned pool just stay empty.
    """
    n_shards = max(1, n_shards)
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    if not costs:
        return shards
    # (load, shard index) heap: pop = least-loaded shard, ties by index.
    heap = [(0.0, shard_index) for shard_index in range(n_shards)]
    heapq.heapify(heap)
    order = sorted(range(len(costs)), key=lambda index: -costs[index])
    for index in order:
        load, shard_index = heapq.heappop(heap)
        shards[shard_index].append(index)
        heapq.heappush(heap, (load + costs[index], shard_index))
    return shards
