"""Supervised worker pool: sweep execution that survives its workers.

``multiprocessing.Pool.map`` — the previous pool substrate — has exactly
the failure modes a large sweep meets first: an OOM-killed worker loses
its whole shard (and can wedge the pool), a hung scenario hangs the batch
forever, and nothing distinguishes "this scenario is poison" from "that
worker died".  :class:`SupervisedPool` replaces it with explicit worker
processes and an event loop in the parent:

- **async dispatch** — each worker owns a duplex pipe; the parent assigns
  one shard at a time and workers stream results back *per scenario*, so
  the parent always knows exactly which scenarios of a dead worker's
  shard had finished;
- **liveness monitoring** — ``multiprocessing.connection.wait`` watches
  every worker's pipe *and* process sentinel, detecting death by crash,
  OOM-kill, or signal the moment it happens; an optional per-task
  no-progress timeout catches wedged (hung but alive) workers and
  terminates them;
- **requeue + bisection** — workers execute a shard sequentially, so the
  first unfinished scenario of a dead shard is the culprit: it is requeued
  *alone* (the bisection step that isolates poison scenarios) with capped
  retries and exponential backoff, while the untouched remainder requeues
  immediately and without penalty;
- **quarantine** — a scenario that keeps killing workers (or keeps
  returning invalid payloads) past ``max_retries`` is reported as a
  failed :class:`~repro.sweep.results.SweepResult` — never silently
  dropped, and never written to the result store.

The pool counts ``retries`` / ``worker_deaths`` / ``quarantined`` on the
instance, where the CLI's degraded-sweep summary reads them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro.obs import trace as obs_trace
from repro.sweep.results import SweepResult
from repro.sweep.scenario import Scenario

__all__ = ["SupervisedPool", "WorkerDeath"]

# How an injected crash/OOM-kill surfaces in quarantine reports.
_DEATH_KINDS = {"death": "WorkerDeath", "timeout": "WorkerTimeout",
                "payload": "InvalidPayload"}


class WorkerDeath(RuntimeError):
    """Recorded (never raised across processes) when a worker dies."""


def _worker_main(conn) -> None:
    """Worker process: recv a shard, stream one payload per scenario.

    Imports the runner lazily (it imports this module at its top level)
    and warm-starts exactly like the old pool initializer.  With
    ``REPRO_PROFILE_DIR`` set each completed shard dumps a cProfile
    ``worker-<pid>-<seq>.pstats`` for the CLI's ``--profile`` merge.
    """
    from repro.sweep import runner as _runner

    _runner._warm_worker()
    profile_dir = os.environ.get(_runner.PROFILE_DIR_ENV)
    seq = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, scenarios = message
        profiler = None
        if profile_dir:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        try:
            for offset, scenario in enumerate(scenarios):
                payload = _runner._pool_worker_safe(scenario)
                conn.send(("result", task_id, offset, payload))
        finally:
            if profiler is not None:
                profiler.disable()
                seq += 1
                profiler.dump_stats(os.path.join(
                    profile_dir, f"worker-{os.getpid()}-{seq}.pstats"))
        conn.send(("done", task_id))
    conn.close()


@dataclass(slots=True)
class _Task:
    """One dispatched shard: (original index, scenario) pairs."""

    task_id: int
    items: list[tuple[int, Scenario]]
    not_before: float = 0.0       # backoff: eligible for dispatch after this
    completed: int = 0            # results received so far (sequential)

    def unfinished(self) -> list[tuple[int, Scenario]]:
        return self.items[self.completed:]


@dataclass(slots=True)
class _Worker:
    process: multiprocessing.Process
    conn: object
    task: _Task | None = None
    last_progress: float = field(default_factory=time.monotonic)


class SupervisedPool:
    """Run scenario shards across supervised workers, in input order."""

    def __init__(
        self,
        processes: int,
        *,
        max_retries: int = 2,
        task_timeout_s: float | None = None,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 10.0,
    ) -> None:
        self.processes = max(1, processes)
        self.max_retries = max(0, max_retries)
        self.task_timeout_s = task_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        # Supervision counters, read by the CLI's degraded-sweep summary.
        self.retries = 0
        self.worker_deaths = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(
        self,
        scenarios: list[Scenario],
        shards: list[list[int]],
        on_result=None,
    ) -> list[SweepResult]:
        """Execute ``scenarios`` (pre-sharded by index) to completion.

        Returns results in input order; every scenario ends as either a
        valid worker result or a quarantine result — the list has no
        holes.  ``on_result(index, result)`` fires as each result lands
        (the runner's checkpoint hook).  ``KeyboardInterrupt`` terminates
        all workers prompty and propagates.
        """
        from repro.sweep.runner import _unpack_wire  # lazy: avoids cycle

        results: list[SweepResult | None] = [None] * len(scenarios)
        # attempts[index] counts failures attributed to that scenario.
        attempts = [0] * len(scenarios)
        task_seq = iter(range(1, 1 << 30))
        queue: deque[_Task] = deque(
            _Task(next(task_seq), [(index, scenarios[index]) for index in shard])
            for shard in shards if shard
        )
        remaining = len(scenarios)
        workers: list[_Worker] = []

        def settle(index: int, result: SweepResult) -> None:
            nonlocal remaining
            if results[index] is None:
                remaining -= 1
            results[index] = result
            if on_result is not None:
                on_result(index, result)

        def quarantine(index: int, scenario: Scenario, kind: str,
                       detail: str) -> None:
            self.quarantined += 1
            status = "timeout" if kind == "timeout" else "error"
            settle(index, SweepResult(
                scenario=scenario.name,
                fingerprint=scenario.fingerprint(),
                kind=scenario.kind,
                target=scenario.description or scenario.name,
                status=status,
                metrics={"error": {
                    "type": _DEATH_KINDS.get(kind, "WorkerFailure"),
                    "message": detail,
                    "attempts": attempts[index],
                }},
                warnings=(f"quarantined after {attempts[index]} "
                          f"failed attempt(s): {detail}",),
            ))

        def requeue_failure(index: int, scenario: Scenario, kind: str,
                            detail: str) -> None:
            """One failure attributed to ``scenario``: retry or quarantine."""
            attempts[index] += 1
            if attempts[index] > self.max_retries:
                quarantine(index, scenario, kind, detail)
                return
            self.retries += 1
            backoff = min(
                self.backoff_cap_s,
                self.backoff_base_s * (2 ** (attempts[index] - 1)))
            # The culprit retries alone — bisection's fixed point: a
            # sequentially executed shard pins the failure on its first
            # unfinished scenario, so the isolating split is culprit vs
            # untouched remainder.
            queue.append(_Task(next(task_seq), [(index, scenario)],
                               not_before=time.monotonic() + backoff))

        def handle_death(worker: _Worker, kind: str, detail: str) -> None:
            self.worker_deaths += 1
            task = worker.task
            worker.task = None
            if task is None:
                return
            unfinished = task.unfinished()
            if not unfinished:
                return
            culprit_index, culprit = unfinished[0]
            requeue_failure(culprit_index, culprit, kind, detail)
            if len(unfinished) > 1:
                # The rest of the shard never ran: requeue immediately,
                # no attempt charged.
                queue.append(_Task(next(task_seq), unfinished[1:]))

        def spawn() -> _Worker:
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_worker_main, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            worker = _Worker(process=process, conn=parent_conn)
            workers.append(worker)
            return worker

        def dispatch() -> None:
            """Hand eligible queued tasks to idle workers."""
            now = time.monotonic()
            for worker in workers:
                if worker.task is not None or not worker.process.is_alive():
                    continue
                task = _pop_eligible(queue, now)
                if task is None:
                    return
                worker.task = task
                worker.last_progress = now
                try:
                    worker.conn.send(("run", task.task_id,
                                      [scenario for _, scenario in task.items]))
                except (BrokenPipeError, OSError):
                    # The worker died under us; leave the task assigned —
                    # the sentinel branch collects and requeues it.
                    continue

        with obs_trace.span("sweep.supervised", scenarios=len(scenarios),
                            shards=len(queue)):
            for _ in range(min(self.processes, max(1, len(queue)))):
                spawn()
            try:
                self._event_loop(workers, queue, remaining_fn=lambda: remaining,
                                 dispatch=dispatch, settle=settle,
                                 requeue_failure=requeue_failure,
                                 handle_death=handle_death,
                                 unpack=_unpack_wire, spawn=spawn,
                                 results=results)
            finally:
                self._shutdown(workers)
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _event_loop(self, workers, queue, *, remaining_fn, dispatch, settle,
                    requeue_failure, handle_death, unpack, spawn,
                    results) -> None:
        while remaining_fn() > 0:
            dispatch()
            waitables = {}
            for worker in workers:
                # Never filter on liveness here: a worker that dies
                # between dispatch and this point would vanish from the
                # wait set with its death unaccounted, and a dead worker
                # is exactly when these become readable — the pipe hits
                # EOF and the sentinel fires, and both stay readable
                # until the death is handled below.
                waitables[worker.conn] = worker
                waitables[worker.process.sentinel] = worker
            if not waitables:
                if not queue:
                    # No workers, nothing queued, results missing: can
                    # only happen if bookkeeping broke — fail loudly.
                    raise RuntimeError(
                        "supervised pool stalled with "
                        f"{remaining_fn()} scenario(s) unaccounted for")
                time.sleep(min(0.05, _soonest_delay(queue)))
                spawn()
                continue
            if not queue and not any(w.task is not None for w in workers):
                raise RuntimeError(
                    "supervised pool stalled with "
                    f"{remaining_fn()} scenario(s) unaccounted for")
            ready = _connection_wait(list(waitables), timeout=0.1)
            handled_death: set[int] = set()
            for item in ready:
                worker = waitables[item]
                if item is worker.conn:
                    self._drain_conn(worker, settle, requeue_failure,
                                     handle_death, unpack, handled_death)
                elif id(worker) not in handled_death:
                    # Sentinel fired: the process died (crash, OOM-kill,
                    # signal) — possibly with results still buffered in
                    # the pipe, so drain it first.
                    self._drain_conn(worker, settle, requeue_failure,
                                     handle_death, unpack, handled_death,
                                     closing=True)
                    if id(worker) not in handled_death:
                        handled_death.add(id(worker))
                        worker.process.join(timeout=1)  # reap: exitcode
                        code = worker.process.exitcode
                        handle_death(worker, "death",
                                     f"worker died (exit code {code})")
                    workers.remove(worker)
                    if queue or any(w.task for w in workers):
                        spawn()
            self._check_timeouts(workers, handle_death, spawn, queue)

    def _drain_conn(self, worker, settle, requeue_failure, handle_death,
                    unpack, handled_death, closing: bool = False) -> None:
        """Pull every buffered message off one worker's pipe."""
        while worker.conn.poll(0):
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            task = worker.task
            if message[0] == "done":
                worker.task = None
                worker.last_progress = time.monotonic()
                continue
            if message[0] != "result" or task is None:
                continue
            _, task_id, offset, payload = message
            if task_id != task.task_id:  # pragma: no cover - stale message
                continue
            index, scenario = task.items[task.completed]
            result = unpack(payload, scenario)
            worker.last_progress = time.monotonic()
            if result is None:
                # Invalid/truncated payload: charge the scenario, skip it
                # in this shard (the worker itself is healthy).
                task.completed += 1
                requeue_failure(index, scenario, "payload",
                                "worker returned an invalid payload")
                continue
            task.completed += 1
            settle(index, result)

    def _check_timeouts(self, workers, handle_death, spawn, queue) -> None:
        if self.task_timeout_s is None:
            return
        now = time.monotonic()
        for worker in list(workers):
            if worker.task is None:
                continue
            if now - worker.last_progress <= self.task_timeout_s:
                continue
            # No progress within the budget: the worker is wedged (hung
            # scenario, livelock).  Kill it — SIGKILL, not terminate(),
            # because a truly wedged process may ignore SIGTERM — and
            # treat it like any other death.
            worker.process.kill()
            worker.process.join(timeout=5)
            handle_death(worker, "timeout",
                         f"no progress for {self.task_timeout_s:g}s "
                         f"(worker killed)")
            workers.remove(worker)
            if queue or any(w.task for w in workers):
                spawn()

    def _shutdown(self, workers) -> None:
        """Stop every worker: polite first, then terminal.

        A worker whose task has delivered *all* its results is only
        wrapping up (profile dump, the trailing ``done``) — the event loop
        may exit the moment the last result lands, before that epilogue —
        so it gets the polite stop, not a mid-dump SIGTERM.
        """
        def finishing(worker: _Worker) -> bool:
            task = worker.task
            return task is None or task.completed >= len(task.items)

        for worker in workers:
            try:
                if finishing(worker) and worker.process.is_alive():
                    worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in workers:
            if worker.process.is_alive() and not finishing(worker):
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2)
            worker.conn.close()


def _pop_eligible(queue: deque, now: float) -> _Task | None:
    """The first queued task whose backoff window has passed."""
    for _ in range(len(queue)):
        task = queue.popleft()
        if task.not_before <= now:
            return task
        queue.append(task)
    return None


def _soonest_delay(queue: deque) -> float:
    now = time.monotonic()
    return max(0.01, min(task.not_before - now for task in queue))
