"""Supervised worker pool: sweep execution that survives its workers.

``multiprocessing.Pool.map`` — the previous pool substrate — has exactly
the failure modes a large sweep meets first: an OOM-killed worker loses
its work (and can wedge the pool), a hung scenario hangs the batch
forever, and nothing distinguishes "this scenario is poison" from "that
worker died".  :class:`SupervisedPool` replaces it with explicit worker
processes and an event loop in the parent:

- **pull dispatch** — each worker owns a duplex pipe and holds at most
  one scenario: an idle worker is sent the next queued scenario and
  replies with its result, so load balance comes from how fast each
  worker actually finishes, with no cost prediction;
- **liveness monitoring** — ``multiprocessing.connection.wait`` watches
  every worker's pipe *and* process sentinel, detecting death by crash,
  OOM-kill, or signal the moment it happens; an optional per-task
  no-progress timeout catches wedged (hung but alive) workers and
  terminates them;
- **retry** — a dead worker's culprit is always the one scenario it
  held: that scenario is requeued with capped retries and exponential
  backoff;
- **quarantine** — a scenario that keeps killing workers (or keeps
  returning invalid payloads) past ``max_retries`` is reported as a
  failed :class:`~repro.sweep.results.SweepResult` — never silently
  dropped, and never written to the result store.

The pool counts ``retries`` / ``worker_deaths`` / ``quarantined`` on the
instance, where the CLI's degraded-sweep summary reads them.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro.sweep.results import SweepResult
from repro.sweep.scenario import Scenario

__all__ = ["SupervisedPool", "WorkerDeath"]

# How an injected crash/OOM-kill surfaces in quarantine reports.
_DEATH_KINDS = {"death": "WorkerDeath", "timeout": "WorkerTimeout",
                "payload": "InvalidPayload"}

# Retry backoff: a scenario's n-th failure delays its retry by
# min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (n - 1)) seconds.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 10.0


class WorkerDeath(RuntimeError):
    """Recorded (never raised across processes) when a worker dies."""


def _worker_main(conn) -> None:
    """Worker process: recv a scenario, send back its payload, repeat.

    Imports the runner lazily (it imports this module at its top level)
    and warm-starts exactly like the old pool initializer.
    """
    from repro.sweep import runner as _runner

    _runner._warm_worker()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, scenario = message
        conn.send(("result", task_id, _runner._pool_worker_safe(scenario)))
    conn.close()


@dataclass(slots=True)
class _Task:
    """One dispatch of one scenario: its batch index and retry backoff."""

    task_id: int
    index: int
    scenario: Scenario
    not_before: float = 0.0       # backoff: eligible for dispatch after this


@dataclass(slots=True)
class _Worker:
    process: multiprocessing.Process
    conn: object
    task: _Task | None = None
    last_progress: float = field(default_factory=time.monotonic)


class SupervisedPool:
    """Run scenarios across supervised workers, in input order."""

    def __init__(
        self,
        processes: int,
        *,
        max_retries: int = 2,
        task_timeout_s: float | None = None,
    ) -> None:
        self.processes = max(1, processes)
        self.max_retries = max(0, max_retries)
        self.task_timeout_s = task_timeout_s
        # Supervision counters, read by the CLI's degraded-sweep summary.
        self.retries = 0
        self.worker_deaths = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self, scenarios: list[Scenario],
            on_result=None) -> list[SweepResult]:
        """Execute ``scenarios`` to completion, one at a time per worker.

        Workers take scenarios in submission order.  Returns results in
        input order; every scenario ends as either a valid worker result
        or a quarantine result — the list has no holes.
        ``on_result(index, result)`` fires as each result lands (the
        runner's checkpoint hook).  ``KeyboardInterrupt`` terminates all
        workers promptly and propagates.
        """
        from repro.sweep.runner import _unpack_wire  # lazy: avoids cycle

        self._unpack = _unpack_wire
        self._on_result = on_result
        self._results: list[SweepResult | None] = [None] * len(scenarios)
        # _attempts[index] counts failures attributed to that scenario.
        self._attempts = [0] * len(scenarios)
        self._remaining = len(scenarios)
        self._task_ids = itertools.count(1)
        self._queue: deque[_Task] = deque(
            _Task(next(self._task_ids), index, scenario)
            for index, scenario in enumerate(scenarios))
        self._workers: list[_Worker] = []
        for _ in range(min(self.processes, len(scenarios))):
            self._spawn()
        try:
            self._event_loop()
        finally:
            self._shutdown()
        return [result for result in self._results if result is not None]

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _settle(self, index: int, result: SweepResult) -> None:
        if self._results[index] is None:
            self._remaining -= 1
        self._results[index] = result
        if self._on_result is not None:
            self._on_result(index, result)

    def _quarantine(self, task: _Task, kind: str, detail: str) -> None:
        self.quarantined += 1
        scenario = task.scenario
        attempts = self._attempts[task.index]
        status = "timeout" if kind == "timeout" else "error"
        self._settle(task.index, SweepResult(
            scenario=scenario.name,
            fingerprint=scenario.fingerprint(),
            kind=scenario.kind,
            target=scenario.description or scenario.name,
            status=status,
            metrics={"error": {
                "type": _DEATH_KINDS.get(kind, "WorkerFailure"),
                "message": detail,
                "attempts": attempts,
            }},
            warnings=(f"quarantined after {attempts} "
                      f"failed attempt(s): {detail}",),
        ))

    def _fail(self, task: _Task, kind: str, detail: str) -> None:
        """One failure attributed to ``task``'s scenario: retry or quarantine."""
        self._attempts[task.index] += 1
        attempts = self._attempts[task.index]
        if attempts > self.max_retries:
            self._quarantine(task, kind, detail)
            return
        self.retries += 1
        backoff = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** (attempts - 1)))
        self._queue.append(_Task(next(self._task_ids), task.index,
                                 task.scenario,
                                 not_before=time.monotonic() + backoff))

    def _handle_death(self, worker: _Worker, kind: str, detail: str) -> None:
        """Count a death; the scenario the worker held is its culprit."""
        self.worker_deaths += 1
        task, worker.task = worker.task, None
        if task is not None:
            self._fail(task, kind, detail)

    def _spawn(self) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process=process, conn=parent_conn))

    def _replace(self, worker: _Worker) -> None:
        """Drop a dead worker, spawning a successor while work remains."""
        self._workers.remove(worker)
        if self._queue or any(w.task for w in self._workers):
            self._spawn()

    def _dispatch(self) -> None:
        """Send each idle live worker the next eligible scenario."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.task is not None or not worker.process.is_alive():
                continue
            task = _pop_eligible(self._queue, now)
            if task is None:
                return
            worker.task = task
            worker.last_progress = now
            try:
                worker.conn.send(("run", task.task_id, task.scenario))
            except OSError:
                # The worker died under us; leave the task assigned —
                # the sentinel branch collects and requeues it.
                continue

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _event_loop(self) -> None:
        workers, queue = self._workers, self._queue
        while self._remaining > 0:
            self._dispatch()
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
                        f"{self._remaining} scenario(s) unaccounted for")
                time.sleep(min(0.05, _soonest_delay(queue)))
                self._spawn()
                continue
            if not queue and not any(w.task is not None for w in workers):
                raise RuntimeError(
                    "supervised pool stalled with "
                    f"{self._remaining} scenario(s) unaccounted for")
            for item in _connection_wait(list(waitables), timeout=0.1):
                worker = waitables[item]
                self._drain(worker)
                if item is not worker.conn:
                    # Sentinel fired: the process died (crash, OOM-kill,
                    # signal) — the drain above took any result it sent
                    # first.
                    worker.process.join(timeout=1)  # reap: exitcode
                    code = worker.process.exitcode
                    self._handle_death(worker, "death",
                                       f"worker died (exit code {code})")
                    self._replace(worker)
            self._check_timeouts()

    def _drain(self, worker: _Worker) -> None:
        """Pull every buffered message off one worker's pipe."""
        while worker.conn.poll(0):
            try:
                _, task_id, payload = worker.conn.recv()
            except (EOFError, OSError):
                return
            task = worker.task
            if task is None or task_id != task.task_id:
                continue  # pragma: no cover - stale message
            # Free the worker and send it its next scenario before this
            # result is unpacked and checkpointed, so the store rewrite
            # overlaps the worker's next analysis instead of delaying it.
            worker.task = None
            worker.last_progress = time.monotonic()
            self._dispatch()
            result = self._unpack(payload, task.scenario)
            if result is None:
                # Invalid/truncated payload: charge the scenario (the
                # worker itself is healthy).
                self._fail(task, "payload",
                           "worker returned an invalid payload")
            else:
                self._settle(task.index, result)

    def _check_timeouts(self) -> None:
        if self.task_timeout_s is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
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
            self._handle_death(worker, "timeout",
                               f"no progress for {self.task_timeout_s:g}s "
                               f"(worker killed)")
            self._replace(worker)

    def _shutdown(self) -> None:
        """Stop every worker: idle ones politely, busy ones terminally.

        An idle worker gets ``stop`` so it can exit cleanly;
        a worker still holding a scenario (an interrupted or failed run)
        is terminated.
        """
        for worker in self._workers:
            if worker.task is not None:
                worker.process.terminate()
                continue
            try:
                worker.conn.send(("stop",))
            except OSError:
                pass
        for worker in self._workers:
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
