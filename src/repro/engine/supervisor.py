"""Supervised task execution: one manager loop over two worker pools.

Replaces the fire-and-forget ``multiprocessing.Pool.map`` the engine
used to fan out with: that model loses *every* completed result in a
batch when one worker raises, hangs forever on a SIGKILLed worker, and
cannot retry anything.  :meth:`Supervisor.run` is a libEnsemble-style
manager/worker loop instead, written once and driven over a small
:class:`WorkerPool` interface with two implementations:

- the fork pool (:class:`TaskSupervisor`): children of this process, one
  ``multiprocessing`` pipe each, spawned per run;
- the socket pool (:class:`~repro.engine.distributed.DistributedSupervisor`):
  TCP workers on any host, kept across runs.

The loop owns everything that decides *what happens to a task*:

- **per-task dispatch** of ready tasks to idle workers, lowest index
  first, so the loop always knows which task a worker holds;
- **crash detection** -- a worker the pool reports lost (SIGKILL,
  segfault, OOM kill, a malformed frame) fails only its current task;
  the pool replaces it and the task re-enters the queue.  A task that
  could not even be handed over requeues *uncharged*;
- **hang detection** -- a task that exceeds ``policy.timeout`` wall
  seconds gets its worker discarded and is treated as a failed attempt;
- **retry with exponential backoff** via the shared
  :class:`repro.util.retry.RetryPolicy`; a task is not redispatched
  before its backoff expires, but other tasks keep flowing;
- **quarantine** -- a task that fails ``max_attempts`` times yields a
  structured :class:`EvalFailure` (cause, attempt history, traceback
  digest) instead of an exception that aborts the sweep;
- **graceful degradation** -- when the pool reports itself exhausted
  (no worker left and none coming), the remaining tasks run serially
  in-process, on the same path as ``jobs=1`` (no timeouts, but retries
  and quarantine still apply).

Completion order is nondeterministic; *results* are not: they are
reported and returned by task index, and every evaluator is seeded from
its request's content key, so a supervised run is bitwise identical to a
serial one no matter which workers died along the way.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import heapq
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, ContextManager, Protocol, Sequence

from repro.engine import chaos
from repro.engine.keys import EvalRequest
from repro.util.retry import RetryPolicy

#: Result-dict marker distinguishing quarantined failures from results.
FAILURE_MARKER = "engine_failure"

#: Longest the manager loop blocks waiting on its pool before re-checking
#: deadlines, backoffs and pool membership (seconds).
_POLL_S = 0.05


def is_failure(result: dict | None) -> bool:
    """True when ``result`` is a quarantined :class:`EvalFailure` record."""
    return bool(result) and FAILURE_MARKER in result  # type: ignore[operator]


@dataclass(frozen=True)
class TaskAttempt:
    """One failed (or final successful) try of a supervised task."""

    attempt: int  # 0-based
    cause: str  # "exception" | "crash" | "timeout"
    detail: str  # exception repr / exit code / deadline
    traceback_digest: str  # sha256[:16] of the worker traceback ("" if none)
    elapsed: float  # wall seconds the attempt ran
    backoff: float  # pause charged before the next attempt


@dataclass(frozen=True)
class EvalFailure:
    """A task that exhausted its attempt budget, with full history."""

    key: str
    model: str
    cause: str  # the final attempt's cause
    attempts: tuple[TaskAttempt, ...]

    def to_result(self) -> dict:
        """The structured record stored in the task's result slot.

        Marked by :data:`FAILURE_MARKER` so consumers can filter; never
        written to the cache or the journal, so the key is re-evaluated
        by the next run.
        """
        last = self.attempts[-1]
        return {
            FAILURE_MARKER: 1.0,
            "failure_key": self.key,
            "failure_model": self.model,
            "failure_cause": self.cause,
            "failure_detail": last.detail,
            "failure_traceback_digest": last.traceback_digest,
            "failure_attempts": float(len(self.attempts)),
            "failure_history": [
                {
                    "attempt": a.attempt,
                    "cause": a.cause,
                    "detail": a.detail,
                    "traceback_digest": a.traceback_digest,
                    "elapsed_s": a.elapsed,
                    "backoff_s": a.backoff,
                }
                for a in self.attempts
            ],
        }

    def summary(self) -> str:
        return (
            f"{self.model} task {self.key[:12]} quarantined after "
            f"{len(self.attempts)} attempt(s): {self.cause} ({self.attempts[-1].detail})"
        )


@dataclass
class SupervisorStats:
    """Counters of one :meth:`Supervisor.run` call.

    Reset at the start of every run, whichever pool it uses: the engine
    merges each run's counters into its own, so they must be deltas.
    """

    dispatched: int = 0  # task attempts sent to workers (or run inline)
    retries: int = 0  # failed attempts that re-entered the queue
    crashes: int = 0  # attempts lost to worker death
    timeouts: int = 0  # attempts lost to the task deadline
    exceptions: int = 0  # attempts lost to evaluator exceptions
    quarantined: int = 0  # tasks that exhausted the attempt budget
    workers_respawned: int = 0
    degraded_serial: bool = False  # pool died; remainder ran in-process

    def merge_into(self, doc: dict) -> None:
        doc.update(
            retries=self.retries,
            crashes=self.crashes,
            timeouts=self.timeouts,
            worker_exceptions=self.exceptions,
            quarantined=self.quarantined,
            workers_respawned=self.workers_respawned,
            degraded_serial=self.degraded_serial,
        )


def _traceback_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def execute(request: EvalRequest, attempt: int, serial: bool = False) -> tuple[str, Any]:
    """Run one task attempt: inject chaos, evaluate, report the outcome.

    The body every worker and the in-process path share.  Returns
    ``("ok", result)`` or ``("error", (detail, traceback_digest))``.
    ``evaluate_request`` is looked up on its module at call time, so a
    substitute installed there reaches every path.  Importing the
    registry here also covers spawn-mode children.
    """
    import repro.engine.evaluators as evaluators

    try:
        chaos.maybe_inject(request.key, attempt, serial=serial)
        return "ok", evaluators.evaluate_request(request)
    except Exception as err:  # noqa: BLE001 - reported, retried, quarantined
        return "error", (repr(err), _traceback_digest(traceback.format_exc()))


class WorkerPool(Protocol):
    """The worker processes :meth:`Supervisor.run` hands tasks to.

    A pool only moves tasks and outcomes and manages membership; every
    decision about a task (charging, retry, quarantine, deadlines) is
    the loop's.  Workers are opaque hashable handles.  Entering the pool
    starts a run; leaving it ends the run.
    """

    def __enter__(self) -> "WorkerPool": ...

    def __exit__(self, *exc: object) -> None: ...

    def workers(self) -> list[Any]:
        """Workers that may be given a task now, busy ones included."""

    def send(self, worker: Any, index: int, attempt: int, request: EvalRequest) -> None:
        """Hand task ``index`` to ``worker``; ``OSError`` if undeliverable."""

    def wait(self, timeout: float) -> list[tuple[Any, tuple]]:
        """Block up to ``timeout`` seconds; return ``(worker, event)`` pairs.

        An event is ``("ok", index, result)``, ``("error", index, (detail,
        digest))`` or ``("lost", None, detail)`` for a worker that died
        or broke protocol.
        """

    def discard(self, worker: Any) -> None:
        """Stop and forget ``worker`` (lost, overran a deadline, undeliverable)."""

    def refill(self) -> int:
        """Start replacements for discarded workers; return how many started."""

    def exhausted(self) -> bool:
        """True when no worker is left and none is coming."""


@dataclass(frozen=True)
class _Running:
    index: int
    started: float
    deadline: float | None


class Supervisor:
    """The manager loop; subclasses only choose the pool it drives."""

    def __init__(self, policy: RetryPolicy | None = None):
        self.policy = policy or RetryPolicy()
        self.stats = SupervisorStats()

    def _pool(self, n_tasks: int) -> ContextManager[WorkerPool | None]:
        """The pool for a run of ``n_tasks`` (None: run in-process)."""
        raise NotImplementedError

    def run(
        self,
        requests: Sequence[EvalRequest],
        on_complete: Callable[[int, dict | EvalFailure], None] | None = None,
    ) -> list[dict | EvalFailure]:
        """Evaluate ``requests``; results align with the input order.

        ``on_complete(index, outcome)`` fires from the supervising
        process the moment each task finishes (success dict or
        :class:`EvalFailure`) -- the engine uses it to cache and journal
        incrementally, so completed work survives any later crash.
        """
        self.stats = stats = SupervisorStats()
        if not requests:
            return []
        policy = self.policy
        history: list[list[TaskAttempt]] = [[] for _ in requests]
        ready = list(range(len(requests)))  # may start now; sorted
        backoff: list[tuple[float, int]] = []  # heap of (not_before, index)
        results: dict[int, dict | EvalFailure] = {}
        running: dict[Any, _Running] = {}

        def settle(index: int, outcome: dict | EvalFailure) -> None:
            results[index] = outcome
            if on_complete is not None:
                on_complete(index, outcome)

        def charge(index: int, cause: str, detail: str, digest: str,
                   elapsed: float) -> None:
            """Record a failed attempt: requeue it after backoff, or quarantine."""
            attempts = history[index]
            attempt_no = len(attempts)
            if cause == "crash":
                stats.crashes += 1
            elif cause == "timeout":
                stats.timeouts += 1
            else:
                stats.exceptions += 1
            final = attempt_no + 1 >= policy.max_attempts
            pause = 0.0 if final else policy.backoff(attempt_no)
            attempts.append(
                TaskAttempt(attempt_no, cause, detail, digest, elapsed, pause)
            )
            if final:
                stats.quarantined += 1
                settle(index, EvalFailure(
                    key=requests[index].key,
                    model=requests[index].model,
                    cause=cause,
                    attempts=tuple(attempts),
                ))
            else:
                stats.retries += 1
                heapq.heappush(backoff, (time.monotonic() + pause, index))

        def report(index: int, status: str, payload: Any, elapsed: float) -> None:
            if status == "ok":
                settle(index, payload)
            else:
                detail, digest = payload
                charge(index, "exception", detail, digest, elapsed)

        with self._pool(len(requests)) as pool:
            while len(results) < len(requests):
                now = time.monotonic()
                while backoff and backoff[0][0] <= now:
                    bisect.insort(ready, heapq.heappop(backoff)[1])
                if pool is not None and pool.exhausted():
                    # Nothing is in flight once the pool is empty.
                    pool, stats.degraded_serial = None, True
                if pool is None:
                    if not ready:
                        time.sleep(backoff[0][0] - now)  # everything backs off
                        continue
                    index = ready.pop(0)
                    stats.dispatched += 1
                    status, payload = execute(
                        requests[index], len(history[index]), serial=True
                    )
                    report(index, status, payload, time.monotonic() - now)
                    continue

                # 1. Feed idle workers the ready tasks, lowest index first.
                for worker in pool.workers():
                    if not ready:
                        break
                    if worker in running:
                        continue
                    index = ready[0]
                    try:
                        pool.send(worker, index, len(history[index]), requests[index])
                    except OSError:
                        # The worker died while idle; the task never
                        # started, so it stays queued uncharged.
                        pool.discard(worker)
                        continue
                    ready.pop(0)
                    deadline = None if policy.timeout is None else now + policy.timeout
                    running[worker] = _Running(index, now, deadline)
                    stats.dispatched += 1

                # 2. Wait for outcomes, waking for the next deadline or
                #    backoff expiry.
                wake = [r.deadline for r in running.values() if r.deadline is not None]
                if backoff:
                    wake.append(backoff[0][0])
                timeout = _POLL_S
                if wake:
                    timeout = min(timeout, max(1e-4, min(wake) - now))
                for worker, (status, index, payload) in pool.wait(timeout):
                    job = running.pop(worker, None)
                    if status != "lost" and job is not None and job.index == index:
                        report(index, status, payload, time.monotonic() - job.started)
                        continue
                    # The worker died, or answered a task it does not hold.
                    pool.discard(worker)
                    if job is not None:
                        if status != "lost":
                            payload = f"reply for task {index} while holding {job.index}"
                        charge(job.index, "crash", payload, "",
                               time.monotonic() - job.started)

                # 3. Discard workers whose task overran its deadline.
                now = time.monotonic()
                for worker, job in list(running.items()):
                    if job.deadline is not None and now > job.deadline:
                        del running[worker]
                        pool.discard(worker)
                        charge(job.index, "timeout",
                               f"task exceeded {policy.timeout}s deadline",
                               "", now - job.started)
                stats.workers_respawned += pool.refill()
        return [results[i] for i in range(len(requests))]


# -- the fork pool -----------------------------------------------------------


def _worker_main(conn) -> None:
    """Fork-pool worker: receive ``(index, attempt, request)``, reply with
    ``(status, index, payload)`` from :func:`execute`, until ``None``."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if msg is None:
            return
        index, attempt, request = msg
        status, payload = execute(request, attempt)
        try:
            conn.send((status, index, payload))
        except (OSError, ValueError):
            return


class _Worker:
    """A forked child process plus its dispatch pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, ctx):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()  # parent keeps only its end
        self.conn = parent_conn

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Polite shutdown: sentinel, short join, then kill."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class _ForkPool:
    """:class:`WorkerPool` of forked children, one pipe each, for one run.

    A child that dies closes its end of the pipe, so its death reads as
    EOF; a discarded child is replaced once.  A pool that cannot start a
    single child is exhausted from the outset.
    """

    def __init__(self, size: int):
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._workers: list[_Worker] = []
        self._lost = 0  # discarded since the last refill
        for _ in range(size):
            self._spawn()

    def __enter__(self) -> "_ForkPool":
        return self

    def __exit__(self, *exc: object) -> None:
        for worker in self._workers:
            worker.stop()

    def _spawn(self) -> bool:
        try:
            self._workers.append(_Worker(self._ctx))
        except (OSError, RuntimeError, ValueError):
            return False
        return True

    def workers(self) -> list[_Worker]:
        return list(self._workers)

    def send(self, worker: _Worker, index: int, attempt: int,
             request: EvalRequest) -> None:
        worker.conn.send((index, attempt, request))

    def wait(self, timeout: float) -> list[tuple[_Worker, tuple]]:
        by_conn = {w.conn: w for w in self._workers}
        events = []
        for conn in _conn_wait(list(by_conn), timeout=timeout):
            worker = by_conn[conn]
            try:
                events.append((worker, conn.recv()))
            except (EOFError, OSError):
                worker.proc.join(timeout=1.0)
                detail = f"worker died (exit code {worker.proc.exitcode})"
                events.append((worker, ("lost", None, detail)))
        return events

    def discard(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
            worker.kill()
            self._lost += 1

    def refill(self) -> int:
        started = sum(self._spawn() for _ in range(self._lost))
        self._lost = 0
        return started

    def exhausted(self) -> bool:
        return not self._workers


class TaskSupervisor(Supervisor):
    """Run evaluation requests to completion under a retry policy.

    Parameters
    ----------
    jobs:
        Worker processes; 1 runs everything serially in-process (retries
        and quarantine still apply, crash/hang supervision does not).
    policy:
        Shared :class:`~repro.util.retry.RetryPolicy`: attempt budget,
        wall-clock backoff, and the per-task ``timeout`` deadline.
    """

    def __init__(self, jobs: int = 1, policy: RetryPolicy | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        super().__init__(policy)
        self.jobs = jobs

    def _pool(self, n_tasks: int) -> ContextManager[WorkerPool | None]:
        if self.jobs == 1 or n_tasks == 1:
            return contextlib.nullcontext()
        return _ForkPool(min(self.jobs, n_tasks))
