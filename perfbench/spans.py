"""Span recording for traced benchmark runs, installed from outside ``src/``.

Every timed layer boundary is a wrapper placed on the module or class
attribute its caller resolves at call time (``repro.service.app.plan_query``
for the service, ``ResultCache.get`` for every engine, ...), so the program
under test is unchanged and tracing costs nothing when it is off.

A span records its name, start, end, parent, operation id, pid and thread.
Parents come from a context variable, so nesting is per thread and per
asyncio task.  A span's *self* time is its duration minus the durations of
its children; children within one context never overlap, so the self times
of one tree add up exactly to the duration of its root.

Roots come in two kinds.  *Critical* roots are the benchmark's operations
(one sweep, one HTTP query) and the server spans linked to a client
operation by id; everything under them lies on the path that makes the
operation's latency.  Other roots -- the service's executor thread, the
socket workers -- run while a critical span waits on them; their self times
are reported per layer but are not part of the critical-path sum.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time

#: The innermost open span of the current thread or task:
#: ``[span_id, op, child_ns, critical, parent_frame]``.
_frame: contextvars.ContextVar = contextvars.ContextVar("perfbench_frame", default=None)

#: Operation id a server-side task serves (set from the request target), so
#: its root spans join the client operation's critical tree.
_link: contextvars.ContextVar = contextvars.ContextVar("perfbench_link", default=None)

#: Spans kept for the trace file per process; aggregates are always exact.
MAX_KEPT_SPANS = 60_000


class Recorder:
    """Per-process span store and exact per-name aggregates."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.dropped = 0
        # name -> [calls, total_ns, self_ns, critical_self_ns]
        self.agg: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        # op id -> summed duration of critical roots linked to that op
        self.linked: dict[str, int] = {}
        self.min_self_ns = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def begin(self, op: str | None = None, critical: bool = False):
        parent = _frame.get()
        if parent is not None:
            op, critical = parent[1], parent[3]
        else:
            link = _link.get()
            if link is not None:
                op, critical = link, True
        frame = [next(self._ids), op, 0, critical, parent]
        token = _frame.set(frame)
        return frame, token, time.monotonic_ns()

    def end(self, name: str, frame: list, token, t0: int) -> int:
        """Close a span; returns its duration in nanoseconds."""
        t1 = time.monotonic_ns()
        _frame.reset(token)
        dur = t1 - t0
        own = dur - frame[2]
        parent = frame[4]
        if parent is not None:
            parent[2] += dur
        with self._lock:
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0, 0, 0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
            if frame[3]:
                entry[3] += own
                self.min_self_ns = min(self.min_self_ns, own)
                if parent is None and _link.get() is not None:
                    self.linked[frame[1]] = self.linked.get(frame[1], 0) + dur
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (
                        name,
                        t0,
                        t1,
                        frame[0],
                        parent[0] if parent is not None else None,
                        frame[1],
                        threading.get_ident(),
                        own,
                    )
                )
            else:
                self.dropped += 1
        return dur

    def reset(self) -> None:
        """Forget everything recorded so far (spans in flight keep going)."""
        with self._lock:
            self.spans.clear()
            self.agg.clear()
            self.counters.clear()
            self.linked.clear()
            self.min_self_ns = 0
            self.dropped = 0

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def op(self, op_id: str):
        """Context manager for one critical benchmark operation."""
        return _OpSpan(self, op_id)

    def dump(self) -> dict:
        """JSON-ready state for merging in the benchmark's own process."""
        with self._lock:
            return {
                "pid": self.pid,
                "agg": {k: list(v) for k, v in self.agg.items()},
                "counters": dict(self.counters),
                "linked": dict(self.linked),
                "min_self_ns": self.min_self_ns,
                "dropped": self.dropped,
                "spans": [list(s) for s in self.spans],
            }


class _OpSpan:
    def __init__(self, rec: Recorder, op_id: str) -> None:
        self.rec = rec
        self.op_id = op_id

    def __enter__(self):
        self.state = self.rec.begin(op=self.op_id, critical=True)
        return self

    def __exit__(self, *exc) -> None:
        self.wall_ns = self.rec.end("bench.op", *self.state)


def wrap(owner, attr: str, name: str, rec: Recorder) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper of the same kind."""
    orig = getattr(owner, attr)
    if inspect.iscoroutinefunction(orig):

        @functools.wraps(orig)
        async def wrapper(*args, **kwargs):
            frame, token, t0 = rec.begin()
            try:
                return await orig(*args, **kwargs)
            finally:
                rec.end(name, frame, token, t0)

    else:

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame, token, t0 = rec.begin()
            try:
                return orig(*args, **kwargs)
            finally:
                rec.end(name, frame, token, t0)

    setattr(owner, attr, wrapper)


class _WireJson:
    """Stand-in for the ``json`` module inside ``repro.engine.distributed``.

    The socket protocol serializes every frame with ``json.dumps`` and
    parses it with ``json.loads`` through that module's ``json`` global;
    timing those two calls is the wire codec's cost, and the encoded
    lengths are the bytes on the wire.
    """

    def __init__(self, real, rec: Recorder) -> None:
        self._real = real
        self._rec = rec

    def dumps(self, obj, **kwargs):
        frame, token, t0 = self._rec.begin()
        try:
            text = self._real.dumps(obj, **kwargs)
        finally:
            self._rec.end("engine.distributed.wire.encode", frame, token, t0)
        self._rec.count("engine.distributed.wire.frames")
        self._rec.count("engine.distributed.wire.bytes", len(text) + 4)
        return text

    def loads(self, text, **kwargs):
        frame, token, t0 = self._rec.begin()
        try:
            return self._real.loads(text, **kwargs)
        finally:
            self._rec.end("engine.distributed.wire.decode", frame, token, t0)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _WaitSelect:
    """Stand-in for ``select`` inside ``repro.engine.distributed``: the
    manager loop blocks in ``select.select`` while workers compute."""

    def __init__(self, real, rec: Recorder) -> None:
        self._real = real
        self._rec = rec

    def select(self, *args, **kwargs):
        frame, token, t0 = self._rec.begin()
        try:
            return self._real.select(*args, **kwargs)
        finally:
            self._rec.end("engine.distributed.wait", frame, token, t0)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures (once per process)."""
    import repro.bench.sweeps as sweeps
    import repro.core.advisor as advisor
    import repro.core.equivalence as equivalence
    import repro.core.metrics as metrics
    import repro.engine.distributed as distributed
    import repro.engine.fidelity as fidelity
    import repro.service.app as app
    import repro.service.http as http
    import repro.workloads as workloads
    from repro.engine.cache import ResultCache
    from repro.engine.core import SweepEngine
    from repro.engine.keys import EvalRequest
    from repro.ir.backends import DESBackend, LogPBackend, RoundBackend
    from repro.netsim.flows import FlowNetwork
    from repro.service.coalesce import KeyCoalescer

    targets = [
        (app, "plan_query", "core.advisor.plan_query"),
        (app, "advice_from_results", "core.advisor.advice_from_results"),
        (equivalence, "placement_key", "core.equivalence.placement_key"),
        (equivalence, "equivalence_classes", "core.equivalence.equivalence_classes"),
        (advisor, "equivalence_classes", "core.equivalence.equivalence_classes"),
        (metrics, "signature", "core.metrics.signature"),
        (sweeps, "signature", "core.metrics.signature"),
        (fidelity, "analytic_order_score", "engine.fidelity.analytic_order_score"),
        (EvalRequest, "canonical", "engine.keys.canonical"),
        (ResultCache, "get", "engine.cache.get"),
        (ResultCache, "put", "engine.cache.put"),
        (SweepEngine, "_evaluate", "engine.core.evaluate"),
        (workloads, "lower_workload", "workloads.lower"),
        (LogPBackend, "run_batch", "ir.backends.logp.run_batch"),
        (RoundBackend, "run_batch", "ir.backends.round.run_batch"),
        (DESBackend, "run", "ir.backends.des.run"),
        (FlowNetwork, "apply_rates", "netsim.flows.apply_rates"),
        (distributed.DistributedSupervisor, "run", "engine.distributed.run"),
        (distributed, "request_to_wire", "engine.distributed.wire.encode"),
        (distributed, "request_from_wire", "engine.distributed.wire.decode"),
        (app.AdvisorService, "advise", "service.advise"),
        (app.AdvisorService, "plan", "service.plan"),
        (KeyCoalescer, "evaluate", "service.coalesce"),
    ]
    for owner, attr, name in targets:
        wrap(owner, attr, name, rec)
    distributed.json = _WireJson(json, rec)
    distributed.select = _WaitSelect(distributed.select, rec)

    # The HTTP route table holds the handler functions themselves, so the
    # server resolves ``self._dispatch``; wrapping it links each request's
    # server-side spans to the client operation named in the target's
    # query string (which the server otherwise ignores).
    orig_dispatch = http.ServiceServer._dispatch

    @functools.wraps(orig_dispatch)
    async def dispatch(self, method, target, body):
        op = None
        if "?op=" in target:
            op = target.split("?op=", 1)[1]
        token = _link.set(op)
        try:
            return await orig_dispatch(self, method, target, body)
        finally:
            _link.reset(token)

    http.ServiceServer._dispatch = dispatch


def chrome_events(dump: dict, t_base_ns: int) -> list[dict]:
    """Chrome trace-event records (``ph: X``) for one process's spans."""
    pid = dump["pid"]
    out = []
    for name, t0, t1, sid, parent, op, tid, own in dump["spans"]:
        args = {"id": f"{pid}:{sid}", "self_us": own / 1e3}
        if parent is not None:
            args["parent"] = f"{pid}:{parent}"
        if op is not None:
            args["op"] = op
        out.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (t0 - t_base_ns) / 1e3,
                "dur": (t1 - t0) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return out


def program_counters(engine=None, service=None) -> dict[str, float]:
    """The program's own counters (memos, caches, supervisors), flattened.

    Process-wide memos are read from the modules that own them; engine and
    service counters from the instances the caller passes.  Callers
    subtract a baseline taken before the phase they measure.
    """
    from repro.netsim.fabric import FABRIC_CACHE_STATS
    from repro.netsim.flows import KERNEL_STATS
    from repro.workloads.base import _lower_cached

    lower = _lower_cached.cache_info()
    out = {
        "lower.hits": lower.hits,
        "lower.misses": lower.misses,
        "flows.memo_hits": KERNEL_STATS.memo_hits + KERNEL_STATS.signature_skips,
        "flows.reprices": KERNEL_STATS.memo_hits
        + KERNEL_STATS.signature_skips
        + KERNEL_STATS.solves
        + KERNEL_STATS.reference_solves,
        "fabric.hits": FABRIC_CACHE_STATS.hits,
        "fabric.misses": FABRIC_CACHE_STATS.misses,
    }
    if service is not None:
        engine = service.engine
        co = service.coalescer.stats
        out.update(
            {
                "service.requests": service.advise_requests,
                "service.plan_hits": service.plan_cache_hits,
                "service.errors": service.errors,
                "coalesce.submitted": co.submitted,
                "coalesce.coalesced": co.coalesced,
                "coalesce.deduped": co.deduped,
            }
        )
    if engine is not None:
        s = engine.stats
        out.update(
            {
                "engine.requests": s.requests,
                "engine.pruned": s.pruned,
                "engine.cache_hits": s.cache_hits,
                "engine.retries": s.retries,
                "engine.quarantined": s.quarantined,
                "engine.respawned": s.workers_respawned,
            }
        )
    return out


def delta(now: dict, base: dict) -> dict:
    return {k: v - base.get(k, 0) for k, v in now.items()}
