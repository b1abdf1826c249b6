"""The socket worker pool: sweeps that span hosts.

:class:`DistributedSupervisor` runs the engine's one manager loop
(:meth:`~repro.engine.supervisor.Supervisor.run`) over TCP workers
instead of forked children, so workers can live anywhere: the manager
listens, workers connect (self-launched local subprocesses, or
``repro-mrd worker --connect host:port`` on any machine that has the
package), and tasks flow over a length-prefixed JSON protocol.  Retry,
backoff, quarantine, deadlines and serial degradation are the loop's;
this module supplies the pool -- membership, framing and the wire codec.

**Framing.**  Every message is a 4-byte big-endian length followed by
that many bytes of UTF-8 JSON.  Messages carry a ``type``:

- ``hello``     worker -> manager on connect, carrying the protocol
  version and :data:`~repro.engine.keys.CACHE_SCHEMA`; a mismatched
  worker is rejected before it can compute anything under stale
  semantics;
- ``task``      manager -> worker: ``{index, attempt, request}`` where
  ``request`` is the wire form of an :class:`EvalRequest`
  (:func:`request_to_wire`);
- ``result``    worker -> manager: ``{index, status: "ok", result}`` or
  ``{index, status: "error", detail, digest}``;
- ``shutdown``  manager -> worker: drain and exit.

**Determinism contract.**  The wire form reconstructs a request whose
content key is *identical* to the original's (a round-trip property test
locks this): evaluators are seeded from the content key, floats survive
Python's JSON round-trip exactly (``repr``-based shortest form), and the
manager caches and journals results under the same keys as the local
pool.  A socket sweep is therefore bitwise identical to a single-process
sweep no matter which host computed what.

**Membership.**  Only workers that said a valid hello count as the pool.
A connection that sends anything but well-formed frames -- a body that is
not UTF-8 JSON, a frame that is not an object, a result without the
index of the task it holds -- is a protocol crash of that worker: it is
dropped and its in-flight task charged.  A connection that stays silent
past ``worker_wait`` is dropped.  Self-launched workers that die after
their hello are respawned; one that exits before its hello is reaped
and not replaced.  A pool left without workers for ``worker_wait`` is
exhausted, and the loop finishes the run serially in-process.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import ContextManager

from repro.core.hierarchy import Hierarchy
from repro.engine.keys import CACHE_SCHEMA, EvalRequest
from repro.engine.supervisor import Supervisor, WorkerPool, execute
from repro.topology.machine import LevelParams, MachineTopology
from repro.util.retry import RetryPolicy

#: Bump when the message layout changes; hello frames carry it and the
#: manager drops workers that disagree.
PROTOCOL_VERSION = 1

#: Upper bound on one frame; anything larger is a protocol violation
#: (results are small dicts of floats, requests a few KiB of topology).
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed or oversized frame, or a version/schema mismatch."""


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, doc: dict) -> None:
    """Serialize ``doc`` and send it as one length-prefixed frame."""
    body = json.dumps(doc, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _decode(body: bytes) -> dict:
    """Parse one frame body; anything but a UTF-8 JSON object is a
    :class:`ProtocolError`."""
    try:
        doc = json.loads(body.decode())
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise ProtocolError(f"malformed frame: {err}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(f"expected a JSON object frame, got {type(doc).__name__}")
    return doc


def recv_frame(sock: socket.socket) -> dict | None:
    """Blocking read of one frame; None on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode(body)


# -- request wire form -------------------------------------------------------


def request_to_wire(request: EvalRequest) -> dict:
    """JSON-portable form of a request, key-preserving by construction.

    Floats ride as raw JSON numbers: Python serializes them via their
    ``repr`` shortest form and parses that back to the identical double,
    so the reconstructed request canonicalises -- and therefore hashes --
    exactly like the original.
    """
    topo = request.topology
    doc: dict = {
        "model": request.model,
        "topology": {
            "name": topo.name,
            "flop_rate": topo.flop_rate,
            "root_bw": topo.root_bw,
            "levels": [
                {
                    "name": lv.name,
                    "radix": lv.radix,
                    "link_bw": lv.link_bw,
                    "link_lat": lv.link_lat,
                    "mem_bw": lv.mem_bw,
                }
                for lv in topo.levels
            ],
        },
        "seed": request.seed,
    }
    if request.hierarchy is not None:
        h = request.hierarchy
        doc["hierarchy"] = {
            "radices": list(h.radices),
            "names": list(h.names),
            "masked": h.masked,
        }
    if request.order is not None:
        doc["order"] = list(request.order)
    if request.comm_size is not None:
        doc["comm_size"] = request.comm_size
    if request.collective is not None:
        doc["collective"] = request.collective
    if request.algorithm is not None:
        doc["algorithm"] = request.algorithm
    if request.total_bytes is not None:
        doc["total_bytes"] = float(request.total_bytes)
    if request.schedule is not None and len(request.schedule):
        doc["schedule"] = [
            {
                "kind": s.kind,
                "start": s.start,
                "target": s.target,
                "level": s.level,
                "end": s.end,
                "bw_factor": s.bw_factor,
                "lat_factor": s.lat_factor,
                "slowdown": s.slowdown,
            }
            for s in request.schedule
        ]
    if request.extras:
        doc["extras"] = [[k, v] for k, v in request.extras]
    if request.workload is not None:
        doc["workload"] = request.workload
        doc["workload_params"] = [[k, v] for k, v in request.workload_params]
    return doc


def request_from_wire(doc: dict) -> EvalRequest:
    """Reconstruct an :class:`EvalRequest` from its wire form."""
    t = doc["topology"]
    topology = MachineTopology(
        name=t["name"],
        levels=tuple(
            LevelParams(
                name=lv["name"],
                radix=int(lv["radix"]),
                link_bw=float(lv["link_bw"]),
                link_lat=float(lv["link_lat"]),
                mem_bw=float(lv["mem_bw"]),
            )
            for lv in t["levels"]
        ),
        flop_rate=float(t["flop_rate"]),
        root_bw=float(t["root_bw"]),
    )
    hierarchy = None
    if "hierarchy" in doc:
        h = doc["hierarchy"]
        hierarchy = Hierarchy(
            tuple(int(r) for r in h["radices"]),
            tuple(h["names"]),
            masked=bool(h["masked"]),
        )
    schedule = None
    if "schedule" in doc:
        from repro.faults.model import FaultSchedule, FaultSpec

        schedule = FaultSchedule(
            tuple(
                FaultSpec(
                    kind=s["kind"],
                    start=float(s["start"]),
                    target=int(s["target"]),
                    level=int(s["level"]),
                    end=float(s["end"]),
                    bw_factor=float(s["bw_factor"]),
                    lat_factor=float(s["lat_factor"]),
                    slowdown=float(s["slowdown"]),
                )
                for s in doc["schedule"]
            )
        )
    extras = tuple((k, _unlist(v)) for k, v in doc.get("extras", []))
    return EvalRequest(
        model=doc["model"],
        topology=topology,
        hierarchy=hierarchy,
        order=tuple(doc["order"]) if "order" in doc else None,
        comm_size=doc.get("comm_size"),
        collective=doc.get("collective"),
        algorithm=doc.get("algorithm"),
        total_bytes=doc.get("total_bytes"),
        seed=int(doc["seed"]),
        schedule=schedule,
        extras=extras,
        workload=doc.get("workload"),
        workload_params=tuple(
            (k, _unlist(v)) for k, v in doc.get("workload_params", [])
        ),
    )


def _unlist(value):
    """JSON turned extras and parameter tuples into lists; restore
    hashable tuples.

    Canonicalisation treats lists and tuples identically, so this only
    matters for the dataclass's own hashability, not for the key.
    """
    if isinstance(value, list):
        return tuple(_unlist(v) for v in value)
    return value


# -- worker side -------------------------------------------------------------


def run_worker(
    host: str,
    port: int,
    connect_timeout: float = 10.0,
) -> int:
    """Connect to a manager and evaluate tasks until told to stop.

    Retries the initial connect for ``connect_timeout`` seconds (the
    manager may still be starting), then serves the task loop.  Each task
    runs through :func:`~repro.engine.supervisor.execute`, exactly as in
    the fork pool -- a ``crash``-mode chaos hit SIGKILLs this process and
    the manager's EOF handling retries the task elsewhere.  Returns the
    exit code.
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            break
        except OSError:
            if time.monotonic() >= deadline:
                print(
                    f"repro-mrd worker: no manager at {host}:{port} after "
                    f"{connect_timeout:.0f}s",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.2)
    sock.settimeout(None)  # tasks may run long; block freely

    try:
        send_frame(
            sock,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "schema": CACHE_SCHEMA,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            },
        )
        while True:
            try:
                msg = recv_frame(sock)
            except (ProtocolError, OSError):
                return 1
            if msg is None or msg.get("type") == "shutdown":
                return 0
            if msg.get("type") != "task":
                continue  # future message types are ignorable by design
            status, payload = execute(
                request_from_wire(msg["request"]), int(msg["attempt"])
            )
            reply = {"type": "result", "index": msg["index"], "status": status}
            if status == "ok":
                reply["result"] = payload
            else:
                reply["detail"], reply["digest"] = payload
            try:
                send_frame(sock, reply)
            except OSError:
                return 1  # manager hung up (e.g. deadline-killed this task)
    finally:
        try:
            sock.close()
        except OSError:
            pass


#: Bootstrap for self-launched local workers: no entry-point dependency,
#: inherits the parent's environment (PYTHONPATH, chaos spec, ...).
_WORKER_BOOTSTRAP = (
    "import sys; from repro.engine.distributed import run_worker; "
    "raise SystemExit(run_worker(sys.argv[1], int(sys.argv[2])))"
)


def spawn_local_worker(host: str, port: int) -> subprocess.Popen:
    """Launch one worker subprocess connecting back to ``host:port``."""
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER_BOOTSTRAP, host, str(port)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
    )


# -- manager side ------------------------------------------------------------


@dataclass(eq=False)
class _Remote:
    """One accepted connection: socket, parse buffer, and membership."""

    sock: socket.socket
    accepted: float = field(default_factory=time.monotonic)
    proc: subprocess.Popen | None = None  # set for self-launched workers
    ready: bool = False  # hello received and accepted
    buf: bytes = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _SocketPool:
    """:class:`~repro.engine.supervisor.WorkerPool` of TCP workers.

    Lives across runs (connections are expensive); entering it starts
    the clock on how long it may stay empty.
    """

    def __init__(self, host: str, port: int, spawn: int, min_workers: int,
                 worker_wait: float):
        self.min_workers = min_workers
        self.worker_wait = worker_wait
        self.protocol_rejects = 0  # workers dropped at hello
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(128)
        self._server.setblocking(False)
        self.address: tuple[str, int] = self._server.getsockname()[:2]
        self._conns: list[_Remote] = []
        self._starting: dict[int, subprocess.Popen] = {}  # launched, no hello yet
        self._lost = 0  # self-launched workers discarded since the last refill
        self._born = time.monotonic()
        self._empty_since: float | None = None
        for _ in range(spawn):
            self._spawn()

    def __enter__(self) -> "_SocketPool":
        self._empty_since = None
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def ready(self) -> list[_Remote]:
        return [w for w in self._conns if w.ready]

    def close(self) -> None:
        """Politely stop every worker and release the listen socket."""
        for w in self._conns:
            try:
                send_frame(w.sock, {"type": "shutdown"})
            except OSError:
                pass
            w.close()
            if w.proc is not None:
                try:
                    w.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    w.proc.kill()
                    w.proc.wait(timeout=5.0)
        self._conns.clear()
        for proc in self._starting.values():
            try:
                proc.kill()
                proc.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self._starting.clear()
        try:
            self._server.close()
        except OSError:
            pass

    # -- WorkerPool ----------------------------------------------------------

    def workers(self) -> list[_Remote]:
        ready = self.ready()
        if (
            len(ready) < self.min_workers
            and time.monotonic() - self._born < self.worker_wait
        ):
            return []  # let the pool fill before the first dispatch
        return ready

    def send(self, worker: _Remote, index: int, attempt: int,
             request: EvalRequest) -> None:
        send_frame(
            worker.sock,
            {
                "type": "task",
                "index": index,
                "attempt": attempt,
                "request": request_to_wire(request),
            },
        )

    def wait(self, timeout: float) -> list[tuple[_Remote, tuple]]:
        self._accept()
        socks = [self._server] + [w.sock for w in self._conns]
        try:
            readable, _, _ = select.select(socks, [], [], timeout)
        except (OSError, ValueError):
            readable = []
        events: list[tuple[_Remote, tuple]] = []
        for worker in [w for w in self._conns if w.sock in readable]:
            try:
                chunk = worker.sock.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                events.append((worker, ("lost", None, "worker connection closed")))
                continue
            worker.buf += chunk
            try:
                self._drain_frames(worker, events)
            except ProtocolError as err:
                events.append((worker, ("lost", None, f"protocol error: {err}")))
        self._expire()
        return events

    def discard(self, worker: _Remote) -> None:
        if worker not in self._conns:
            return
        self._conns.remove(worker)
        worker.close()
        if worker.proc is not None:
            try:
                worker.proc.kill()
                worker.proc.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
            self._lost += 1

    def refill(self) -> int:
        started = sum(self._spawn() for _ in range(self._lost))
        self._lost = 0
        return started

    def exhausted(self) -> bool:
        if self.ready():
            self._empty_since = None
            return False
        now = time.monotonic()
        if self._empty_since is None:
            self._empty_since = now
        return now - self._empty_since >= self.worker_wait

    # -- internals -----------------------------------------------------------

    def _spawn(self) -> bool:
        host, port = self.address
        try:
            proc = spawn_local_worker(host, port)
        except OSError:
            return False
        # The connection arrives asynchronously; the hello frame's pid
        # pairs it with this proc.
        self._starting[proc.pid] = proc
        return True

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._server.accept()
            except OSError:  # BlockingIOError: nobody is waiting
                return
            # Blocking socket: select() gates reads, and sendall() must
            # never leave a partial frame on the wire.
            sock.setblocking(True)
            self._conns.append(_Remote(sock=sock))

    def _expire(self) -> None:
        """Drop connections silent past ``worker_wait``; reap launched
        workers that exited before saying hello."""
        now = time.monotonic()
        for w in [w for w in self._conns
                  if not w.ready and now - w.accepted >= self.worker_wait]:
            self._conns.remove(w)
            w.close()
        for pid, proc in list(self._starting.items()):
            if proc.poll() is not None:
                del self._starting[pid]

    def _drain_frames(self, worker: _Remote, events: list) -> None:
        """Turn every complete frame in the worker's buffer into events."""
        while len(worker.buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(worker.buf)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
            end = _LEN.size + length
            if len(worker.buf) < end:
                return
            body, worker.buf = worker.buf[_LEN.size : end], worker.buf[end:]
            event = self._handle(worker, _decode(body))
            if event is not None:
                events.append((worker, event))

    def _handle(self, worker: _Remote, msg: dict) -> tuple | None:
        kind = msg.get("type")
        if kind == "hello":
            if (
                msg.get("version") != PROTOCOL_VERSION
                or msg.get("schema") != CACHE_SCHEMA
            ):
                self.protocol_rejects += 1
                raise ProtocolError(
                    f"worker speaks protocol {msg.get('version')}/schema "
                    f"{msg.get('schema')}, need {PROTOCOL_VERSION}/{CACHE_SCHEMA}"
                )
            worker.ready = True
            pid = msg.get("pid")
            if isinstance(pid, int):
                worker.proc = self._starting.pop(pid, None)
            return None
        if kind != "result":
            return None
        index = msg.get("index")  # the loop checks it against the task held
        if msg.get("status") != "ok":
            detail = str(msg.get("detail", "worker error"))
            return ("error", index, (detail, str(msg.get("digest", ""))))
        result = msg.get("result")
        if not isinstance(result, dict):
            detail = f"worker returned a {type(result).__name__}, not a dict"
            return ("error", index, (detail, ""))
        # JSON round-trips every float bit-exactly (repr-based shortest
        # form, inf included), so the result document is byte-identical
        # to a locally evaluated one.
        return ("ok", index, {str(k): v for k, v in result.items()})


class DistributedSupervisor(Supervisor):
    """The manager loop over a socket pool instead of forked children.

    Parameters
    ----------
    host, port:
        Listen address for worker connections.  Port 0 picks an
        ephemeral port; read :attr:`address` for the bound one.
    spawn:
        Local worker subprocesses to self-launch (and respawn on death).
        0 relies entirely on external ``repro-mrd worker`` connections.
    policy:
        Shared retry policy: attempt budget, backoff, per-task deadline.
    min_workers:
        Workers to wait for before the first dispatch (lets CI start
        the manager before its workers).  Defaults to 1 when ``spawn`` is
        0, else 0 (spawned workers arrive on their own).
    worker_wait:
        Seconds a connection may stay silent before its hello, and the
        pool may stay without workers, before the run degrades to serial
        in-process execution.

    The pool persists across :meth:`run` calls (connections are
    expensive); :attr:`stats` is reset per run like every supervisor's.
    Use as a context manager or call :meth:`close` to shut workers down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: int = 0,
        policy: RetryPolicy | None = None,
        min_workers: int | None = None,
        worker_wait: float = 30.0,
    ):
        if spawn < 0:
            raise ValueError("spawn must be >= 0")
        super().__init__(policy)
        self.spawn_target = spawn
        self.min_workers = (
            min_workers if min_workers is not None else (1 if spawn == 0 else 0)
        )
        self.worker_wait = worker_wait
        self._sockets = _SocketPool(host, port, spawn, self.min_workers, worker_wait)
        self.address: tuple[str, int] = self._sockets.address
        self._closed = False

    def __enter__(self) -> "DistributedSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def protocol_rejects(self) -> int:
        """Workers dropped at hello for a protocol or schema mismatch."""
        return self._sockets.protocol_rejects

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the self-launched local workers (tests kill these)."""
        return [w.proc.pid for w in self._sockets.ready() if w.proc is not None]

    @property
    def n_connected(self) -> int:
        return len(self._sockets.ready())

    def close(self) -> None:
        """Politely stop every worker and release the listen socket."""
        if not self._closed:
            self._closed = True
            self._sockets.close()

    def _pool(self, n_tasks: int) -> ContextManager[WorkerPool | None]:
        if self._closed:
            raise RuntimeError("supervisor is closed")
        return self._sockets


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "DistributedSupervisor",
    "send_frame",
    "recv_frame",
    "request_to_wire",
    "request_from_wire",
    "run_worker",
    "spawn_local_worker",
]
