"""Manager/worker executor: wire fidelity, bitwise determinism, and
fault tolerance.

The contract under test is the one the paper's sweeps depend on: moving
evaluation onto socket workers changes *where* requests run, never what
they produce.  Results, journal records, and cache records from a
two-worker pool must be bitwise identical to a single-process run, and
killing a worker mid-sweep must cost retries, not answers.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import threading

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.orders import all_orders
from repro.engine import (
    DistributedSupervisor,
    EvalRequest,
    SweepEngine,
    request_from_wire,
    request_to_wire,
)
from repro.engine.distributed import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.engine.evaluators import evaluate_request
from repro.engine.journal import JOURNAL_NAME
from repro.engine.keys import CACHE_SCHEMA
from repro.faults.model import FaultSchedule, FaultSpec
from repro.topology.machines import generic_cluster

NAMES = ("node", "socket", "core")


def _requests(radices=(2, 2, 4), comm_size=4, models=("round",), sizes=(1e6,)):
    names = NAMES[: len(radices)]
    h = Hierarchy(radices, names=names)
    topo = generic_cluster(radices, names=names)
    return [
        EvalRequest(
            model=model, topology=topo, hierarchy=h, order=order,
            comm_size=comm_size, collective="alltoall", total_bytes=nbytes,
        )
        for model in models
        for order in all_orders(h.depth)
        for nbytes in sizes
    ]


class TestWireFormat:
    def test_round_trip_preserves_key_with_schedule_and_extras(self):
        h = Hierarchy((2, 2), names=("node", "core"))
        topo = generic_cluster((2, 2), names=("node", "core"))
        schedule = FaultSchedule(
            (
                FaultSpec(kind="link_degrade", start=0.5, target=1, level=1,
                          end=2.5, bw_factor=0.25, lat_factor=3.0),
                FaultSpec(kind="straggler", start=0.0, target=3, slowdown=2.0),
            )
        )
        request = EvalRequest(
            model="des", topology=topo, hierarchy=h, order=(1, 0),
            comm_size=4, collective="allreduce", total_bytes=12345.678,
            seed=7, schedule=schedule,
            extras=(("flag", True), ("nested", (1, (2, 3)))),
        )
        wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert wired.key == request.key
        assert wired.extras == request.extras  # tuples restored, hashable
        assert wired.schedule.specs == schedule.specs

    def test_round_trip_preserves_workload_requests(self):
        from repro.workloads import canonical_params

        topo = generic_cluster((2, 2, 4), names=NAMES)
        request = EvalRequest(
            model="des", topology=topo, hierarchy=topo.hierarchy,
            order=(2, 1, 0), comm_size=8, workload="dnn",
            workload_params=canonical_params(
                "dnn", {"dp": 2, "tp": 2, "pp": 2, "hidden": 32, "seq": 16}
            ),
            extras=(("flag", True),),
        )
        wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert wired.workload == "dnn"
        assert wired.workload_params == request.workload_params
        assert wired.key == request.key

    def test_permanent_fault_end_inf_survives_json(self):
        h = Hierarchy((2,), names=("node",))
        topo = generic_cluster((2,), names=("node",))
        request = EvalRequest(
            model="des", topology=topo, hierarchy=h, order=(0,),
            comm_size=2, collective="allgather", total_bytes=1e6,
            schedule=FaultSchedule(
                (FaultSpec(kind="node_crash", start=1.0, target=0),)
            ),
        )
        wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
        assert wired.schedule.specs[0].end == float("inf")
        assert wired.key == request.key

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

wire_configs = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["logp", "round", "des"]),
        "radices": st.sampled_from([(2, 2), (2, 2, 4), (4, 2, 2)]),
        "comm_size": st.sampled_from([2, 4, 8]),
        "collective": st.sampled_from(["alltoall", "allgather", "allreduce"]),
        "total_bytes": st.floats(1.0, 1e9, allow_nan=False),
        "seed": st.integers(0, 2**31 - 1),
        "algorithm": st.sampled_from([None, "ring", "rd"]),
        "extras": st.sampled_from(
            [(), (("flag", True),), (("a", 1), ("b", (2.5, "x")))]
        ),
    }
)


@settings(max_examples=40, deadline=None)
@given(wire_configs)
def test_property_wire_round_trip_is_key_preserving(cfg):
    """Any representable request survives manager -> JSON -> worker with
    its content key -- and therefore its cache identity -- intact."""
    names = NAMES[: len(cfg["radices"])]
    h = Hierarchy(cfg["radices"], names=names)
    topo = generic_cluster(cfg["radices"], names=names)
    order = tuple(range(h.depth))[::-1]
    request = EvalRequest(
        model=cfg["model"], topology=topo, hierarchy=h, order=order,
        comm_size=cfg["comm_size"], collective=cfg["collective"],
        algorithm=cfg["algorithm"], total_bytes=cfg["total_bytes"],
        seed=cfg["seed"], extras=cfg["extras"],
    )
    wired = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
    assert wired.key == request.key


class TestFraming:
    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        try:
            doc = {"type": "task", "index": 3, "nested": {"x": [1, 2.5, "y"]}}
            send_frame(a, doc)
            assert recv_frame(b) == doc
        finally:
            a.close()
            b.close()

    def test_oversized_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()


@pytest.mark.slow
class TestDistributedDeterminism:
    def test_two_worker_pool_matches_single_process_bitwise(self, tmp_path):
        """Results, journal records, and cache records from a 2-worker
        socket run are bitwise identical to a jobs=1 in-process run."""
        requests = _requests(models=("logp", "round", "des"))
        dir_a, dir_b = tmp_path / "socket", tmp_path / "serial"

        engine_a = SweepEngine(cache_dir=dir_a)
        with DistributedSupervisor(spawn=2, policy=engine_a.retry_policy) as disp:
            engine_a.dispatcher = disp
            socket_results = engine_a.evaluate_many(requests)
            assert disp.n_connected >= 1

        engine_b = SweepEngine(cache_dir=dir_b, jobs=1)
        serial_results = engine_b.evaluate_many(requests)

        assert socket_results == serial_results

        # Journal: same records; only arrival order may differ.
        journal_a = sorted((dir_a / JOURNAL_NAME).read_text().splitlines())
        journal_b = sorted((dir_b / JOURNAL_NAME).read_text().splitlines())
        assert journal_a == journal_b
        assert len(journal_a) == len(requests)

        # Cache: every record file exists in both tiers with equal bytes
        # (records live under two-hex-char shard directories).
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.glob("*/*.json"))
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.glob("*/*.json"))
        assert files_a == files_b and files_a
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_worker_killed_mid_sweep_loses_nothing(self):
        """SIGKILL one worker mid-run: the sweep completes with every
        result present exactly once and bitwise equal to a serial run."""
        from repro.engine.supervisor import TaskSupervisor, is_failure

        requests = _requests(models=("round",), sizes=(1e5, 1e6))
        expected = TaskSupervisor(jobs=1).run(requests)

        killed = threading.Event()
        with DistributedSupervisor(spawn=2) as disp:
            def assassin(index, result):
                if not killed.is_set() and disp.worker_pids:
                    killed.set()
                    os.kill(disp.worker_pids[0], signal.SIGKILL)

            results = disp.run(requests, on_complete=assassin)
            stats = disp.stats

        assert killed.is_set()
        assert not any(is_failure(r) for r in results)
        assert results == expected  # nothing lost, nothing duplicated
        assert len(results) == len(requests)
        # The death was observed as a crash and/or covered by a respawn.
        assert stats.crashes >= 1 or stats.workers_respawned >= 1

    def test_empty_pool_degrades_to_serial(self):
        """No workers ever connect: the run still completes, in-process,
        and says so in its stats."""
        requests = _requests(radices=(2, 2), models=("logp",))
        engine = SweepEngine()
        with DistributedSupervisor(
            spawn=0, min_workers=1, worker_wait=0.2,
            policy=engine.retry_policy,
        ) as disp:
            engine.dispatcher = disp
            results = engine.evaluate_many(requests)
            assert disp.stats.degraded_serial
        assert results == SweepEngine(jobs=1).evaluate_many(requests)


def _fake_worker(address, reply: bytes) -> threading.Thread:
    """A worker that says a valid hello, takes one task and answers it
    with the raw frame body ``reply``; returns once the manager hangs up."""
    sock = socket.create_connection(address, timeout=30.0)
    sock.settimeout(None)  # only the manager may end the conversation
    send_frame(sock, {"type": "hello", "version": PROTOCOL_VERSION,
                      "schema": CACHE_SCHEMA, "pid": -1, "host": "fake"})

    def serve():
        with sock:
            try:
                if recv_frame(sock) is not None:
                    sock.sendall(struct.pack(">I", len(reply)) + reply)
                    while sock.recv(1 << 16):
                        pass
            except OSError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestPoolMembership:
    """Faults of single connections must cost a task attempt at most,
    never the run: the pool drops the connection and the run finishes."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"{not json",
            b"[1, 2]",
            b"\xff\xfe not utf-8",
            b'{"type": "result", "status": "ok", "result": {}}',
            b'{"type": "result", "index": "0", "status": "ok", "result": {}}',
        ],
        ids=["not-json", "not-object", "not-utf8", "no-index", "str-index"],
    )
    def test_malformed_frame_is_a_worker_crash(self, reply, run_within):
        requests = _requests(radices=(2, 2), models=("logp",))[:1]
        with DistributedSupervisor(spawn=0, worker_wait=0.5) as disp:
            fake = _fake_worker(disp.address, reply)
            results = run_within(disp, requests, seconds=20.0)
            stats = disp.stats
            fake.join(timeout=10.0)
            assert not fake.is_alive()  # the manager dropped the connection
        assert results == [evaluate_request(requests[0])]
        assert stats.crashes == 1
        assert stats.degraded_serial

    def test_silent_connection_does_not_wedge_the_run(self, run_within):
        """A connection that never says hello is not a worker: the pool
        stays empty, so the run degrades after ``worker_wait``."""
        requests = _requests(radices=(2, 2), models=("logp",))
        with DistributedSupervisor(
            spawn=0, min_workers=1, worker_wait=0.2
        ) as disp:
            silent = socket.create_connection(disp.address, timeout=30.0)
            with silent:
                results = run_within(disp, requests)
                assert disp.stats.degraded_serial
                assert disp.n_connected == 0
        assert results == [evaluate_request(r) for r in requests]
