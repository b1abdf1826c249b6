"""The supervised executor: crash/hang/flaky recovery, quarantine,
degradation -- over both worker pools.

The execution faults come from the deterministic chaos harness
(:mod:`repro.engine.chaos`), driven through the ``REPRO_ENGINE_CHAOS``
environment variable exactly as CI's chaos-smoke job drives it.  Socket
workers are subprocesses: they inherit that variable, but not a
monkeypatched evaluator registry, so the cases run over both pools use
the real ``logp`` evaluator.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import EvalRequest, is_failure
from repro.engine import distributed as dist_mod
from repro.engine import supervisor as sup_mod
from repro.engine.chaos import CHAOS_ENV, ChaosSpec, parse_spec
from repro.engine.distributed import DistributedSupervisor
from repro.engine.evaluators import EVALUATORS, evaluate_request
from repro.engine.supervisor import EvalFailure, TaskSupervisor
from repro.topology.machines import generic_cluster
from repro.util.retry import RetryPolicy


H = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))


def _reqs(n: int, model: str = "round") -> list[EvalRequest]:
    return [
        EvalRequest(
            model=model,
            topology=TOPO,
            hierarchy=H,
            order=(0, 1, 2),
            comm_size=4,
            collective="alltoall",
            total_bytes=float((i + 1) * 100_000),
        )
        for i in range(n)
    ]


def _total_bytes(req: EvalRequest) -> float:
    """The payload of a collective-shaped request (keyed as a workload)."""
    return float(dict(req.workload_params).get("total_bytes", 0.0))


def _cheap_eval(req: EvalRequest) -> dict:
    return {"value": _total_bytes(req)}


@pytest.fixture
def cheap_round(monkeypatch):
    monkeypatch.setitem(EVALUATORS, "round", _cheap_eval)


def _expected(reqs):
    return [{"value": _total_bytes(r)} for r in reqs]


class _Pool:
    """Builds two-worker supervisors of one pool kind, and the real
    ``logp`` requests both kinds run."""

    def __init__(self, kind: str, request):
        self.kind = kind
        self._request = request

    def make(self, policy=None, worker_wait=30.0):
        if self.kind == "fork":
            return TaskSupervisor(jobs=2, policy=policy)
        sup = DistributedSupervisor(spawn=2, policy=policy, worker_wait=worker_wait)
        self._request.addfinalizer(sup.close)
        return sup

    @staticmethod
    def reqs(n: int) -> list[EvalRequest]:
        return _reqs(n, model="logp")

    @staticmethod
    def expected(reqs):
        return [evaluate_request(r) for r in reqs]

    def kill_workers(self, sup) -> None:
        """SIGKILL every worker of ``sup``'s pool and wait until each has
        exited, leaving it unreaped for the pool to collect."""
        if self.kind == "fork":
            pids = [proc.pid for proc in mp.active_children()]
        else:
            pids = sup.worker_pids
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


@pytest.fixture
def pool(request):
    return _Pool("fork", request)


class _OverSockets:
    """Mixin re-running a test class over the socket pool."""

    @pytest.fixture
    def pool(self, request):
        return _Pool("socket", request)


class TestHealthyPath:
    def test_serial_and_parallel_identical(self, cheap_round):
        reqs = _reqs(5)
        serial = TaskSupervisor(jobs=1).run(reqs)
        parallel = TaskSupervisor(jobs=3).run(reqs)
        assert serial == parallel == _expected(reqs)

    def test_on_complete_fires_once_per_task(self, cheap_round):
        reqs = _reqs(4)
        seen: list[int] = []
        TaskSupervisor(jobs=2).run(reqs, on_complete=lambda i, out: seen.append(i))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_empty_batch(self):
        assert TaskSupervisor(jobs=2).run([]) == []

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            TaskSupervisor(jobs=0)

    def test_stats_reset_per_run(self, cheap_round, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0")
        sup = TaskSupervisor(jobs=2, policy=RetryPolicy(max_attempts=2))
        for _ in range(2):
            sup.run(_reqs(3))
            assert sup.stats.exceptions == 3 and sup.stats.dispatched == 6


class TestChaosRecovery:
    """Injected first-attempt faults; every retry must recover bitwise."""

    def test_flaky_retries_recover(self, pool, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0")
        reqs = pool.reqs(4)
        sup = pool.make(RetryPolicy(max_attempts=3))
        assert sup.run(reqs) == pool.expected(reqs)
        assert sup.stats.exceptions == 4
        assert sup.stats.retries == 4
        assert sup.stats.quarantined == 0

    def test_worker_crash_detected_and_retried(self, pool, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash=1.0")
        reqs = pool.reqs(3)
        sup = pool.make(RetryPolicy(max_attempts=3))
        assert sup.run(reqs) == pool.expected(reqs)
        assert sup.stats.crashes == 3
        assert sup.stats.workers_respawned >= 1
        assert sup.stats.quarantined == 0

    def test_hung_worker_killed_at_deadline(self, pool, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang=1.0,hang_s=60")
        reqs = pool.reqs(2)
        sup = pool.make(RetryPolicy(max_attempts=3, timeout=0.4))
        assert sup.run(reqs) == pool.expected(reqs)
        assert sup.stats.timeouts == 2
        assert sup.stats.quarantined == 0

    def test_worker_killed_while_idle_is_replaced(self, pool, run_within):
        # Killing the pool from on_complete leaves the worker that just
        # reported idle and dead: dispatching to it must requeue the task
        # uncharged and replace the worker, not raise BrokenPipeError.
        reqs = pool.reqs(6)
        sup = pool.make()
        killed: list[int] = []

        def assassin(index, outcome):
            if not killed:
                killed.append(index)
                pool.kill_workers(sup)

        out = run_within(sup, reqs, on_complete=assassin)
        assert killed
        assert out == pool.expected(reqs)
        assert sup.stats.quarantined == 0
        assert sup.stats.workers_respawned >= 1

    def test_serial_chaos_only_flaky_fires(self, cheap_round, monkeypatch):
        # crash/hang must never fire in-process: they would kill or stall
        # the test runner itself.
        monkeypatch.setenv(CHAOS_ENV, "crash=1.0,hang=1.0,hang_s=60,flaky=1.0")
        reqs = _reqs(2)
        sup = TaskSupervisor(jobs=1, policy=RetryPolicy(max_attempts=2))
        assert sup.run(reqs) == _expected(reqs)
        assert sup.stats.crashes == 0 and sup.stats.timeouts == 0
        assert sup.stats.exceptions == 2


class TestQuarantine:
    def test_exhausted_budget_yields_eval_failure(self, pool, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0,attempts=99")  # never recovers
        reqs = pool.reqs(2)
        sup = pool.make(RetryPolicy(max_attempts=2))
        out = sup.run(reqs)
        assert all(isinstance(o, EvalFailure) for o in out)
        assert sup.stats.quarantined == 2
        failure = out[0]
        assert failure.key == reqs[0].key
        assert failure.model == "logp"
        assert failure.cause == "exception"
        assert len(failure.attempts) == 2
        assert failure.attempts[0].backoff > 0
        assert "quarantined after 2 attempt(s)" in failure.summary()

    def test_failure_record_shape(self, pool, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0,attempts=99")
        sup = pool.make(RetryPolicy(max_attempts=2))
        failure = sup.run(pool.reqs(1))[0]
        doc = failure.to_result()
        assert is_failure(doc)
        assert doc["failure_cause"] == "exception"
        assert doc["failure_attempts"] == 2.0
        assert len(doc["failure_history"]) == 2
        assert doc["failure_history"][0]["cause"] == "exception"
        assert not is_failure({"value": 1.0})
        assert not is_failure(None)

    def test_one_bad_task_does_not_poison_the_batch(self, pool):
        # One always-failing task must not discard the batch's completed
        # results; an unknown collective fails in every evaluator process.
        reqs = pool.reqs(3)
        reqs[1] = EvalRequest(
            model="logp", topology=TOPO, hierarchy=H, order=(0, 1, 2),
            comm_size=4, collective="permanently-broken", total_bytes=1e5,
        )
        sup = pool.make(RetryPolicy(max_attempts=2))
        out = sup.run(reqs)
        assert out[0] == evaluate_request(reqs[0])
        assert out[2] == evaluate_request(reqs[2])
        assert isinstance(out[1], EvalFailure)
        assert "permanently-broken" in out[1].attempts[-1].detail


class TestDegradation:
    def test_unspawnable_pool_degrades_to_serial(self, pool, monkeypatch,
                                                 run_within):
        def no_workers(ctx):
            raise OSError("fork refused")

        # The fork pool cannot start a child; every self-launched socket
        # worker exits before its hello.
        monkeypatch.setattr(sup_mod, "_Worker", no_workers)
        monkeypatch.setattr(dist_mod, "_WORKER_BOOTSTRAP", "raise SystemExit(3)")
        reqs = pool.reqs(3)
        sup = pool.make(worker_wait=0.5)
        assert run_within(sup, reqs) == pool.expected(reqs)
        assert sup.stats.degraded_serial
        assert sup.stats.workers_respawned == 0


class TestChaosRecoveryOverSockets(_OverSockets, TestChaosRecovery):
    test_serial_chaos_only_flaky_fires = None  # no pool involved


class TestQuarantineOverSockets(_OverSockets, TestQuarantine):
    pass


class TestDegradationOverSockets(_OverSockets, TestDegradation):
    pass


class TestChaosSpec:
    def test_parse_spec(self):
        spec = parse_spec("crash=0.1, hang=0.05,flaky=0.2,hang_s=5,attempts=2")
        assert spec == ChaosSpec(
            crash=0.1, hang=0.05, flaky=0.2, hang_s=5.0, attempts=2
        )
        assert spec.active

    def test_parse_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            parse_spec("crash=0.1,frobnicate=1")

    def test_inactive_without_rates(self):
        assert not ChaosSpec(hang_s=99.0).active
