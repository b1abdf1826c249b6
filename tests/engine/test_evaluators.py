"""The registered evaluators: one protocol point for every backend, and
verify cells that audit the trace of their one DES replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.selector import rounds_for
from repro.core.hierarchy import Hierarchy
from repro.engine import EvalRequest
from repro.engine.evaluators import evaluate_request
from repro.engine.keys import collective_params, protocol_request
from repro.ir.backends import DESBackend
from repro.topology.machines import generic_cluster, hydra
from repro.verify import check_trace, compare_schedule, replay_rounds_des

NAMES = ("node", "socket", "core")
H = Hierarchy((2, 2, 4), names=NAMES)
TOPO = generic_cluster((2, 2, 4), names=NAMES)


def _protocol(model, topology=TOPO, hierarchy=H, comm_size=4):
    return protocol_request(
        model, topology, hierarchy, (2, 1, 0), comm_size, "collective",
        collective_params("alltoall", comm_size, 1e5),
    )


@pytest.mark.parametrize("model", ["round", "logp", "des"])
class TestProtocolPoint:
    def test_hierarchy_must_enumerate_the_topology_cores(self, model):
        # 32 processes described on hydra(4)'s 128 cores.
        request = _protocol(
            model, topology=hydra(4), hierarchy=Hierarchy((2, 2, 8)),
            comm_size=8,
        )
        with pytest.raises(ValueError, match="processes"):
            evaluate_request(request)

    def test_result_is_single_and_all_durations(self, model):
        out = evaluate_request(_protocol(model))
        assert set(out) == {"duration_single", "duration_all"}
        assert 0 < out["duration_single"] <= out["duration_all"]


@pytest.fixture
def des_runs(monkeypatch):
    """Count ``DESBackend.run`` calls."""
    calls = []
    run = DESBackend.run

    def counting(self, *args, **kwargs):
        calls.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(DESBackend, "run", counting)
    return calls


def test_verify_cell_replays_the_des_once(des_runs):
    p, total = 8, 65536.0
    topology = generic_cluster((p,))
    out = evaluate_request(
        EvalRequest(
            model="verify", topology=topology, comm_size=p,
            collective="alltoall", algorithm="pairwise", total_bytes=total,
        )
    )
    assert len(des_runs) == 1
    # The audit over the differential's own replay matches an audit over
    # an independent replay of the same schedule.
    cores = np.arange(p, dtype=np.int64)
    rounds = rounds_for("alltoall", p, total, "pairwise")
    _t, _timings, trace = replay_rounds_des(topology, cores, rounds)
    inv = check_trace(topology, trace)
    diff = compare_schedule(topology, cores, rounds, total_bytes=total)
    assert out["invariants_ok"] == float(inv.ok)
    assert out["n_violations"] == float(len(inv.violations))
    assert out["differential_rel_err"] == float(diff.rel_err)
