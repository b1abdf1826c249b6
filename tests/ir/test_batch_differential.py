"""Differential properties: the batch path never diverges from scalar.

The bitwise contract of the vectorized evaluation path is that batching
changes *cost*, never *results*: for any sampled frontier of (hierarchy,
communicator, collective, payload sizes, orders), driving it through
``SweepEngine.evaluate_batch()`` must reproduce N scalar ``evaluate()``
calls bit for bit -- equal ``repr`` on every duration, hence identical order rankings
-- for both the ``logp`` and ``round`` backends.  A second property pins
the same contract one layer down, on ``run_batch`` vs ``run`` of the
backend instances themselves, with size pools chosen to straddle the
bruck/pairwise auto-selection threshold so alignment-group splitting is
exercised.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bench.microbench import comm_members  # noqa: E402
from repro.core.hierarchy import Hierarchy  # noqa: E402
from repro.core.orders import all_orders  # noqa: E402
from repro.engine import SweepEngine  # noqa: E402
from repro.engine.keys import collective_params, protocol_request  # noqa: E402
from repro.ir import collective_program, create_backend  # noqa: E402
from repro.topology.machines import generic_cluster  # noqa: E402

RADICES = [(2, 2, 4), (4, 2, 2), (2, 4, 2), (2, 2, 2, 2)]
#: Payload pool straddling the alltoall bruck/pairwise threshold
#: (per-rank 4096 bytes) at the sampled communicator sizes, so one
#: frontier can mix auto-selected algorithms across its size axis.
SIZE_POOL = [2e3, 16e3, 1e5, 1e6, 8e6]
BACKENDS = ["logp", "round"]


@st.composite
def frontiers(draw):
    radices = draw(st.sampled_from(RADICES))
    h = Hierarchy(radices)
    divisors = [d for d in range(2, h.size + 1) if h.size % d == 0]
    comm_size = draw(st.sampled_from(divisors))
    collective = draw(
        st.sampled_from(["alltoall", "allgather", "allreduce"])
    )
    orders = draw(
        st.lists(
            st.sampled_from(all_orders(len(radices))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    sizes = draw(
        st.lists(
            st.sampled_from(SIZE_POOL), min_size=1, max_size=3, unique=True
        )
    )
    return {
        "radices": radices,
        "hierarchy": h,
        "comm_size": comm_size,
        "collective": collective,
        "orders": tuple(orders),
        "sizes": tuple(sizes),
    }


def _frontier_requests(backend, topo, cfg):
    """The frontier's protocol requests, order-major:
    ``index = o * n_sizes + s``."""
    cells = [
        collective_params(cfg["collective"], cfg["comm_size"], nbytes)
        for nbytes in cfg["sizes"]
    ]
    return [
        protocol_request(
            backend, topo, cfg["hierarchy"], order, cfg["comm_size"],
            "collective", params,
        )
        for order in cfg["orders"]
        for params in cells
    ]


def _rank_orders(cfg, results, key):
    """Orders fastest-first by summed duration across sizes, ties
    broken by frontier position."""
    n_sizes = len(cfg["sizes"])
    totals = [
        sum(r[key] for r in results[o * n_sizes : (o + 1) * n_sizes])
        for o in range(len(cfg["orders"]))
    ]
    ranked = sorted(range(len(totals)), key=lambda o: (totals[o], o))
    return [cfg["orders"][o] for o in ranked]


@pytest.mark.parametrize("backend", BACKENDS)
class TestEvaluateBatchDifferential:
    @given(cfg=frontiers())
    @settings(max_examples=25)
    def test_bitwise_equal_and_same_ranking(self, backend, cfg):
        topo = generic_cluster(cfg["radices"])
        requests = _frontier_requests(backend, topo, cfg)
        batched = SweepEngine().evaluate_batch(requests)
        scalar_engine = SweepEngine()
        scalar = [scalar_engine.evaluate(r) for r in requests]
        assert [repr(r) for r in batched] == [repr(r) for r in scalar]
        for key in ("duration_all", "duration_single"):
            assert _rank_orders(cfg, batched, key) == _rank_orders(
                cfg, scalar, key
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestRunBatchDifferential:
    @given(cfg=frontiers())
    @settings(max_examples=25)
    def test_kernel_bitwise_equal(self, backend, cfg):
        topo = generic_cluster(cfg["radices"])
        be = create_backend(backend)
        members = comm_members(
            cfg["hierarchy"], cfg["orders"][0], cfg["comm_size"]
        )
        programs = [
            collective_program(
                cfg["collective"], cfg["comm_size"], total_bytes
            )
            for total_bytes in cfg["sizes"]
        ]
        for placements in ([members[0]], list(members)):
            batched = be.run_batch(programs, topo, placements)
            assert len(batched) == len(programs)
            for program, got in zip(programs, batched):
                ref = be.run(program, topo, placements)
                assert repr(ref.time) == repr(got.time)
                assert ref.per_round == got.per_round
