"""Unit tests for the Section 4.1 micro-benchmark harness (small scale)."""

import numpy as np
import pytest

from repro.bench.microbench import (
    collective_schedule,
    comm_members,
    paper_sizes,
    size_sweep,
)
from repro.core.hierarchy import Hierarchy
from repro.ir import get_backend
from repro.topology.machines import hydra

H = Hierarchy((4, 2, 2, 8), ("node", "socket", "group", "core"))
TOPO = hydra(4)


class TestSchedule:
    def test_schedule_respects_comm_cores(self):
        cores = np.array([0, 32, 64, 96])
        sched = collective_schedule("alltoall", cores, 4e6, algorithm="pairwise")
        for rnd in sched.rounds:
            assert set(rnd.src.tolist()) <= set(cores.tolist())
            assert set(rnd.dst.tolist()) <= set(cores.tolist())

    def test_algorithm_override(self):
        cores = np.arange(8)
        pw = collective_schedule("alltoall", cores, 8e6, algorithm="pairwise")
        br = collective_schedule("alltoall", cores, 8e6, algorithm="bruck")
        assert len(pw.rounds) == 7
        assert len(br.rounds) == 3


def _point(order, comm_size, collective, nbytes, topology=TOPO, hierarchy=H):
    """One protocol point through the size sweep."""
    (series,) = size_sweep(
        topology, hierarchy, [order], comm_size, collective, [nbytes]
    )
    return series.points[0]


class TestRunMicrobench:
    def test_point_fields(self):
        point = _point((0, 1, 2, 3), 16, "alltoall", 1e6)
        assert point.duration_single > 0
        assert point.duration_all >= point.duration_single * 0.99
        assert point.bandwidth_single == pytest.approx(1e6 / point.duration_single)

    def test_all_comms_never_faster_than_single(self):
        orders = [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 2, 0)]
        for s in size_sweep(TOPO, H, orders, 16, "alltoall", [8e6]):
            p = s.points[0]
            assert p.duration_all >= p.duration_single * 0.999

    def test_hierarchy_must_match_topology(self):
        wrong = Hierarchy((2, 2, 8))
        with pytest.raises(ValueError, match="processes"):
            size_sweep(TOPO, wrong, [(2, 1, 0)], 4, "alltoall", [1e6])

    def test_spread_vs_packed_shapes_small_machine(self):
        # The Figure 3 regime scaled down: 8 nodes, 16-rank comms (the
        # packed comm contends internally, the spread one does not).
        topo8, h8 = hydra(8), Hierarchy((8, 2, 2, 8))
        spread = _point((0, 1, 2, 3), 16, "alltoall", 32e6, topo8, h8)
        packed = _point((3, 2, 1, 0), 16, "alltoall", 32e6, topo8, h8)
        # One communicator: spread wins; all communicators: packed wins.
        assert spread.bandwidth_single > packed.bandwidth_single
        assert packed.bandwidth_all > spread.bandwidth_all
        # Packed is scenario-independent.
        assert packed.bandwidth_all == pytest.approx(
            packed.bandwidth_single, rel=0.05
        )

    def test_fabric_reuse_consistent(self):
        # The round backend keeps one Fabric per topology: a repeated
        # point reuses its pattern cache and reproduces the same times.
        fabric = get_backend("round").fabric(TOPO)
        a = _point((0, 1, 2, 3), 16, "alltoall", 4e6)
        b = _point((0, 1, 2, 3), 16, "alltoall", 4e6)
        assert get_backend("round").fabric(TOPO) is fabric
        assert a == b


class TestSweep:
    def test_series_structure(self):
        sizes = [1e5, 1e6, 1e7]
        (s,) = size_sweep(TOPO, H, [(1, 3, 2, 0)], 32, "allgather", sizes)
        assert len(s.points) == 3
        assert s.comm_size == 32
        assert s.n_comms == 4
        assert s.signature.order == (1, 3, 2, 0)
        assert np.array_equal(s.sizes(), sizes)

    def test_one_series_per_order_in_given_order(self):
        orders = [(3, 2, 1, 0), (0, 1, 2, 3), (1, 3, 2, 0)]
        series = size_sweep(TOPO, H, orders, 16, "alltoall", [1e6, 1e7])
        assert [s.order for s in series] == orders
        assert all(len(s.points) == 2 for s in series)

    def test_bandwidth_grows_out_of_latency_regime(self):
        (s,) = size_sweep(TOPO, H, [(3, 2, 1, 0)], 16, "alltoall", [1e4, 1e6, 1e8])
        bw = s.bandwidths_single()
        assert bw[2] > bw[0]

    def test_algorithm_label_reflects_selector(self):
        (s,) = size_sweep(TOPO, H, [(3, 2, 1, 0)], 16, "alltoall", [1e4, 1e8])
        assert "pairwise" in s.algorithm

    def test_legend_format(self):
        (s,) = size_sweep(TOPO, H, [(0, 1, 2, 3)], 16, "alltoall", [1e6])
        assert s.legend().startswith("0-1-2-3 (")


class TestCommMembersMemo:
    """Regression: a size sweep derives the comm structure once, not per
    payload size (the members table depends only on hierarchy/order/
    comm_size, so every size after the first must be a memo hit)."""

    def test_size_sweep_hits_memo_after_first_point(self):
        comm_members.cache_clear()
        sizes = paper_sizes(n=5)
        size_sweep(TOPO, H, [(0, 1, 2, 3)], 16, "alltoall", sizes)
        info = comm_members.cache_info()
        assert info.misses == 1  # one structural derivation for the sweep
        assert info.hits == len(sizes) - 1

    def test_distinct_orders_get_distinct_entries(self):
        comm_members.cache_clear()
        size_sweep(TOPO, H, [(0, 1, 2, 3), (3, 2, 1, 0)], 16, "alltoall", [1e6])
        info = comm_members.cache_info()
        assert info.misses == 2 and info.hits == 0

    def test_members_table_is_read_only_and_correct(self):
        from repro.core.reorder import RankReordering

        members = comm_members(H, (1, 3, 2, 0), 16)
        assert not members.flags.writeable
        with pytest.raises(ValueError):
            members[0, 0] = 99
        fresh = RankReordering(H, (1, 3, 2, 0), 16).all_comm_members()
        assert np.array_equal(members, fresh)


def test_paper_sizes_span_axis():
    sizes = paper_sizes()
    assert sizes[0] == pytest.approx(16e3)
    assert sizes[-1] == pytest.approx(512e6)
    assert len(sizes) == 11
