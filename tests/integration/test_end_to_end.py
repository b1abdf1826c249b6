"""End-to-end integration: the paper's full pipeline at test scale.

Reorder MPI_COMM_WORLD via MPI_Comm_split on the simulated runtime, carve
subcommunicators, run real collective programs in them concurrently,
profile per communicator, and confirm the micro-benchmark harness's fast
model ranks the orders the same way the DES does.
"""

import numpy as np

from repro.bench.microbench import size_sweep
from repro.collectives.alltoall import pairwise_program
from repro.core.hierarchy import Hierarchy
from repro.core.reorder import RankReordering, reorder_ranks
from repro.profiling.mpisee import FlowProfiler
from repro.simmpi import Comm, Simulator
from repro.topology.machines import hydra

H = Hierarchy((2, 2, 2, 4), ("node", "socket", "group", "core"))


def _topology():
    from repro.topology.machines import generic_cluster

    return generic_cluster((2, 2, 2, 4), names=H.names)


def _protocol_des(order, comm_size, nbytes_total):
    """Steps 1-4 of Section 4.1.1 executed on the DES with real data."""
    topology = _topology()
    world_size = H.size
    world = Comm.world(world_size)

    # Step 1: reorder MPI_COMM_WORLD via MPI_Comm_split (key = new rank).
    new_rank = reorder_ranks(H, order)
    reordered = Comm.split(world, {r: (0, int(new_rank[r])) for r in range(world_size)})

    # Step 2: split into subcommunicators by color = new rank // size.
    subcomms = Comm.split(
        [reordered[r] for r in range(world_size)],
        {
            reordered[r].rank: (reordered[r].rank // comm_size, reordered[r].rank)
            for r in range(world_size)
        },
    )
    # Index back by canonical rank.
    sub_by_canonical = {
        r: subcomms[int(new_rank[r])] for r in range(world_size)
    }

    # Steps 3+4: all subcommunicators run pairwise alltoall concurrently.
    count = max(1, int(nbytes_total) // comm_size // comm_size // 8)
    profiler = FlowProfiler()
    for comm in sub_by_canonical.values():
        profiler.watch(comm.comm_id, "MPI_Alltoall", comm.size)
    sim = Simulator(_topology(), list(range(world_size)), listeners=[profiler])
    programs = {
        r: pairwise_program(
            sub_by_canonical[r], np.full((comm_size, count), r, dtype=float)
        )
        for r in range(world_size)
    }
    results = sim.run(programs)
    return results, sim, profiler, sub_by_canonical


class TestFullPipeline:
    def test_data_correct_under_reordering(self):
        results, _, _, subs = _protocol_des((0, 1, 2, 3), 4, 32e3)
        # Every rank's received row j must come from its subcomm's rank j.
        for canonical, comm in subs.items():
            world_ranks = comm.group.world_ranks
            recv = results[canonical]
            for j in range(comm.size):
                assert np.all(recv[j] == world_ranks[j])

    def test_profiler_sees_all_subcomms(self):
        _, _, profiler, _ = _protocol_des((1, 3, 2, 0), 4, 32e3)
        assert profiler.profiler.seconds(op="MPI_Alltoall") > 0
        assert profiler.profiler.communicator_sizes() == [4]

    def test_fast_model_ranks_orders_like_des(self):
        """The figure harness and the DES must agree on which mapping is
        faster under full concurrency."""
        des_times = {}
        for order in [(0, 1, 2, 3), (3, 2, 1, 0)]:
            _, sim, _, _ = _protocol_des(order, 4, 256e3)
            des_times[order] = max(sim.finish_times.values())
        fast_times = {
            s.order: s.points[0].duration_all
            for s in size_sweep(
                _topology(), H, list(des_times), 4, "alltoall", [256e3],
                algorithm="pairwise",
            )
        }
        des_order = sorted(des_times, key=des_times.get)
        fast_order = sorted(fast_times, key=fast_times.get)
        assert des_order == fast_order

    def test_subcomm_membership_matches_rank_reordering(self):
        _, _, _, subs = _protocol_des((2, 0, 3, 1), 8, 16e3)
        expected = RankReordering(H, (2, 0, 3, 1), 8)
        for c in range(expected.n_comms):
            members = expected.comm_members(c)
            comm = subs[int(members[0])]
            assert list(comm.group.world_ranks) == members.tolist()


class TestLauncherToSimulator:
    def test_slurm_job_runs_on_simulator(self):
        from repro.launcher.slurm import SlurmJob

        machine = Hierarchy((2, 2, 8), ("node", "socket", "core"))
        job = SlurmJob(machine, 2, 4, cpu_bind_map=(0, 8, 1, 9))
        mapping = job.mapping()
        topology = hydra(2, fake_split=False)

        comms = Comm.world(job.n_tasks)
        sim = Simulator(topology, mapping.core_of.tolist())
        results = sim.run(
            {
                r: pairwise_program(comms[r], np.full((job.n_tasks, 4), r))
                for r in range(job.n_tasks)
            }
        )
        assert len(results) == 8


def test_rankfile_and_split_agree():
    """The two reordering mechanisms of Section 3.2 -- comm_split with
    reordered keys vs a rankfile binding -- must place the same work on
    the same cores."""
    from repro.launcher.mapping import ProcessMapping

    order = (0, 2, 1, 3)
    # Mechanism A: ranks stay put, communicator is renumbered.
    new_rank = reorder_ranks(H, order)
    # Mechanism B: rankfile moves rank r to the core whose canonical
    # numbering reorders to r.
    mapping = ProcessMapping.from_order(H, order)
    for core in range(H.size):
        rank_on_core = mapping.rank_on_core(core)
        assert rank_on_core == int(new_rank[core])
