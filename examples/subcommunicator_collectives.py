#!/usr/bin/env python
"""Collectives in subcommunicators under different rank orders.

The scenario the paper's introduction motivates: an application whose
subcommunicators run collective operations concurrently, where the rank
order of MPI_COMM_WORLD decides whether each subcommunicator is packed
into one socket or spread across the machine.  Runs the Section 4.1
micro-benchmark protocol on a simulated 8-node Hydra and prints both
scenarios for three representative orders.

Run:  python examples/subcommunicator_collectives.py
"""

from repro.bench.microbench import paper_sizes, size_sweep
from repro.bench.report import series_table
from repro.core.hierarchy import Hierarchy
from repro.topology.machines import hydra


def main() -> None:
    topology = hydra(8)  # 8 nodes x 2 sockets x 2 groups x 8 cores
    hierarchy = Hierarchy((8, 2, 2, 8), ("node", "socket", "group", "core"))
    orders = [
        (0, 1, 2, 3),  # fully spread: one rank per node first
        (1, 3, 2, 0),  # Slurm default (block:cyclic)
        (3, 2, 1, 0),  # fully packed: fill sockets first
    ]
    sizes = paper_sizes(lo=64e3, hi=64e6, n=6)
    print(f"{topology.name}: 256 ranks, MPI_Alltoall in 16 subcommunicators "
          "of 16 ranks\n")
    series = size_sweep(topology, hierarchy, orders, 16, "alltoall", sizes)
    for s in series:
        print("  ", s.legend())
    print()
    print(series_table(series))
    print(
        "\nReading the table: x1 = only the first subcommunicator is active,"
        "\nxN = all 16 run the collective simultaneously.  The spread order"
        "\nwins the x1 columns but collapses under xN, where the packed"
        "\norder's bandwidth is unchanged -- Section 4.1.3's observations."
    )

    spread, slurm, packed = series
    big = -1
    print(
        f"\nat {sizes[big]/1e6:.0f} MB: spread {spread.points[big].bandwidth_all/1e6:,.0f}"
        f" MB/s vs packed {packed.points[big].bandwidth_all/1e6:,.0f} MB/s "
        f"({packed.points[big].bandwidth_all / spread.points[big].bandwidth_all:.1f}x) "
        "with all communicators active"
    )


if __name__ == "__main__":
    main()
