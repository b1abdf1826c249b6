"""Ablation: does the collective-algorithm choice change the conclusions?

The paper lets the MPI library pick algorithms and notes that "results
with a fixed algorithm show similar trends".  We rerun a reduced Figure 3
with each fixed alltoall algorithm and with the tuned selector, asserting
the spread-collapses / packed-constant trend for every choice.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import HYDRA16
from repro.bench.microbench import size_sweep
from repro.bench.report import assert_checks, microbench_shape_checks, print_checks
from repro.topology.machines import hydra

ORDERS = [(0, 1, 2, 3), (3, 2, 1, 0)]
SIZES = [64e3, 4e6, 64e6]


@pytest.mark.parametrize("algorithm", ["pairwise", "bruck", None])
def test_trends_hold_for_every_alltoall_algorithm(once, algorithm):
    def sweep():
        return size_sweep(
            hydra(16), HYDRA16, ORDERS, 16, "alltoall", SIZES,
            algorithm=algorithm,
        )

    series = once(sweep)
    label = algorithm or "tuned-selector"
    print(f"\nalltoall algorithm = {label}")
    checks = microbench_shape_checks(
        series, spread_order=(0, 1, 2, 3), packed_order=(3, 2, 1, 0),
        contention_factor=2.0,
    )
    print_checks(checks)
    assert_checks(checks)


@pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling", "rabenseifner"])
def test_trends_hold_for_every_allreduce_algorithm(once, algorithm):
    def sweep():
        return size_sweep(
            hydra(16), HYDRA16, ORDERS, 64, "allreduce", SIZES,
            algorithm=algorithm,
        )

    series = once(sweep)
    by_order = {s.order: s for s in series}
    packed = by_order[(3, 2, 1, 0)]
    spread = by_order[(0, 1, 2, 3)]
    print(f"\nallreduce algorithm = {algorithm}: packed xN "
          f"{packed.points[-1].bandwidth_all/1e6:.0f} MB/s vs spread xN "
          f"{spread.points[-1].bandwidth_all/1e6:.0f} MB/s")
    # The invariant that holds for *every* algorithm (Section 4.1.3): the
    # packed mapping's performance does not depend on how many
    # communicators run concurrently.  (Which order wins under contention
    # is algorithm-specific: Rabenseifner's XOR partners make the spread
    # order's big exchanges node-local.)
    ratio = packed.points[-1].bandwidth_all / packed.points[-1].bandwidth_single
    assert 0.8 <= ratio <= 1.25, (
        f"packed mapping must be contention-independent, got ratio {ratio:.2f}"
    )
