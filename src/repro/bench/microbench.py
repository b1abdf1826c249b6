"""The Section 4.1 micro-benchmark protocol on the simulated cluster.

Protocol (verbatim from the paper):

1. Reorder ranks of ``MPI_COMM_WORLD`` in a new communicator.
2. Create several subcommunicators, all containing the same number of
   processes (contiguous blocks of reordered ranks).
3. In the first subcommunicator only, measure the performance of the
   collective operation.
4. In all subcommunicators simultaneously, execute the collective and
   measure its performance.

Our simulator is deterministic, so instead of iterating inside a 0.5 s
time window we evaluate one collective invocation exactly; the
"simultaneous" scenario merges every subcommunicator's round ``i`` into
one synchronized round, which is the steady state the paper's time window
is designed to reach.

The reported *collective bandwidth* matches the paper's definition: the
figure-axis data size (communicator size x count x sizeof(datatype))
divided by the average duration of one collective call.

Each (order, size) point is one engine request scored by the protocol
evaluator of :mod:`repro.engine.evaluators`, whatever the backend;
:func:`size_sweep` assembles a figure's grid into per-order series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.ir.lower import placed_rounds
from repro.collectives.selector import rounds_for
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import OrderSignature, signature
from repro.core.orders import Order, format_order
from repro.core.reorder import RankReordering
from repro.netsim.fabric import RoundSchedule
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class MicrobenchPoint:
    """One (data size, order) measurement."""

    total_bytes: float
    duration_single: float  # one subcommunicator active
    duration_all: float  # all subcommunicators active simultaneously

    @property
    def bandwidth_single(self) -> float:
        """Collective bandwidth (bytes/s) with one active communicator."""
        return self.total_bytes / self.duration_single

    @property
    def bandwidth_all(self) -> float:
        """Collective bandwidth (bytes/s) with all communicators active."""
        return self.total_bytes / self.duration_all


@dataclass(frozen=True)
class MicrobenchSeries:
    """A size sweep for one order (one curve of a paper figure)."""

    order: Order
    signature: OrderSignature
    collective: str
    algorithm: str
    comm_size: int
    n_comms: int
    points: tuple[MicrobenchPoint, ...]

    def legend(self) -> str:
        return self.signature.legend()

    def bandwidths_single(self) -> np.ndarray:
        return np.array([p.bandwidth_single for p in self.points])

    def bandwidths_all(self) -> np.ndarray:
        return np.array([p.bandwidth_all for p in self.points])

    def sizes(self) -> np.ndarray:
        return np.array([p.total_bytes for p in self.points])


def collective_schedule(
    collective: str,
    comm_cores: np.ndarray | Sequence[int],
    total_bytes: float,
    algorithm: str | None = None,
) -> RoundSchedule:
    """Round schedule of one collective on one communicator's cores."""
    cores = np.asarray(comm_cores, dtype=np.int64)
    rounds = rounds_for(collective, cores.size, total_bytes, algorithm)
    return placed_rounds(rounds, cores)


@lru_cache(maxsize=512)
def comm_members(
    hierarchy: Hierarchy, order: tuple[int, ...], comm_size: int
) -> np.ndarray:
    """Memoized ``(n_comms, comm_size)`` member table for one reordering.

    The communicator structure depends only on (hierarchy, order,
    comm_size) -- not on the payload size -- yet a size sweep used to
    re-derive it per point.  One cached read-only table serves every
    payload size (and every scenario) of the sweep; the returned array is
    write-protected so cached rows can be handed to backends directly.
    """
    reordering = RankReordering(hierarchy, tuple(order), comm_size)
    members = reordering.all_comm_members()  # canonical ranks == core IDs
    members.setflags(write=False)
    return members


def size_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    orders: Sequence[Order],
    comm_size: int,
    collective: str,
    sizes: Sequence[float],
    algorithm: str | None = None,
    engine=None,
    backend: str = "round",
    batch: bool = False,
) -> list[MicrobenchSeries]:
    """Figure curves: the protocol across a size sweep, one per order.

    ``hierarchy`` is the *description* fed to the mixed-radix algorithm
    (it may include fake levels); its size must equal the core count of
    ``topology`` (one MPI process per core, canonical rank ``r`` bound to
    core ``r``).  The ``orders x sizes`` grid runs as one collective
    :func:`~repro.bench.sweeps.sweep` on ``engine`` (a private serial one
    when none is passed) -- memoized, equivalence-pruned, and fanned out
    over the engine's worker pool.  ``backend`` names the execution
    backend for every point (``round`` reproduces the paper figures
    bit-identically; ``logp`` trades absolute fidelity for speed; ``des``
    replays every point on the flow-level simulator).  ``batch`` routes
    the grid through the engine's vectorized evaluators (bitwise
    identical).
    """
    from repro.bench.sweeps import sweep
    from repro.collectives.selector import select_algorithm

    orders = [tuple(order) for order in orders]
    sizes = list(sizes)
    records = sweep(
        topology, hierarchy, [comm_size], collectives=[collective],
        sizes=sizes, orders=orders, algorithm=algorithm, engine=engine,
        backend=backend, batch=batch,
    )
    points = {
        (rec.order, rec.total_bytes): MicrobenchPoint(
            rec.total_bytes, rec.duration_single, rec.duration_all
        )
        for rec in records
    }
    algo_label = algorithm or "+".join(
        sorted({select_algorithm(collective, comm_size, s) for s in sizes})
    )
    return [
        MicrobenchSeries(
            order=order,
            signature=signature(hierarchy, order, comm_size),
            collective=collective,
            algorithm=algo_label,
            comm_size=comm_size,
            n_comms=hierarchy.size // comm_size,
            points=tuple(points[format_order(order), s] for s in sizes),
        )
        for order in orders
    ]


def paper_sizes(lo: float = 16e3, hi: float = 512e6, n: int = 11) -> list[float]:
    """Log-spaced sizes spanning the paper's 16 KB - 512 MB x-axis."""
    return list(np.logspace(np.log10(lo), np.log10(hi), n))
