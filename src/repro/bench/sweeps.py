"""Generic parameter sweeps with tabular/CSV output.

The figure generators are fixed to the paper's configurations; this module
is the open-ended counterpart for downstream users: sweep any subset of
{order, communicator size, collective, algorithm, data size, machine} --
or any registered workload -- and collect tidy records suitable for CSV
export or further analysis.

All sweeps run through :class:`repro.engine.SweepEngine`: every grid
point becomes a content-addressed :class:`~repro.engine.EvalRequest`, so
repeated points are recalled from the cache, order-equivalent points are
evaluated once per class, and independent points fan out over a worker
pool (``jobs``).  Pass an existing engine to share its cache and
statistics across sweeps, or let each call build a private serial one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.core.hierarchy import Hierarchy
from repro.core.metrics import signature
from repro.core.orders import Order, all_orders, format_order
from repro.engine import EvalRequest, SweepEngine, is_failure
from repro.engine.keys import collective_params, protocol_request
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class SweepRecord:
    """One measurement of a collective sweep grid."""

    machine: str
    order: str
    ring_cost: int
    comm_size: int
    n_comms: int
    collective: str
    algorithm: str
    total_bytes: float
    duration_single: float
    duration_all: float
    bandwidth_single: float
    bandwidth_all: float


@dataclass(frozen=True)
class WorkloadRecord:
    """One (order, workload) measurement of a workload sweep."""

    machine: str
    order: str
    ring_cost: int
    workload: str
    label: str
    comm_size: int
    n_comms: int
    total_bytes: float
    duration_single: float
    duration_all: float


@dataclass(frozen=True)
class _Cell:
    """One protocol point of the grid, independent of the order."""

    comm_size: int
    total_bytes: float
    workload: str
    params: tuple
    #: Collective grids: the collective and its resolved algorithm;
    #: workload grids: the lowered program's label.
    collective: str | None = None
    algorithm: str | None = None
    label: str | None = None


def _grid(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    backend: str,
    comm_sizes: Sequence[int] | None = None,
    collectives: Sequence[str] | None = None,
    sizes: Sequence[float] | None = None,
    algorithm: str | None = None,
    workload: str | None = None,
    workload_params: dict | None = None,
    scenario: str = "all",
) -> list[list[_Cell]]:
    """Validate a sweep query and lower it to blocks of protocol cells.

    A collective grid yields one block per communicator size, holding
    its ``collectives x sizes`` cells in nested-loop order; a workload
    grid yields one block with the workload's single cell, its
    communicator size and traffic volume read from the lowered program.
    Unknown workload names raise
    :class:`~repro.workloads.UnknownWorkloadError` before any request
    is issued.
    """
    from repro.collectives.selector import select_algorithm
    from repro.ir import backend_names
    from repro.workloads import canonical_params, lower_workload

    if backend not in backend_names():
        raise ValueError(
            f"unknown backend {backend!r} (available: {', '.join(backend_names())})"
        )
    if scenario not in ("all", "single"):
        raise ValueError("scenario must be 'all' or 'single'")
    hierarchy.check_process_count(topology.n_cores)
    if workload is not None:
        given = dict(
            comm_sizes=comm_sizes, collectives=collectives, sizes=sizes,
            algorithm=algorithm,
        )
        named = [name for name, value in given.items() if value is not None]
        if named:
            raise ValueError(
                f"workload sweeps must not name {named}: the lowered "
                "workload defines the communicator size and traffic volume"
            )
        params = canonical_params(workload, workload_params or {})
        program = lower_workload(workload, params)
        n_ranks = program.n_ranks
        if hierarchy.size % n_ranks:
            raise ValueError(
                f"workload {workload!r} needs {n_ranks} ranks, which does not "
                f"divide the machine's {hierarchy.size} processes"
            )
        total = program.meta.total_bytes
        if total is None:
            total = program.total_bytes
        label = program.meta.label or workload
        return [[_Cell(n_ranks, float(total), workload, params, label=label)]]
    if comm_sizes is None:
        raise ValueError("comm_sizes is required (or name a workload instead)")
    collectives = ("alltoall",) if collectives is None else collectives
    sizes = (1e6, 64e6) if sizes is None else sizes
    blocks: list[list[_Cell]] = []
    for comm_size in comm_sizes:
        if hierarchy.size % comm_size:
            raise ValueError(
                f"comm size {comm_size} does not divide {hierarchy.size}"
            )
        blocks.append(
            [
                _Cell(
                    comm_size, total, "collective",
                    collective_params(collective, comm_size, total, algorithm),
                    collective=collective,
                    algorithm=algorithm or select_algorithm(collective, comm_size, total),
                )
                for collective in collectives
                for total in sizes
            ]
        )
    return blocks


def _cell_request(model, topology, hierarchy, order, cell: _Cell):
    return protocol_request(
        model, topology, hierarchy, order, cell.comm_size, cell.workload,
        cell.params,
    )


def sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_sizes: Sequence[int] | None = None,
    collectives: Sequence[str] | None = None,
    sizes: Sequence[float] | None = None,
    orders: Sequence[Order] | None = None,
    algorithm: str | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
    prune: bool = True,
    backend: str = "round",
    batch: bool = False,
    workload: str | None = None,
    workload_params: dict | None = None,
) -> list[SweepRecord] | list[WorkloadRecord]:
    """Evaluate every order on every protocol point; one record each.

    A collective grid crosses ``comm_sizes x collectives x sizes``
    (defaults: alltoall at 1 MB and 64 MB) and yields
    :class:`SweepRecord` rows; naming a registered ``workload`` (with
    ``workload_params``) scores that one lowered program instead and
    yields :class:`WorkloadRecord` rows.  Its rank count is the
    communicator size, so the ``all`` scenario runs
    ``hierarchy.size // n_ranks`` concurrent instances.  Both shapes
    issue the same requests: a collective is the ``collective``
    workload, so the two spellings of one point share a cache record.

    The grid runs as one engine batch, so memoization, equivalence
    pruning, and the worker pool all apply; record order is the nested
    loop ``comm size -> order -> collective -> size``.  ``backend``
    selects the execution backend: ``round`` (the default), ``logp``
    (fast advisory rankings) or ``des`` (exact flow simulation; the
    all-communicators scenario is simulated too, so expect DES-scale
    runtimes).  ``batch`` routes the grid through the vectorized batch
    evaluators (:meth:`~repro.engine.core.SweepEngine.evaluate_batch`),
    bitwise identical to the scalar path and hitting the same cache
    keys; models without one fall back to the worker pool.
    """
    blocks = _grid(
        topology, hierarchy, backend, comm_sizes, collectives, sizes,
        algorithm, workload, workload_params,
    )
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir, prune=prune)
    if orders is None:
        orders = all_orders(hierarchy.depth)
    orders = [tuple(order) for order in orders]
    grid = [(order, cell) for block in blocks for order in orders for cell in block]
    evaluate = engine.evaluate_batch if batch else engine.evaluate_many
    results = evaluate(
        [
            _cell_request(backend, topology, hierarchy, order, cell)
            for order, cell in grid
        ]
    )
    sigs = {
        key: signature(hierarchy, *key)
        for key in {(order, cell.comm_size) for order, cell in grid}
    }
    records: list = []
    for (order, cell), point in zip(grid, results):
        if is_failure(point):
            # Quarantined grid point: the engine retried and gave up.  The
            # point is salvaged as a structured failure on engine.failures
            # (and never cached, so a re-run retries it); every completed
            # record below is still returned.
            continue
        single, both = point["duration_single"], point["duration_all"]
        common = dict(
            machine=topology.name,
            order=format_order(order),
            ring_cost=sigs[order, cell.comm_size].ring_cost,
            comm_size=cell.comm_size,
            n_comms=hierarchy.size // cell.comm_size,
            total_bytes=cell.total_bytes,
            duration_single=single,
            duration_all=both,
        )
        if workload is not None:
            records.append(
                WorkloadRecord(workload=workload, label=cell.label, **common)
            )
        else:
            records.append(
                SweepRecord(
                    collective=cell.collective,
                    algorithm=cell.algorithm,
                    bandwidth_single=cell.total_bytes / single,
                    bandwidth_all=cell.total_bytes / both,
                    **common,
                )
            )
    return records


def top_k_records(
    records: Sequence,
    k: int,
    scenario: str = "all",
) -> list:
    """The records of the ``k`` fastest orders, rank-major.

    An order's rank score is its summed duration across every grid cell
    (the same aggregation the advisor and the fidelity ladder use), ties
    broken by the order name, so the selection is deterministic.  Within
    an order the original record order is preserved -- the output is a
    stable, byte-reproducible top-k table for CSV comparison.
    """
    key_attr = "duration_all" if scenario == "all" else "duration_single"
    totals: dict[str, float] = {}
    groups: dict[str, list] = {}
    for rec in records:
        totals[rec.order] = totals.get(rec.order, 0.0) + getattr(rec, key_attr)
        groups.setdefault(rec.order, []).append(rec)
    ranked = sorted(totals, key=lambda o: (totals[o], o))[:k]
    out: list = []
    for order in ranked:
        out.extend(groups[order])
    return out


def ladder_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_sizes: Sequence[int] | None = None,
    collectives: Sequence[str] | None = None,
    sizes: Sequence[float] | None = None,
    orders: Sequence[Order] | None = None,
    algorithm: str | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
    backend: str = "round",
    scenario: str = "all",
    rungs: Sequence[str] | None = None,
    eta: float = 4.0,
    top_k: int = 10,
    probe: int = 16,
    tau_floor: float = 0.9,
    seed: int = 0,
    batch: bool | None = None,
    exhaustive_audit: bool = False,
    workload: str | None = None,
    workload_params: dict | None = None,
):
    """Multi-fidelity order search over the sweep grid.

    Instead of evaluating every order at full fidelity like
    :func:`sweep`, runs the error-calibrated successive-halving ladder
    (:class:`~repro.engine.fidelity.FidelityLadder`): orders are scored
    on the free analytic metric first, survivors promoted through
    progressively costlier models until ``backend`` ranks the finalists.
    A candidate's score at any rung is its summed scenario duration over
    the grid :func:`sweep` would evaluate for the same arguments
    (collective or ``workload``) -- exactly the aggregation
    :func:`top_k_records` applies to plain sweep output -- and the
    engine requests carry the same content keys, so ladder and sweep
    share every cache record.  The metric rung sums the analytic proxy
    over the grid's distinct ``(comm size, traffic volume)`` pairs.

    Returns ``(records, result)``: the finalists' sweep records trimmed
    to the ``top_k`` fastest orders (rank-major, byte-comparable to
    ``top_k_records(sweep(...), top_k, scenario)``), and the
    :class:`~repro.engine.fidelity.LadderResult` audit trail (per-rung
    promotion counts, probe Kendall taus, request totals).

    ``batch`` routes engine rungs through the vectorized batch path;
    default: batch unless the engine has a distributed ``dispatcher``
    attached, in which case rung grids fan out to the workers.
    ``exhaustive_audit`` additionally evaluates *every* order at the
    final rung and asserts the ladder's top-k matches -- the opt-in
    correctness gate, at full-sweep cost.
    """
    from repro.engine.fidelity import (
        FidelityLadder,
        LadderConfig,
        analytic_order_score,
        default_rungs,
    )

    blocks = _grid(
        topology, hierarchy, backend, comm_sizes, collectives, sizes,
        algorithm, workload, workload_params, scenario=scenario,
    )
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    if orders is None:
        orders = all_orders(hierarchy.depth)
    candidates = [tuple(order) for order in orders]
    config = LadderConfig(
        rungs=tuple(rungs) if rungs is not None else default_rungs(backend),
        eta=eta,
        top_k=top_k,
        probe=probe,
        tau_floor=tau_floor,
        seed=seed,
        duration_key="duration_all" if scenario == "all" else "duration_single",
    )
    if config.rungs[-1] != backend:
        raise ValueError(
            f"the final rung {config.rungs[-1]!r} must match backend "
            f"{backend!r}: the finalists' records are materialized at the "
            "sweep backend's fidelity"
        )
    cells = [cell for block in blocks for cell in block]
    volumes = list(dict.fromkeys((c.comm_size, c.total_bytes) for c in cells))

    def requests_for(model: str, order: Order) -> list[EvalRequest]:
        return [
            _cell_request(model, topology, hierarchy, order, cell)
            for cell in cells
        ]

    def metric_score(order: Order) -> float:
        return sum(
            analytic_order_score(topology, hierarchy, order, comm_size, total)
            for comm_size, total in volumes
        )

    ladder = FidelityLadder(engine, config, batch=batch)
    result = ladder.search(
        candidates,
        requests_for,
        metric_score=metric_score if "metric" in config.rungs else None,
        exhaustive_audit=exhaustive_audit,
    )
    # Re-run the finalists through the plain sweep (pure cache hits: the
    # final rung already evaluated these keys) to materialize records.
    records = sweep(
        topology,
        hierarchy,
        comm_sizes,
        collectives=collectives,
        sizes=sizes,
        orders=list(result.ranking),
        algorithm=algorithm,
        engine=engine,
        backend=backend,
        batch=ladder.batch,
        workload=workload,
        workload_params=workload_params,
    )
    return top_k_records(records, top_k, scenario), result


def to_csv(records: Sequence) -> str:
    """Render dataclass records as CSV (header + one row per record)."""
    if not records:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(asdict(records[0])))
    writer.writeheader()
    for rec in records:
        writer.writerow(asdict(rec))
    return buf.getvalue()


def best_per_group(
    records: Sequence[SweepRecord],
    scenario: str = "all",
) -> dict[tuple, SweepRecord]:
    """Fastest record per (comm_size, collective, total_bytes) group."""
    key_attr = "duration_all" if scenario == "all" else "duration_single"
    best: dict[tuple, SweepRecord] = {}
    for rec in records:
        key = (rec.comm_size, rec.collective, rec.total_bytes)
        if key not in best or getattr(rec, key_attr) < getattr(best[key], key_attr):
            best[key] = rec
    return best


# -- verification sweeps -----------------------------------------------------


@dataclass(frozen=True)
class VerifyRecord:
    """One (collective, algorithm, comm size) verification cell."""

    machine: str
    collective: str
    algorithm: str
    comm_size: int
    total_bytes: float
    n_rounds: int
    semantic_ok: bool
    differential_ok: bool
    differential_rel_err: float
    invariants_ok: bool
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.semantic_ok and self.differential_ok and self.invariants_ok


def verify_sweep(
    comm_sizes: Sequence[int],
    collectives: Sequence[str] | None = None,
    total_bytes: float = 65536.0,
    topology: MachineTopology | None = None,
    tolerance: float | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
) -> list[VerifyRecord]:
    """Run the verification stack over a grid of collectives x sizes.

    For every registered algorithm valid at each communicator size, runs
    the semantic checker on its round schedule, the round-model/DES
    differential on a packed placement, and the trace-invariant audit of
    the replay.  With no ``topology`` each size gets a flat single-switch
    machine (the differential is then exact); pass a real machine to sweep
    hierarchical placements.

    Cells run through the sweep engine: the expensive DES replays are
    memoized (repeated campaigns over the same cells become cache hits)
    and independent cells fan out over ``jobs`` workers.
    """
    from repro.topology.machines import generic_cluster
    from repro.verify import DEFAULT_TOLERANCE, checkable_algorithms

    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    cells: list[tuple[MachineTopology, int, str, str]] = []
    for p in comm_sizes:
        topo = topology or generic_cluster((max(p, 2),))
        if p > topo.n_cores:
            raise ValueError(f"comm size {p} exceeds {topo.n_cores} cores")
        for collective, algorithm in checkable_algorithms(p):
            if collectives is not None and collective not in collectives:
                continue
            cells.append((topo, p, collective, algorithm))
    results = engine.evaluate_many(
        [
            EvalRequest(
                model="verify",
                topology=topo,
                comm_size=p,
                collective=collective,
                algorithm=algorithm,
                total_bytes=total_bytes,
                extras=(("tolerance", tol),),
            )
            for topo, p, collective, algorithm in cells
        ]
    )
    return [
        VerifyRecord(
            machine=topo.name,
            collective=collective,
            algorithm=algorithm,
            comm_size=p,
            total_bytes=total_bytes,
            n_rounds=int(out["n_rounds"]),
            semantic_ok=bool(out["semantic_ok"]),
            differential_ok=bool(out["differential_ok"]),
            differential_rel_err=out["differential_rel_err"],
            invariants_ok=bool(out["invariants_ok"]),
            n_violations=int(out["n_violations"]),
        )
        for (topo, p, collective, algorithm), out in zip(cells, results)
        if not is_failure(out)  # quarantined cells stay on engine.failures
    ]


# -- chaos sweeps ------------------------------------------------------------


@dataclass(frozen=True)
class ChaosRecord:
    """One (order, fault class) cell of a chaos sweep."""

    machine: str
    order: str
    fault_kind: str
    seed: int
    n_faults: int
    n_ranks: int
    survivors: int
    n_attempts: int
    total_backoff: float
    healthy_time: float
    faulty_time: float
    slowdown: float  # faulty / healthy makespan (inf when never completed)


#: Fault classes :class:`~repro.faults.ChaosGenerator` can sample.
CHAOS_KINDS = ("node_crash", "nic_fail", "link_degrade", "straggler")


def chaos_sweep(
    topology: MachineTopology,
    orders: Sequence[Order] | None = None,
    fault_kinds: Sequence[str] = CHAOS_KINDS,
    count: int = 8,
    seed: int = 0,
    rate: float = 1.0,
    n_ranks: int | None = None,
    compute: float = 1e-6,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
) -> list[ChaosRecord]:
    """Quantify how each fault class degrades an alltoall, per order.

    For every enumeration order and fault class, runs a pairwise alltoall
    (``count`` doubles per block, preceded by ``compute`` seconds of local
    work so stragglers have something to slow down) on the event-driven
    simulator twice: once healthy, once under a
    :class:`~repro.faults.ChaosGenerator` schedule (``rate`` expected
    faults of that class over the healthy makespan) with ULFM-style
    shrink-and-retry recovery.  The same seed is used for every order, so
    a cell differs between orders only through placement -- the
    ``slowdown`` column directly measures how much the order's locality
    structure shields the collective from that fault class.

    The sweep runs as two engine batches: the per-order healthy baselines
    first (their makespans parameterize the fault schedules), then the
    (order, fault kind) chaos cells.  Both batches are memoized and fan
    out over ``jobs`` workers.
    """
    if orders is None:
        orders = all_orders(topology.hierarchy.depth)
    orders = [tuple(order) for order in orders]
    for kind in fault_kinds:
        if kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos fault kind {kind!r}")
    if n_ranks is None:
        n_ranks = topology.n_cores
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    workload = (
        ("n_ranks", n_ranks),
        ("count", count),
        ("compute", compute),
    )
    healthy_results = engine.evaluate_many(
        [
            EvalRequest(
                model="chaos_healthy",
                topology=topology,
                order=order,
                extras=workload,
            )
            for order in orders
        ]
    )
    healthy_of = {
        order: out["healthy_time"]
        for order, out in zip(orders, healthy_results)
        if not is_failure(out)  # orders whose baseline failed are skipped
    }
    cells = [
        (order, kind)
        for order in orders
        if order in healthy_of
        for kind in fault_kinds
    ]
    results = engine.evaluate_many(
        [
            EvalRequest(
                model="chaos_cell",
                topology=topology,
                order=order,
                seed=seed,
                extras=workload
                + (
                    ("kind", kind),
                    ("rate", rate),
                    ("healthy", healthy_of[order]),
                ),
            )
            for order, kind in cells
        ]
    )
    return [
        ChaosRecord(
            machine=topology.name,
            order=format_order(order),
            fault_kind=kind,
            seed=seed,
            n_faults=int(out["n_faults"]),
            n_ranks=n_ranks,
            survivors=int(out["survivors"]),
            n_attempts=int(out["n_attempts"]),
            total_backoff=out["total_backoff"],
            healthy_time=out["healthy_time"],
            faulty_time=out["faulty_time"],
            slowdown=out["slowdown"],
        )
        for (order, kind), out in zip(cells, results)
        if not is_failure(out)  # quarantined cells stay on engine.failures
    ]


def chaos_best_per_fault(
    records: Sequence[ChaosRecord],
) -> dict[str, ChaosRecord]:
    """Least-degraded record per fault class (the reordering benefit)."""
    best: dict[str, ChaosRecord] = {}
    for rec in records:
        if rec.fault_kind not in best or rec.slowdown < best[rec.fault_kind].slowdown:
            best[rec.fault_kind] = rec
    return best
