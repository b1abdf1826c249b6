"""Order recommendation ("which order should I use?").

The paper's conclusion sketches this as future work: *"This knowledge
could help to predict which order is the most suitable for the used system
and applications."*  The advisor operationalizes it with the machinery this
library already has:

1. prune the ``depth!`` orders to one representative per equivalence class
   (Section 3.3's metrics);
2. score each representative on the fast contention model for the user's
   workload — collective, subcommunicator size, data sizes, and whether
   communicators run alone or concurrently;
3. return a ranking with the predicted durations and, for convenience,
   the Slurm ``--distribution`` equivalent when one exists.

Scoring a representative costs milliseconds, so exhaustive scoring of the
pruned space is practical even for 6-level hierarchies (720 orders, a few
dozen classes).

The query pipeline is split in two so other front-ends (notably the
placement-advisor service, :mod:`repro.service`) can interpose their own
evaluation step without forking the ranking logic: :func:`plan_query`
lowers a placement question to a :class:`QueryPlan` — the equivalence
classes plus the flattened ``(representative, payload size)``
:class:`~repro.engine.keys.EvalRequest` grid — and
:func:`advice_from_results` assembles the grid's results back into an
:class:`Advice`.  Any evaluator that returns the grid's results aligned
with ``plan.requests`` therefore produces rankings bitwise-identical to
:func:`advise` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.equivalence import equivalence_classes
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import OrderSignature
from repro.core.orders import Order, format_order
from repro.launcher.slurm import order_to_distribution
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class Recommendation:
    """One scored equivalence class of orders."""

    order: Order  # representative
    equivalent_orders: tuple[Order, ...]
    signature: OrderSignature
    predicted_seconds: float
    slurm_distribution: str | None

    def legend(self) -> str:
        slurm = f" [{self.slurm_distribution}]" if self.slurm_distribution else ""
        return (
            f"{self.signature.legend()}{slurm} "
            f"-> {self.predicted_seconds * 1e3:.3f} ms"
        )

    def to_jsonable(self) -> dict:
        """JSON-safe form (floats round-trip exactly through ``json``)."""
        return {
            "order": list(self.order),
            "order_name": format_order(self.order),
            "equivalent_orders": [format_order(o) for o in self.equivalent_orders],
            "predicted_seconds": self.predicted_seconds,
            "slurm_distribution": self.slurm_distribution,
            "legend": self.legend(),
        }


@dataclass(frozen=True)
class Advice:
    """Ranked recommendations (fastest first) plus context."""

    recommendations: tuple[Recommendation, ...]
    collective: str
    comm_size: int
    scenario: str

    @property
    def best(self) -> Recommendation:
        return self.recommendations[0]

    @property
    def worst(self) -> Recommendation:
        return self.recommendations[-1]

    def spread_factor(self) -> float:
        """Predicted worst/best duration ratio — how much the choice matters."""
        return self.worst.predicted_seconds / self.best.predicted_seconds

    def report(self) -> str:
        lines = [
            f"advice for {self.collective} in {self.comm_size}-rank "
            f"communicators ({self.scenario} scenario):"
        ]
        for i, rec in enumerate(self.recommendations):
            n = len(rec.equivalent_orders)
            extra = f" (+{n - 1} equivalent)" if n > 1 else ""
            lines.append(f"  {i + 1}. {rec.legend()}{extra}")
        lines.append(f"worst/best factor: {self.spread_factor():.2f}x")
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "collective": self.collective,
            "comm_size": self.comm_size,
            "scenario": self.scenario,
            "recommendations": [r.to_jsonable() for r in self.recommendations],
            "spread_factor": self.spread_factor(),
        }


@dataclass(frozen=True)
class QueryPlan:
    """A placement query lowered to its evaluable request grid.

    ``classes`` holds the order equivalence classes (representative
    first); ``requests`` is the flattened representative-major
    ``(representative, payload size)`` grid whose results — aligned with
    ``requests`` — :func:`advice_from_results` assembles into an
    :class:`Advice`.  Index arithmetic: request ``i`` scores class
    ``i // n_sizes`` at payload ``total_bytes[i % n_sizes]``.
    """

    topology: MachineTopology
    hierarchy: Hierarchy
    comm_size: int
    collective: str
    scenario: str
    backend: str
    algorithm: str | None
    total_bytes: tuple[float, ...]
    classes: tuple[tuple[OrderSignature, ...], ...]
    requests: tuple = ()
    #: Workload-frontend plans: the registered workload name plus its
    #: canonical parameter pairs.  ``collective`` then carries the
    #: workload name purely as the report label, ``comm_size`` the
    #: lowered program's rank count, and ``total_bytes`` the single
    #: aggregate traffic volume (so ``n_sizes == 1``).
    workload: str | None = None
    workload_params: tuple = ()

    @property
    def duration_key(self) -> str:
        return "duration_all" if self.scenario == "all" else "duration_single"

    @property
    def n_sizes(self) -> int:
        return len(self.total_bytes)

    def __len__(self) -> int:
        return len(self.requests)


def plan_query(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_size: int | None = None,
    collective: str = "alltoall",
    total_bytes: Sequence[float] = (1e6, 64e6),
    scenario: str = "all",
    algorithm: str | None = None,
    orders: Sequence[Order] | None = None,
    backend: str = "round",
    workload: str | None = None,
    workload_params: dict | None = None,
) -> QueryPlan:
    """Validate a placement query and lower it to a :class:`QueryPlan`.

    Two query shapes share the pipeline: collective-shaped queries name
    ``(collective, comm_size, total_bytes)`` as before, and
    workload-shaped queries name a registered workload frontend instead
    -- the workload is lowered once through the registry, its rank count
    becomes the communicator size, and its aggregate traffic volume is
    the plan's single payload size.  Either way the request grid carries
    the same content keys the sweep layer issues, so advisor and sweeps
    share every cache record.
    """
    from repro.bench.sweeps import _cell_request, _grid

    if workload is None:
        if comm_size is None:
            raise ValueError(
                "comm_size is required for collective-shaped queries"
            )
        grid: dict = dict(
            comm_sizes=[comm_size], collectives=[collective],
            sizes=total_bytes, algorithm=algorithm,
        )
    else:
        grid = dict(workload=workload, workload_params=workload_params)
    (cells,) = _grid(topology, hierarchy, backend, scenario=scenario, **grid)
    if not cells:
        raise ValueError("total_bytes must name at least one payload size")
    if workload is not None:
        if comm_size not in (None, cells[0].comm_size):
            raise ValueError(
                f"workload {workload!r} lowers to {cells[0].comm_size} ranks "
                f"but the query names comm_size={comm_size}; omit comm_size "
                "for workload queries"
            )
        collective = workload  # the report label for workload advice
    comm_size = cells[0].comm_size
    classes = tuple(
        tuple(sigs)
        for sigs in equivalence_classes(hierarchy, comm_size, orders=orders).values()
    )
    requests = tuple(
        _cell_request(backend, topology, hierarchy, tuple(sigs[0].order), cell)
        for sigs in classes
        for cell in cells
    )
    return QueryPlan(
        topology=topology,
        hierarchy=hierarchy,
        comm_size=comm_size,
        collective=collective,
        scenario=scenario,
        backend=backend,
        algorithm=algorithm,
        total_bytes=tuple(float(cell.total_bytes) for cell in cells),
        classes=classes,
        requests=requests,
        workload=workload,
        workload_params=cells[0].params if workload is not None else (),
    )


def advice_from_results(plan: QueryPlan, results: Sequence[dict]) -> Advice:
    """Assemble a plan's evaluated grid (aligned with ``plan.requests``)
    into ranked :class:`Advice`.

    Quarantined :class:`~repro.engine.supervisor.EvalFailure` records in
    the grid raise a structured
    :class:`~repro.engine.batch.BatchEvaluationError` naming the failed
    (order, payload) points instead of a bare ``KeyError``.
    """
    from repro.engine.batch import BatchEvaluationError, failed_point
    from repro.engine.supervisor import is_failure

    if len(results) != len(plan.requests):
        raise ValueError(
            f"expected {len(plan.requests)} results for the plan's grid, "
            f"got {len(results)}"
        )
    n_sizes = plan.n_sizes
    failed = [
        failed_point(
            results[i],
            order=tuple(plan.classes[i // n_sizes][0].order),
            total_bytes=plan.total_bytes[i % n_sizes],
        )
        for i in range(len(results))
        if is_failure(results[i])
    ]
    if failed:
        raise BatchEvaluationError(
            failed, context=f"{plan.backend} advice grid for {plan.collective}"
        )
    key = plan.duration_key
    totals = []
    for c in range(len(plan.classes)):
        total = 0.0
        for j in range(n_sizes):
            total += float(results[c * n_sizes + j][key])
        totals.append(total)
    return _assemble(plan, totals)


def _assemble(plan: QueryPlan, totals: Sequence[float]) -> Advice:
    """Ranked advice from one summed duration per equivalence class."""
    recs = []
    for sigs, total in zip(plan.classes, totals):
        rep = sigs[0]
        recs.append(
            Recommendation(
                order=rep.order,
                equivalent_orders=tuple(s.order for s in sigs),
                signature=rep,
                predicted_seconds=total,
                slurm_distribution=order_to_distribution(plan.hierarchy, rep.order),
            )
        )
    recs.sort(key=lambda r: r.predicted_seconds)
    return Advice(
        recommendations=tuple(recs),
        collective=plan.collective,
        comm_size=plan.comm_size,
        scenario=plan.scenario,
    )


def ladder_advise(
    plan: QueryPlan,
    engine=None,
    config=None,
    exhaustive_audit: bool = False,
):
    """Rank a plan's equivalence classes through the fidelity ladder.

    Instead of scoring every class representative at the plan's backend
    like :func:`advice_from_results`, runs the error-calibrated
    successive-halving search
    (:class:`~repro.engine.fidelity.FidelityLadder`): classes are scored
    on the free analytic metric first and survivors promoted through
    progressively costlier models until the plan's backend ranks the
    finalists.  Returns ``(advice, result)`` — the :class:`Advice` over
    the *finalist* classes only (eliminated classes carry no duration to
    report) and the :class:`~repro.engine.fidelity.LadderResult` audit
    trail.  Finalist durations are bitwise-identical to a full
    :func:`advise` at the same backend: the final rung issues the exact
    request keys ``plan.requests`` holds.

    ``config`` defaults to the stock ladder toward ``plan.backend`` with
    the plan's scenario duration key; a custom config must agree with
    the plan on both.
    """
    import dataclasses

    from repro.engine import SweepEngine
    from repro.engine.fidelity import (
        FidelityLadder,
        LadderConfig,
        analytic_order_score,
        default_rungs,
    )
    from repro.engine.keys import protocol_request

    engine = engine or SweepEngine()
    if config is None:
        config = LadderConfig(
            rungs=default_rungs(plan.backend),
            duration_key=plan.duration_key,
        )
    if config.rungs[-1] != plan.backend:
        raise ValueError(
            f"ladder final rung {config.rungs[-1]!r} must match the plan's "
            f"backend {plan.backend!r}"
        )
    if config.duration_key != plan.duration_key:
        raise ValueError(
            f"ladder duration_key {config.duration_key!r} must match the "
            f"plan's scenario key {plan.duration_key!r}"
        )
    n_sizes = plan.n_sizes

    def requests_for(model: str, ci: int) -> Sequence:
        own = plan.requests[ci * n_sizes : (ci + 1) * n_sizes]
        if model == plan.backend:
            # The plan's own grid slice: identical objects, identical keys.
            return own
        return [
            protocol_request(
                model, r.topology, r.hierarchy, r.order, r.comm_size,
                r.workload, r.workload_params,
            )
            for r in own
        ]

    def metric_score(ci: int) -> float:
        rep = tuple(plan.classes[ci][0].order)
        return sum(
            analytic_order_score(
                plan.topology, plan.hierarchy, rep, plan.comm_size, nbytes
            )
            for nbytes in plan.total_bytes
        )

    ladder = FidelityLadder(engine, config)
    result = ladder.search(
        range(len(plan.classes)),
        requests_for,
        metric_score=metric_score,
        exhaustive_audit=exhaustive_audit,
    )
    if not result.ranking:
        raise ValueError(
            "ladder search produced no finalists (every class evaluation "
            "failed)"
        )
    finalists = tuple(result.ranking)
    reduced = dataclasses.replace(
        plan,
        classes=tuple(plan.classes[ci] for ci in finalists),
        requests=(),
    )
    totals = [result.scores[ci] for ci in finalists]
    return _assemble(reduced, totals), result


def advise(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_size: int | None = None,
    collective: str = "alltoall",
    total_bytes: Sequence[float] = (1e6, 64e6),
    scenario: str = "all",
    algorithm: str | None = None,
    orders: Sequence[Order] | None = None,
    backend: str = "round",
    engine=None,
    ladder=False,
    workload: str | None = None,
    workload_params: dict | None = None,
) -> Advice:
    """Rank order equivalence classes by predicted collective duration.

    ``scenario`` is ``"all"`` (every subcommunicator runs the collective
    concurrently — the common production case) or ``"single"``.  The score
    is the summed duration across ``total_bytes`` (one slow size cannot
    hide a pathological small-size regime).  ``backend`` selects the
    execution backend that scores each representative: ``round`` (the
    default contention model), ``logp`` (faster, rankings-only fidelity)
    or ``des`` (slowest, per-flow exact).

    The representative frontier is scored through a
    :class:`~repro.engine.SweepEngine`'s batch path (round/logp run as
    stacked array passes; ``des`` falls back to the engine's pool) --
    the same evaluation the advisor service runs, so served and offline
    advice agree by construction.  Pass ``engine`` to share its cache
    across calls; otherwise a private serial one is used.

    ``ladder`` routes the ranking through the multi-fidelity search
    instead (``True`` for the stock ladder toward ``backend``, or a
    :class:`~repro.engine.fidelity.LadderConfig`); the returned advice
    then covers only the ladder's finalist classes — see
    :func:`ladder_advise` for the audit trail.

    ``workload`` asks for advice on a registered workload frontend
    instead of a single collective (``comm_size`` is then derived from
    the lowered program -- omit it); the score is the workload's
    scenario duration per equivalence class.
    """
    from repro.engine import SweepEngine

    plan = plan_query(
        topology,
        hierarchy,
        comm_size,
        collective=collective,
        total_bytes=total_bytes,
        scenario=scenario,
        algorithm=algorithm,
        orders=orders,
        backend=backend,
        workload=workload,
        workload_params=workload_params,
    )
    if ladder:
        from repro.engine.fidelity import LadderConfig

        config = ladder if isinstance(ladder, LadderConfig) else None
        advice, _ = ladder_advise(plan, engine=engine, config=config)
        return advice
    engine = engine or SweepEngine()
    return advice_from_results(plan, engine.evaluate_batch(list(plan.requests)))
