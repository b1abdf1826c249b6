"""Frontier-shaped evaluation requests for the vectorized batch path.

A :class:`BatchEvalRequest` describes a whole frontier of (order,
payload-size) micro-benchmark points -- the unit the paper's figures and
the advisor actually sweep -- and flattens it into the same
content-addressed :class:`~repro.engine.keys.EvalRequest` grid the scalar
path uses, order-major.  :func:`evaluate_batch` pushes that grid through
:meth:`~repro.engine.core.SweepEngine.evaluate_batch`, so every point
still hits the two-tier cache under its own key and the results are
bitwise identical to N scalar evaluations; only the inner loop changes
(stacked array passes in-process instead of one task per point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.core.orders import format_order
from repro.engine.core import SweepEngine
from repro.engine.keys import EvalRequest, collective_params, protocol_request
from repro.engine.supervisor import is_failure
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class FailedPoint:
    """One grid point whose evaluation was quarantined as a failure."""

    order: tuple[int, ...] | None
    total_bytes: float | None
    cause: str
    detail: str
    key: str

    def describe(self) -> str:
        order = format_order(self.order) if self.order is not None else "?"
        size = f"{self.total_bytes:g} B" if self.total_bytes is not None else "? B"
        return f"order {order} @ {size}: {self.cause} ({self.detail})"


def failed_point(
    record: dict,
    order: tuple[int, ...] | None = None,
    total_bytes: float | None = None,
) -> FailedPoint:
    """Lift a salvaged :class:`~repro.engine.supervisor.EvalFailure`
    result record into a :class:`FailedPoint` at known grid coordinates."""
    return FailedPoint(
        order=order,
        total_bytes=total_bytes,
        cause=str(record.get("failure_cause", "unknown")),
        detail=str(record.get("failure_detail", "")),
        key=str(record.get("failure_key", "")),
    )


class BatchEvaluationError(RuntimeError):
    """A result grid contains quarantined evaluation failures.

    The supervised fallback path salvages a batch by recording tasks that
    exhausted their attempt budget as structured
    :class:`~repro.engine.supervisor.EvalFailure` result dicts instead of
    aborting the sweep.  Consumers that need every grid point (stacking,
    ranking, advice assembly) raise this instead of an opaque
    ``KeyError``/``TypeError``: :attr:`points` names each failed
    ``(order, payload)`` coordinate with its cause.  Failures are never
    cached or journaled, so re-running the same grid retries exactly
    these points.
    """

    def __init__(self, points: Sequence[FailedPoint], context: str = ""):
        self.points = tuple(points)
        head = context or "batch evaluation"
        shown = "; ".join(p.describe() for p in self.points[:8])
        more = f" (+{len(self.points) - 8} more)" if len(self.points) > 8 else ""
        super().__init__(
            f"{head}: {len(self.points)} grid point(s) failed evaluation -- "
            f"{shown}{more}; failures are never cached, so re-running the "
            "grid retries exactly these points"
        )


@dataclass(frozen=True)
class BatchEvalRequest:
    """One frontier: every listed order crossed with every payload size.

    ``model`` names a protocol backend (``round`` and ``logp`` have
    vectorized batch evaluators; ``des`` transparently runs on the
    supervised scalar path).  ``extras`` and ``seed`` are forwarded
    to every generated request.
    """

    model: str
    topology: MachineTopology
    hierarchy: Hierarchy
    orders: tuple[tuple[int, ...], ...]
    comm_size: int
    collective: str
    total_bytes: tuple[float, ...]
    algorithm: str | None = None
    seed: int = 0
    extras: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "orders",
            tuple(tuple(int(i) for i in o) for o in self.orders),
        )
        object.__setattr__(
            self, "total_bytes", tuple(float(s) for s in self.total_bytes)
        )

    def __len__(self) -> int:
        return len(self.orders) * len(self.total_bytes)

    def requests(self) -> list[EvalRequest]:
        """The flattened grid, order-major: ``index = o * n_sizes + s``."""
        cells = [
            collective_params(
                self.collective, self.comm_size, nbytes, self.algorithm
            )
            for nbytes in self.total_bytes
        ]
        return [
            protocol_request(
                self.model, self.topology, self.hierarchy, order,
                self.comm_size, "collective", params,
                seed=self.seed, extras=self.extras,
            )
            for order in self.orders
            for params in cells
        ]

    def stack(self, results: Sequence[dict], key: str) -> np.ndarray:
        """Results field ``key`` as an ``(n_orders, n_sizes)`` array.

        Raises :class:`BatchEvaluationError` (naming the failed
        ``(order, payload)`` grid points) when the sequence contains
        salvaged :class:`~repro.engine.supervisor.EvalFailure` records
        from the supervised fallback path.
        """
        n_sizes = len(self.total_bytes)
        if len(results) != len(self):
            raise ValueError(
                f"expected {len(self)} results, got {len(results)}"
            )
        failed = [
            failed_point(
                r,
                order=self.orders[i // n_sizes],
                total_bytes=self.total_bytes[i % n_sizes],
            )
            for i, r in enumerate(results)
            if is_failure(r)
        ]
        if failed:
            raise BatchEvaluationError(
                failed, context=f"{self.model} frontier stack({key!r})"
            )
        return np.array(
            [float(r[key]) for r in results], dtype=float
        ).reshape(len(self.orders), n_sizes)

    def rank_orders(
        self, results: Sequence[dict], key: str = "duration_all"
    ) -> list[tuple[int, ...]]:
        """Orders ranked fastest-first by summed duration across sizes.

        Ties break by frontier position, matching what a stable sort over
        the scalar path's per-order totals produces.
        """
        totals = self.stack(results, key).sum(axis=1)
        ranked = sorted(range(len(self.orders)), key=lambda i: (totals[i], i))
        return [self.orders[i] for i in ranked]


def evaluate_batch(
    batch: BatchEvalRequest, engine: SweepEngine | None = None
) -> list[dict]:
    """Score a frontier in vectorized passes; results align with
    :meth:`BatchEvalRequest.requests`.

    With no ``engine``, a fresh in-process :class:`SweepEngine` (no disk
    cache) is used; pass one to share its cache, journal and stats.
    """
    engine = engine or SweepEngine()
    return engine.evaluate_batch(batch.requests())
