"""The collective workload: one MPI collective via the algorithm registry.

Every collective protocol point is this workload: sweeps, figures, the
advisor and collective-shaped :class:`~repro.engine.keys.EvalRequest`
objects all key and lower it through the registry, and
:func:`repro.ir.lower.collective_program` calls it positionally.
"""

from __future__ import annotations

from repro.ir.program import CommProgram, ProgramMeta
from repro.workloads.base import ParamSpec, register_workload


class CollectiveWorkload:
    name = "collective"
    description = "one MPI collective, auto-selecting the algorithm"
    params = (
        ParamSpec("collective", "str", doc="collective name (alltoall, ...)"),
        ParamSpec("p", "int", doc="communicator size"),
        ParamSpec(
            "total_bytes", "float",
            doc="total payload (communicator size x per-rank count)",
        ),
        ParamSpec(
            "algorithm", "str", default=None,
            doc="pin an algorithm (default: size-based selection)",
        ),
    )

    def lower(
        self,
        *,
        collective: str,
        p: int,
        total_bytes: float,
        algorithm: str | None = None,
    ) -> CommProgram:
        from repro.collectives.selector import rounds_for, select_algorithm
        from repro.ir.lower import from_rounds

        name = algorithm or select_algorithm(collective, p, total_bytes)
        rounds = rounds_for(collective, p, total_bytes, name)
        meta = ProgramMeta(
            source="collective",
            collective=collective,
            algorithm=name,
            total_bytes=float(total_bytes),
            label=f"{collective}/{name}",
        )
        return from_rounds(rounds, n_ranks=p, meta=meta)


register_workload(CollectiveWorkload())
