#!/usr/bin/env python
"""Regenerate the repo's golden fixtures in one documented workflow.

Two golden families exist:

- ``tests/verify/golden_differential.json`` -- round-model and DES
  durations of the seed differential benchmarks
  (:func:`repro.verify.seed_benchmark_suite`), locked bitwise by
  ``tests/verify/test_golden_differential.py``.
- The healthy-path timing constants in
  ``tests/faults/test_golden_timing.py`` (``GOLDEN_ALLTOALL`` /
  ``GOLDEN_ALLREDUCE``), locked by that test.
- ``tests/ir/golden_fig3.json`` -- the fig3 grid's round-model durations
  (6 orders x 9 sizes, both scenarios) as ``repr`` strings, locked
  bitwise by ``tests/ir/test_golden_fig3.py`` (scalar path) and
  ``tests/ir/test_golden_batch.py`` (batch path).  Regenerated only with
  the ``--fig3`` flag: it is the seed fixture, so rewriting it is rarer
  than the differential families above.
- ``tests/workloads/golden_dnn.json`` -- one small transformer
  training step (dnn workload) on hydra-16, scored across the
  ``round``/``des``/``logp`` backends for four representative orders,
  locked bitwise by ``tests/workloads/test_dnn.py``.  Regenerated with
  the ``--dnn`` flag.

Run after an *intentional* change to the network models::

    PYTHONPATH=src python tests/verify/regen_golden.py [--fig3] [--dnn]

The differential fixture is rewritten in place; the fault-timing
constants are printed for manual pasting (they live in test source so the
diff is reviewable).  Any unexplained drift is a regression, not a reason
to regenerate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_differential.json"
FIG3_PATH = HERE.parent / "ir" / "golden_fig3.json"
DNN_PATH = HERE.parent / "workloads" / "golden_dnn.json"

#: The dnn golden's configuration (shared with tests/workloads/test_dnn.py).
DNN_PARAMS = {"dp": 4, "tp": 4, "pp": 2, "layers": 2, "hidden": 128, "seq": 64}
DNN_ORDERS = ((0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2), (2, 3, 0, 1))


def differential_golden() -> dict:
    """Seed-benchmark durations, keyed by case label (deterministic)."""
    from repro.verify import seed_benchmark_suite

    report = seed_benchmark_suite()
    return {
        "description": (
            "Round-model vs DES durations of the seed differential "
            "benchmarks; regenerate with tests/verify/regen_golden.py"
        ),
        "cases": {
            case.label: {
                "p": case.p,
                "total_bytes": case.total_bytes,
                "t_round": case.t_round,
                "t_des": case.t_des,
            }
            for case in report.cases
        },
    }


def fault_timing_golden() -> tuple[dict, float]:
    """The PR-1 healthy-path constants (see tests/faults/test_golden_timing.py)."""
    from tests.faults.test_golden_timing import _run_benchmarks

    alltoall, allreduce = _run_benchmarks(schedule=None)
    times = set(allreduce.values())
    assert len(times) == 1, "allreduce finish times diverged across ranks"
    return alltoall, times.pop()


def fig3_golden() -> dict:
    """The fig3 grid's round-model durations as ``repr`` strings.

    Generated from the *scalar* round path (the model of record);
    ``tests/ir/test_golden_fig3.py`` then locks the scalar paths to it
    and ``tests/ir/test_golden_batch.py`` locks the batch path, so both
    evaluation modes stay pinned to one fixture.
    """
    from repro.bench.figures import fig3_data
    from repro.core.orders import format_order

    return {
        "figure": "fig3",
        "orders": {
            format_order(s.order): {
                "sizes": [repr(p.total_bytes) for p in s.points],
                "duration_single": [repr(p.duration_single) for p in s.points],
                "duration_all": [repr(p.duration_all) for p in s.points],
            }
            for s in fig3_data()
        },
    }


def dnn_golden() -> dict:
    """The dnn workload's training-step durations as ``repr`` strings.

    One small DP=4 x TP=4 x PP=2 transformer step on hydra-16 (32 ranks,
    16 concurrent instances), scored through :func:`sweep` on
    every registered execution backend so the whole engine path -- not
    just the lowering -- is pinned.
    """
    from repro.bench.sweeps import sweep
    from repro.topology.machines import hydra

    topology = hydra(16)
    hierarchy = topology.hierarchy
    backends = {}
    sample = None
    for backend in ("round", "des", "logp"):
        records = sweep(
            topology,
            hierarchy,
            workload="dnn",
            workload_params=dict(DNN_PARAMS),
            orders=DNN_ORDERS,
            backend=backend,
            prune=False,
        )
        sample = records[0]
        backends[backend] = {
            rec.order: {
                "duration_single": repr(rec.duration_single),
                "duration_all": repr(rec.duration_all),
            }
            for rec in records
        }
    return {
        "workload": "dnn",
        "machine": topology.name,
        "params": dict(DNN_PARAMS),
        "comm_size": sample.comm_size,
        "n_comms": sample.n_comms,
        "total_bytes": repr(sample.total_bytes),
        "backends": backends,
    }


def main() -> int:
    golden = differential_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['cases'])} cases)")

    if "--fig3" in sys.argv[1:]:
        fig3 = fig3_golden()
        FIG3_PATH.write_text(json.dumps(fig3, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIG3_PATH} ({len(fig3['orders'])} orders)")

    if "--dnn" in sys.argv[1:]:
        dnn = dnn_golden()
        DNN_PATH.write_text(json.dumps(dnn, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DNN_PATH} ({len(dnn['backends'])} backends)")

    alltoall, allreduce = fault_timing_golden()
    print("\nConstants for tests/faults/test_golden_timing.py (paste if an")
    print("intentional model change shifted them):")
    print("GOLDEN_ALLTOALL = {")
    for rank, t in alltoall.items():
        print(f"    {rank}: {t!r},")
    print("}")
    print(f"GOLDEN_ALLREDUCE = {allreduce!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
