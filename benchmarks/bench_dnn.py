"""Acceptance benchmark for the dnn workload frontend at scale.

Lowers one DP=8 x TP=8 x PP=16 transformer training step (1024 ranks,
32 layers) through the workload registry and scores every enumeration
order of a 1024-core machine with the ``logp`` backend, asserting the
tentpole's contract:

- the step lowers, validates, and sweeps end-to-end at >= 1024 ranks;
- per-order scoring stays under ``DNN_BENCH_MAX_S_PER_ORDER`` wall-clock
  seconds (default 10 locally; CI can widen it to absorb shared-runner
  noise) -- the regime where the frontier search over DP x TP x PP
  placements is interactive rather than overnight;
- the ranking is identical across ``--jobs 1`` and ``--jobs 2`` engines
  (content-keyed requests make the fan-out a pure scheduling choice);
- the run emits the machine-readable ``BENCH_dnn.json`` artifact with
  the program shape, per-phase walls, the full ranking, and verdicts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.bench.report import assert_checks, check, print_checks
from repro.bench.sweeps import sweep
from repro.engine import SweepEngine
from repro.ir import validate_program
from repro.topology.machines import generic_cluster
from repro.workloads import lower_workload

#: Where CI picks the perf artifact up (repo root; see .github/workflows).
BENCH_JSON = Path("BENCH_dnn.json")

#: Wall-clock ceiling for scoring one enumeration order with ``logp``.
MAX_S_PER_ORDER = float(os.environ.get("DNN_BENCH_MAX_S_PER_ORDER", "10.0"))

#: 16 nodes x 8 sockets x 8 cores = 1024 processes, one full-machine step.
RADICES = (16, 8, 8)
PARAMS = {
    "dp": 8,
    "tp": 8,
    "pp": 16,
    "layers": 32,
    "hidden": 1024,
    "seq": 512,
}


def _ranking(records):
    """Order names sorted by the ``all``-scenario duration (ties by name)."""
    return [
        r.order
        for r in sorted(records, key=lambda r: (r.duration_all, r.order))
    ]


def test_dnn_step_scales_to_1024_ranks(once):
    def measure():
        topology = generic_cluster(RADICES)
        hierarchy = topology.hierarchy

        t0 = time.perf_counter()
        program = lower_workload("dnn", dict(PARAMS))
        report = validate_program(program)
        t_lower = time.perf_counter() - t0

        t0 = time.perf_counter()
        serial = sweep(
            topology, hierarchy, workload="dnn", workload_params=dict(PARAMS),
            engine=SweepEngine(jobs=1), backend="logp",
        )
        t_serial = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = sweep(
            topology, hierarchy, workload="dnn", workload_params=dict(PARAMS),
            engine=SweepEngine(jobs=2), backend="logp",
        )
        t_parallel = time.perf_counter() - t0
        return program, report, serial, t_lower, t_serial, parallel, t_parallel

    program, report, serial, t_lower, t_serial, parallel, t_parallel = once(
        measure
    )
    n_orders = len(serial)
    s_per_order = t_serial / n_orders
    ranking = _ranking(serial)
    jobs_identical = [
        (a.order, repr(a.duration_single), repr(a.duration_all))
        for a in sorted(serial, key=lambda r: r.order)
    ] == [
        (b.order, repr(b.duration_single), repr(b.duration_all))
        for b in sorted(parallel, key=lambda r: r.order)
    ]

    print(
        f"\ndnn dp{PARAMS['dp']} x tp{PARAMS['tp']} x pp{PARAMS['pp']} "
        f"(L{PARAMS['layers']} h{PARAMS['hidden']}): {program.n_ranks} ranks, "
        f"{len(program.rounds)} rounds, lower+validate {t_lower:.2f}s"
    )
    print(
        f"logp sweep: {n_orders} orders in {t_serial:.2f}s "
        f"({s_per_order:.2f}s/order serial, {t_parallel:.2f}s with 2 jobs)"
    )
    for rec in sorted(serial, key=lambda r: r.duration_all)[:3]:
        print(f"  {rec.order}: all {rec.duration_all:.4f}s")

    doc = {
        "suite": (
            f"dnn training step, dp{PARAMS['dp']} x tp{PARAMS['tp']} x "
            f"pp{PARAMS['pp']}, {program.n_ranks} ranks on "
            f"{'x'.join(map(str, RADICES))}, logp backend"
        ),
        "params": dict(PARAMS),
        "n_ranks": program.n_ranks,
        "n_rounds": len(program.rounds),
        "total_bytes": program.total_bytes,
        "validation_ok": report.ok,
        "n_orders": n_orders,
        "walls": {
            "lower_validate_s": t_lower,
            "sweep_serial_s": t_serial,
            "sweep_jobs2_s": t_parallel,
            "s_per_order": s_per_order,
        },
        "max_s_per_order_required": MAX_S_PER_ORDER,
        "ranking": ranking,
        "jobs_ranking_identical": jobs_identical,
        "records": [
            {
                "order": r.order,
                "duration_single": repr(r.duration_single),
                "duration_all": repr(r.duration_all),
            }
            for r in sorted(serial, key=lambda r: r.order)
        ],
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    checks = [
        check(
            "the step lowers to >= 1024 ranks and passes IR validation",
            program.n_ranks >= 1024 and report.ok,
            f"{program.n_ranks} ranks, {len(program.rounds)} rounds",
        ),
        check(
            f"per-order logp scoring <= {MAX_S_PER_ORDER:g}s wall-clock",
            s_per_order <= MAX_S_PER_ORDER,
            f"{s_per_order:.2f}s/order over {n_orders} orders",
        ),
        check(
            "rankings bitwise identical across --jobs 1 and --jobs 2",
            jobs_identical and _ranking(parallel) == ranking,
            f"{n_orders} orders",
        ),
        check(
            "BENCH_dnn.json written with shape, walls, ranking, verdicts",
            BENCH_JSON.exists()
            and {"walls", "ranking", "records", "jobs_ranking_identical"}
            <= set(json.loads(BENCH_JSON.read_text())),
            str(BENCH_JSON),
        ),
    ]
    print_checks(checks)
    assert_checks(checks)
