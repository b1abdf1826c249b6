"""One iteration of a sweep workload, in a fresh process.

A ``repro-mrd sweep`` user pays every process-global memo cold on each
call, so each iteration is a new interpreter with a new engine and no disk
tier.  The iteration times set-up (interpreter start to the first timed
call: imports, machine and engine construction and, for ``des-workers``,
spawning two socket workers until both said hello), then the sweep or
ladder search itself, then checks the output bit for bit against the
recorded references.

Usage: ``python3 perfbench/sweep_child.py WORKLOAD SEED SPAWNED_NS MODE OUTDIR``
where SPAWNED_NS is the parent's monotonic clock just before it started
this process and MODE is ``run``, ``trace`` (run with spans recorded) or
``setup`` (stop once set-up is timed).  Prints one JSON object on its last
line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import select
import subprocess
import sys
import time
from pathlib import Path

from common import REFS_DIR, child_env, peak_rss_mb, python_cmd, require_sources
from inputs import DES_WORKERS, LADDER, sweep_inputs

#: Points of the frontier re-evaluated through the scalar evaluator.
SPOT_CHECKS = 16


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _wait_hello(procs, timeout: float) -> list[int]:
    """Monotonic ns at which each worker's hello frame went out."""
    deadline = time.monotonic() + timeout
    stamps = []
    for proc in procs:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("hello "):
            raise RuntimeError(f"worker {proc.pid} never said hello ({line!r})")
        stamps.append(int(line.split()[1]))
    return stamps


def _check(workload, inp, seed, records, topo, h) -> dict[str, bool]:
    from repro.bench.sweeps import to_csv

    refs = json.loads((REFS_DIR / f"{workload}.json").read_text())
    checks = {}
    for size in inp["sizes"]:
        got = [r for r in records if r.total_bytes == size]
        ref = refs[repr(size)]
        if workload == "ladder-round":
            checks[f"top-k CSV equals exhaustive sweep at {size:.0f} B"] = (
                to_csv(got) == ref
            )
        else:
            checks[f"records digest equals reference at {size:.0f} B"] = (
                _digest(to_csv(got)) == ref
            )
    if workload == "frontier-logp":
        checks["seeded points equal the scalar evaluator"] = _spot_check(
            seed, inp, records, topo, h
        )
    return checks


def _spot_check(seed, inp, records, topo, h) -> bool:
    from repro.core.orders import all_orders, format_order
    from repro.engine import EvalRequest
    from repro.engine.evaluators import evaluate_request

    by_point = {(r.comm_size, r.order, r.total_bytes): r for r in records}
    rng = random.Random(f"spot-check:{seed}")
    orders = all_orders(h.depth)
    for _ in range(SPOT_CHECKS):
        comm = rng.choice(inp["comm_sizes"])
        order = rng.choice(orders)
        size = rng.choice(inp["sizes"])
        rec = by_point[comm, format_order(order), size]
        point = evaluate_request(
            EvalRequest(
                model="logp",
                topology=topo,
                hierarchy=h,
                order=order,
                comm_size=comm,
                collective="alltoall",
                total_bytes=size,
            )
        )
        if (point["duration_single"], point["duration_all"]) != (
            rec.duration_single,
            rec.duration_all,
        ):
            return False
    return True


def _spawn_workers(address, trace: bool, outdir: str, tag: int):
    """Start the socket workers; returns the processes and report paths."""
    host, port = address
    procs, reports = [], []
    for i in range(DES_WORKERS):
        report = Path(outdir) / f"worker-{tag}-{i}.json"
        reports.append(report)
        cmd = python_cmd("worker.py", f"{host}:{port}", str(report))
        procs.append(
            subprocess.Popen(
                cmd + (["--trace"] if trace else []),
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                stdin=subprocess.DEVNULL,
                env=child_env(),
                text=True,
            )
        )
    return procs, reports


def _shutdown(engine, workers) -> None:
    """Stop the dispatcher (which tells workers to exit) and reap them."""
    if engine.dispatcher is not None:
        engine.dispatcher.close()
    for proc in workers:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


def main(argv: list[str]) -> int:
    workload, seed, spawned_ns, mode, outdir = argv
    seed, spawned_ns, trace = int(seed), int(spawned_ns), mode == "trace"
    require_sources()
    from repro.bench.sweeps import ladder_sweep, sweep
    from repro.core.hierarchy import Hierarchy
    from repro.core.orders import all_orders
    from repro.engine import DistributedSupervisor, SweepEngine
    from repro.topology.machines import generic_cluster
    from spans import Recorder, delta, install, program_counters

    inp = sweep_inputs(workload, seed)
    radices = inp["radices"]
    names = tuple(f"l{i}" for i in range(len(radices)))
    topo = generic_cluster(radices, names=names)
    h = Hierarchy(radices, names=names)
    engine = SweepEngine()
    workers, reports = [], []
    rec = Recorder()
    result = None
    try:
        if workload == "des-workers":
            engine.dispatcher = DistributedSupervisor(
                policy=engine.retry_policy, min_workers=DES_WORKERS
            )
            workers, reports = _spawn_workers(
                engine.dispatcher.address, trace, outdir, spawned_ns
            )
            ready_ns = max(_wait_hello(workers, timeout=60))
        else:
            ready_ns = time.monotonic_ns()
        setup_s = (ready_ns - spawned_ns) / 1e9
        if mode != "setup":
            if trace:
                install(rec)
            base = program_counters(engine=engine)
            op = rec.op(f"{workload}:{seed}") if trace else contextlib.nullcontext()
            t0 = time.monotonic_ns()
            with op:
                if workload == "ladder-round":
                    records, result = ladder_sweep(
                        topo, h, inp["comm_sizes"], sizes=inp["sizes"],
                        engine=engine, backend="round", rungs=LADDER["rungs"],
                        eta=LADDER["eta"], top_k=LADDER["top_k"], probe=LADDER["probe"],
                    )
                else:
                    records = sweep(
                        topo, h, inp["comm_sizes"], sizes=inp["sizes"], engine=engine,
                        backend="logp" if workload == "frontier-logp" else "des",
                        batch=workload == "frontier-logp",
                    )
            op_s = (time.monotonic_ns() - t0) / 1e9
            rss_mb = peak_rss_mb()
            counters = delta(program_counters(engine=engine), base)
            traces = [rec.dump()] if trace else []
    finally:
        _shutdown(engine, workers)
    docs = [json.loads(r.read_text()) for r in reports]
    for report in reports:
        report.unlink()
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    for doc in docs:
        rss_mb += doc["rss_mb"]
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
        if doc["trace"] is not None:
            traces.append(doc["trace"])

    checks = _check(workload, inp, seed, records, topo, h)
    out = {
        "setup_s": setup_s,
        "op_s": op_s,
        "orders": len(all_orders(h.depth)),
        "rss_mb": rss_mb,
        "quarantined": len(engine.failures),
        "checks": checks,
        "counters": counters,
        "rungs": [r.to_jsonable() for r in result.rungs] if result else None,
        "traces": traces,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
