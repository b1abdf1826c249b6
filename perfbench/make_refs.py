"""Record the references the sweep workloads are checked against.

For every payload size a workload's seeds can draw (``inputs.menu``):

- ``refs/frontier-logp.json``: SHA-256 of the CSV records of the exhaustive
  logp batch sweep (both comm sizes) at that size;
- ``refs/ladder-round.json``: the top-k CSV of the exhaustive round-fidelity
  ``sweep(batch=True)`` -- what the ladder search must reproduce exactly;
- ``refs/des-workers.json``: SHA-256 of the CSV records of the serial
  (``jobs=1``, in-process) DES sweep -- what the socket workers must match.

Run from the repository root: ``python3 perfbench/make_refs.py [WORKLOAD...]``.
Only rerun it when a change is meant to alter results.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from common import REFS_DIR, require_sources
from inputs import LADDER, menu, sweep_inputs


def _machine(radices):
    from repro.core.hierarchy import Hierarchy
    from repro.topology.machines import generic_cluster

    names = tuple(f"l{i}" for i in range(len(radices)))
    return generic_cluster(radices, names=names), Hierarchy(radices, names=names)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def refs_for(workload: str) -> dict[str, str]:
    from repro.bench.sweeps import sweep, to_csv, top_k_records
    from repro.engine import SweepEngine

    inp = sweep_inputs(workload, 0)
    topo, h = _machine(inp["radices"])
    comms = inp["comm_sizes"]
    out = {}
    for size in menu(workload):
        t0 = time.perf_counter()
        if workload == "frontier-logp":
            records = sweep(
                topo, h, comms, sizes=(size,), engine=SweepEngine(),
                backend="logp", batch=True,
            )
            out[repr(size)] = _digest(to_csv(records))
        elif workload == "ladder-round":
            records = sweep(
                topo, h, comms, sizes=(size,), engine=SweepEngine(),
                backend="round", batch=True,
            )
            out[repr(size)] = to_csv(top_k_records(records, LADDER["top_k"]))
        elif workload == "des-workers":
            records = sweep(
                topo, h, comms, sizes=(size,), engine=SweepEngine(jobs=1),
                backend="des",
            )
            out[repr(size)] = _digest(to_csv(records))
        else:
            raise SystemExit(f"unknown workload {workload!r}")
        print(
            f"{workload} {size:g} B: {time.perf_counter() - t0:.1f}s",
            file=sys.stderr,
        )
    return out


def main(argv: list[str]) -> int:
    require_sources()
    for workload in argv or ("frontier-logp", "ladder-round", "des-workers"):
        path = REFS_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs_for(workload), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
