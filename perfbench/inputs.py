"""Workload inputs generated from the benchmark seed.

The program only ever sees what these functions return.  Sweep payloads
are drawn from fixed menus so that every seed's outputs can be checked
bit for bit against references recorded once per menu entry
(``refs/*.json``, written by ``make_refs.py``); the advisor stream draws
fresh payload sizes freely, because its check runs offline ``advise()``
at the end of each run.
"""

from __future__ import annotations

import random

#: Payload sizes (bytes) the sweep workloads draw from.  Alltoall switches
#: from Bruck (log p rounds) to pairwise exchange (p - 1 rounds) above
#: 4 KiB per rank, which sets a sweep's cost far more than the size itself:
#: ``SMALL`` sizes run Bruck on 64 ranks and pairwise on 8, ``LARGE`` sizes
#: pairwise everywhere.  Drawing from one stratum at a time keeps the work
#: per run the same for every seed.
SMALL = (65536.0, 98304.0, 131072.0, 196608.0, 262144.0)
LARGE = (
    1048576.0,
    2097152.0,
    4194304.0,
    8388608.0,
    16777216.0,
    33554432.0,
    67108864.0,
    134217728.0,
)

FRONTIER_RADICES = (2,) * 6
FRONTIER_COMMS = (8, 64)

LADDER_RADICES = (2,) * 6
LADDER_COMMS = (64,)
LADDER = {"rungs": ("metric", "logp", "round"), "eta": 8.0, "top_k": 10, "probe": 16}

DES_RADICES = (2,) * 5
DES_COMMS = (4, 8)
DES_WORKERS = 2


def _rng(workload: str, seed: int, *more) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed, *more)))


def menu(workload: str) -> tuple[float, ...]:
    """Every payload size the workload's seeds can draw."""
    return SMALL + LARGE if workload == "frontier-logp" else LARGE


def sweep_inputs(workload: str, seed: int) -> dict:
    """The grid one sweep-workload iteration evaluates."""
    rng = _rng(workload, seed)
    if workload == "frontier-logp":
        return {
            "radices": FRONTIER_RADICES,
            "comm_sizes": FRONTIER_COMMS,
            "sizes": (rng.choice(SMALL), rng.choice(LARGE)),
        }
    if workload == "ladder-round":
        return {
            "radices": LADDER_RADICES,
            "comm_sizes": LADDER_COMMS,
            "sizes": (rng.choice(LARGE),),
        }
    if workload == "des-workers":
        return {
            "radices": DES_RADICES,
            "comm_sizes": DES_COMMS,
            "sizes": (rng.choice(LARGE),),
        }
    raise ValueError(f"no sweep inputs for workload {workload!r}")


# -- the advisor query stream ----------------------------------------------------

PRESETS = {
    "hydra": "node:4 socket:2 group:2 core:8",
    "lumi": "node:2 socket:2 numa:4 l3:2 core:8",
}
#: (machine, comm size) shapes of the collective queries.
SHAPES = (("hydra", 16), ("hydra", 64), ("lumi", 16), ("lumi", 64))
#: Sizes every shape is warmed with before timing starts; 3e4 B runs Bruck
#: on both comm sizes, the others pairwise.
BASE_SIZES = (3e4, 1e6, 8e6, 64e6)
#: Transformer steps for the ``dnn`` queries (dp, tp, pp) on 8 or 16 ranks.
DNN_LAYOUTS = {0: ((2, 2, 2),), 1: ((4, 2, 2), (2, 4, 2), (2, 2, 4))}
DNN_BASE = {"dp": 2, "tp": 2, "pp": 2, "hidden": 256, "seq": 64}
#: Each connection sends blocks of BLOCK queries holding COLD cold ones
#: (a grid never seen before), SUBSETS new subsets of answered sizes (a
#: plan-memo miss served from the result cache) and exact repeats of
#: recently answered queries; the seed orders each block and picks values.
#: These shares are an assumption, not measured traffic (see
#: ``predictions.json``); every result record reports the shares sent and
#: the plan-memo hit ratio the server saw.
BLOCK = 20
COLD = 1
SUBSETS = 3
#: Cold kinds; each cycle sends one of each, alternating per kind between
#: the cheap regime (Bruck, or the 8-rank dnn layout) and the costly one
#: (pairwise, 16-rank dnn).
COLD_KINDS = ("hydra-16", "hydra-64", "lumi-16", "lumi-64", "dnn")
#: Repeats rotate over these query groups (one per shape, plus dnn) and
#: draw from the group's RECENT most recently answered queries.
GROUPS = tuple(f"{m}-{c}" for m, c in SHAPES) + ("dnn",)
RECENT = 16
#: Client connections (each a closed loop on one keep-alive socket).
CONNECTIONS = 2


def collective_query(machine: str, comm: int, sizes) -> dict:
    return {
        "machine": machine,
        "hierarchy": PRESETS[machine],
        "comm_size": comm,
        "total_bytes": list(sizes),
    }


def dnn_query(params: dict) -> dict:
    return {
        "machine": "hydra",
        "hierarchy": PRESETS["hydra"],
        "workload": "dnn",
        "workload_params": dict(params),
    }


def prelude() -> list[dict]:
    """Queries sent once, untimed, so every shape's structures exist."""
    docs = [collective_query(m, c, BASE_SIZES) for m, c in SHAPES]
    docs.append(dnn_query(DNN_BASE))
    return docs


class QueryStream:
    """One connection's seeded closed-loop stream.

    Cold queries carry payload sizes (or ``dnn`` parameters) that no query
    has used before; connections draw them from disjoint residues, so each
    connection's stream is fixed by the seed alone.  Warm queries reuse
    only points this connection has seen answered.
    """

    def __init__(self, seed: int, conn: int):
        self.rng = _rng("advise-http", seed, conn)
        self.conn = conn
        self.used: set = set()
        self.sizes = {shape: list(BASE_SIZES) for shape in SHAPES}
        self.done: dict[str, list[dict]] = {g: [] for g in GROUPS}
        for query in prelude():
            self.answered(query)
        self.block: list[str] = []
        self.n_cold = 0
        self.n_subset = 0
        self.n_repeat = 0

    def next(self) -> tuple[str, dict]:
        """``(kind, query)``; kind is ``cold``, ``subset`` or ``repeat``."""
        if not self.block:
            self.block = ["cold"] * COLD + ["subset"] * SUBSETS
            self.block += ["repeat"] * (BLOCK - len(self.block))
            self.rng.shuffle(self.block)
        step = self.block.pop()
        if step == "cold":
            return "cold", self._cold()
        if step == "subset":
            machine, comm = SHAPES[self.n_subset % len(SHAPES)]
            self.n_subset += 1
            pool = self.sizes[(machine, comm)]
            k = self.rng.randint(1, min(3, len(pool)))
            return "subset", collective_query(machine, comm, self.rng.sample(pool, k))
        group = GROUPS[self.n_repeat % len(GROUPS)]
        self.n_repeat += 1
        return "repeat", dict(self.rng.choice(self.done[group][-RECENT:]))

    def answered(self, query: dict) -> None:
        """Make an answered query's points available to warm queries."""
        if "workload" in query:
            group = "dnn"
        else:
            group = f"{query['machine']}-{query['comm_size']}"
            pool = self.sizes[(query["machine"], query["comm_size"])]
            pool.extend(s for s in query["total_bytes"] if s not in pool)
        self.done[group].append(query)

    def _cold(self) -> dict:
        # Kinds rotate in a fixed order (connections start apart) and each
        # kind alternates regimes per cycle: the mix is the same for every
        # seed, only the values differ.
        i = self.n_cold + 2 * self.conn
        self.n_cold += 1
        kind = COLD_KINDS[i % len(COLD_KINDS)]
        costly = (i // len(COLD_KINDS) + COLD_KINDS.index(kind) + self.conn) % 2
        while True:
            if kind == "dnn":
                dp, tp, pp = self.rng.choice(DNN_LAYOUTS[costly])
                params = {
                    "dp": dp,
                    "tp": tp,
                    "pp": pp,
                    "hidden": 64
                    * (CONNECTIONS * self.rng.randint(1, 12) + self.conn),
                    "seq": self.rng.choice((32, 64, 128)),
                }
                key = tuple(sorted(params.items()))
                query = dnn_query(params)
            else:
                machine, comm = kind.split("-")
                comm = int(comm)
                # Alltoall runs Bruck up to 4 KiB per rank, pairwise above.
                lo, hi = (16384, 2e6) if costly else (512, 4000)
                total = comm * self.rng.uniform(lo, hi)
                key = float(CONNECTIONS * round(total / CONNECTIONS) + self.conn)
                query = collective_query(machine, comm, [key])
            if key not in self.used:
                self.used.add(key)
                return query
