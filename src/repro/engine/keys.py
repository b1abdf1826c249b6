"""Canonical, content-addressed evaluation requests.

Every simulation the sweep layer runs -- a protocol point on the
``round``/``logp``/``des`` backends, a verification cell, a chaos cell --
is described by an :class:`EvalRequest`.  The request canonicalises all
inputs that influence the result (hierarchy, order, communicator size,
collective, payload size, fault schedule, seed, *and* every performance
parameter of the machine topology) into a deterministic JSON document,
whose SHA-256 digest is the cache key.

Key properties:

- **Content-addressed**: two requests with identical physics share a key
  regardless of how their objects were constructed.
- **Self-invalidating**: the canonical document embeds the package
  version and a cache schema number, so upgrading either silently
  invalidates stale on-disk entries instead of replaying them.
- **Exact**: floats are keyed via ``repr`` (shortest round-tripping
  form), never via rounding, mirroring the exact-rational equivalence
  keys of :mod:`repro.core.equivalence`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.hierarchy import Hierarchy
from repro.topology.machine import MachineTopology

#: Bump when the canonical layout or any evaluator's semantics change in a
#: way that should invalidate previously cached results.
#: Schema history:
#:   1 -> 2: the IR/backend refactor extended the ``des`` evaluator's
#:           result keys (``duration_single``, optional ``duration_all``)
#:           and added the ``logp`` model, so pre-IR cached documents are
#:           missing keys the new consumers read.
#:   2 -> 3: on-disk cache records gained mandatory integrity fields
#:           (``schema`` + ``checksum`` of the result payload); pre-3
#:           records would be quarantined as corrupt, so retire their
#:           keys instead.
#:   3 -> 4: protocol points (``round``/``logp``/``des``) are keyed in one
#:           shape: a collective is the ``collective`` workload, so the
#:           legacy ``collective``/``algorithm``/``total_bytes`` fields no
#:           longer appear in their canonical documents.
#:   4 -> 5: ``des`` joined the shared protocol-point evaluator: its
#:           results are exactly ``duration_single``/``duration_all``,
#:           and ``duration_all`` is always simulated, so a schema-4
#:           record of an extras-free ``des`` request (which lacks
#:           ``duration_all``) must not be served.
CACHE_SCHEMA = 5

#: Models that run the Section 4.1 protocol point: place one lowered
#: workload on the reordered world and time it on one subcommunicator
#: and on all of them.
PROTOCOL_MODELS = frozenset({"round", "logp", "des"})


def _package_version() -> str:
    from repro import __version__

    return __version__


def _jsonify(value: Any) -> Any:
    """Deterministic JSON-friendly form of one request field."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips exactly and distinguishes inf/-inf; NaN would
        # break key equality and is rejected outright.  Coerce subclasses
        # (np.float64 reprs as "np.float64(...)") to plain float first.
        if math.isnan(value):
            raise ValueError("NaN cannot appear in an evaluation request")
        return repr(float(value))
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    # numpy scalars and anything else with .item()
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonify(item())
    raise TypeError(f"cannot canonicalise {type(value).__name__} in a request")


def topology_fingerprint(topology: MachineTopology) -> dict:
    """Every performance-relevant parameter of a machine topology."""
    return {
        "name": topology.name,
        "flop_rate": _jsonify(topology.flop_rate),
        "root_bw": _jsonify(topology.root_bw),
        "levels": [
            {
                "name": lv.name,
                "radix": lv.radix,
                "link_bw": _jsonify(lv.link_bw),
                "link_lat": _jsonify(lv.link_lat),
                "mem_bw": _jsonify(lv.mem_bw),
            }
            for lv in topology.levels
        ],
    }


def hierarchy_fingerprint(hierarchy: Hierarchy) -> dict:
    return {
        "radices": list(hierarchy.radices),
        "names": list(hierarchy.names),
        "masked": hierarchy.masked,
    }


def schedule_fingerprint(schedule) -> list[dict]:
    """Canonical form of a :class:`repro.faults.FaultSchedule`."""
    return [
        {
            "kind": s.kind,
            "start": _jsonify(s.start),
            "target": s.target,
            "level": s.level,
            "end": _jsonify(s.end),
            "bw_factor": _jsonify(s.bw_factor),
            "lat_factor": _jsonify(s.lat_factor),
            "slowdown": _jsonify(s.slowdown),
        }
        for s in schedule
    ]


@dataclass(frozen=True)
class EvalRequest:
    """One memoizable simulation, with its full provenance.

    ``model`` names the registered evaluator (``round``, ``des``,
    ``verify``, ``chaos_healthy``, ``chaos_cell``, ...); ``extras`` holds
    model-specific knobs as a sorted tuple of ``(name, value)`` pairs so
    the dataclass stays hashable and canonicalisation stays stable.
    """

    model: str
    topology: MachineTopology
    hierarchy: Hierarchy | None = None
    order: tuple[int, ...] | None = None
    comm_size: int | None = None
    collective: str | None = None
    algorithm: str | None = None
    total_bytes: float | None = None
    seed: int = 0
    schedule: Any = None  # FaultSchedule | None (kept loose to avoid a cycle)
    extras: tuple[tuple[str, Any], ...] = field(default=())
    #: Protocol-point requests: the registered workload name plus its
    #: canonical parameter pairs (see ``repro.workloads.canonical_params``).
    #: A collective-shaped protocol request (``collective``/``algorithm``/
    #: ``total_bytes`` set, no workload) is rewritten on construction to
    #: the equivalent ``collective`` workload, so both spellings share one
    #: key.  ``verify`` cells keep their collective fields.
    workload: str | None = None
    workload_params: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.model in PROTOCOL_MODELS and self.workload is None and (
            self.collective is not None
            or self.algorithm is not None
            or self.total_bytes is not None
        ):
            params = collective_params(
                self.collective, self.comm_size, self.total_bytes,
                self.algorithm,
            )
            object.__setattr__(self, "workload", "collective")
            object.__setattr__(self, "workload_params", params)
            for name in ("collective", "algorithm", "total_bytes"):
                object.__setattr__(self, name, None)
        if self.order is not None:
            object.__setattr__(self, "order", tuple(int(i) for i in self.order))
        for name in ("extras", "workload_params"):
            pairs = getattr(self, name)
            out = tuple(sorted((str(k), v) for k, v in pairs))
            # Keep an already-sorted tuple: requests built from one grid
            # cell then share it instead of each holding a copy.
            object.__setattr__(self, name, pairs if out == pairs else out)

    def extra(self, name: str, default: Any = None) -> Any:
        for k, v in self.extras:
            if k == name:
                return v
        return default

    def canonical(self) -> dict:
        """The deterministic provenance document behind :attr:`key`."""
        doc: dict[str, Any] = {
            "schema": CACHE_SCHEMA,
            "version": _package_version(),
            "model": self.model,
            "topology": topology_fingerprint(self.topology),
            "seed": self.seed,
        }
        if self.hierarchy is not None:
            doc["hierarchy"] = hierarchy_fingerprint(self.hierarchy)
        if self.order is not None:
            doc["order"] = list(self.order)
        if self.comm_size is not None:
            doc["comm_size"] = self.comm_size
        if self.collective is not None:
            doc["collective"] = self.collective
        if self.algorithm is not None:
            doc["algorithm"] = self.algorithm
        if self.total_bytes is not None:
            doc["total_bytes"] = _jsonify(float(self.total_bytes))
        if self.schedule is not None and len(self.schedule):
            doc["schedule"] = schedule_fingerprint(self.schedule)
        if self.extras:
            doc["extras"] = {k: _jsonify(v) for k, v in self.extras}
        if self.workload is not None:
            doc["workload"] = self.workload
            doc["workload_params"] = {
                k: _jsonify(v) for k, v in self.workload_params
            }
        return doc

    @property
    def key(self) -> str:
        """SHA-256 hex digest of the canonical document (memoized).

        Every field is frozen, so the digest is computed once per
        instance; the engine, the journal and :meth:`worker_seed` all
        read the same cached string instead of re-canonicalising.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            blob = json.dumps(
                self.canonical(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def worker_seed(self) -> int:
        """Deterministic per-request RNG seed for pool workers.

        Derived from the content key so it is stable across runs, job
        counts and dispatch order, and mixed with the declared ``seed`` so
        two requests differing only in seed draw different streams.
        """
        return (int(self.key[:12], 16) ^ (self.seed * 0x9E3779B1)) % (2**31)


def collective_params(
    collective: str,
    comm_size: int,
    total_bytes: float,
    algorithm: str | None = None,
) -> tuple[tuple[str, Any], ...]:
    """Canonical ``collective``-workload parameters of one protocol point."""
    from repro.workloads import canonical_params

    return canonical_params(
        "collective",
        dict(
            collective=collective, p=comm_size, total_bytes=total_bytes,
            algorithm=algorithm,
        ),
    )


def protocol_request(
    model: str,
    topology: MachineTopology,
    hierarchy: Hierarchy,
    order: Sequence[int],
    comm_size: int,
    workload: str,
    workload_params: tuple[tuple[str, Any], ...],
) -> EvalRequest:
    """The one constructor of protocol-point requests.

    Sweeps, ladders, figures and the advisor all build their
    ``round``/``logp``/``des`` requests here, so equal physics gets
    equal keys wherever it is asked for.  Every protocol backend returns
    ``duration_single`` and ``duration_all``, so no request carries
    extras.
    """
    return EvalRequest(
        model=model,
        topology=topology,
        hierarchy=hierarchy,
        order=order,
        comm_size=comm_size,
        workload=workload,
        workload_params=workload_params,
    )
