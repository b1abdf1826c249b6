"""Per-layer metrics of a traced run, computed from merged span dumps.

Every metric is normalised per benchmark operation (one sweep, one ladder
search, one HTTP query), so a layer's number does not grow with how many
operations fit into the run.  Counts are calls per operation, times are
seconds per operation, ratios are taken over the whole traced phase.
"""

from __future__ import annotations

#: metric -> span whose self time it reports.  The self times of spans not
#: named here (the benchmark operation itself, ``service.advise``) are
#: ``trace.unattributed_s``.
SELF_METRICS = {
    "core.advisor.plan_query.self_s": "core.advisor.plan_query",
    "core.advisor.advice_from_results.self_s": "core.advisor.advice_from_results",
    "core.equivalence.placement_key.self_s": "core.equivalence.placement_key",
    "core.equivalence.equivalence_classes.self_s": "core.equivalence.equivalence_classes",
    "core.metrics.signature.self_s": "core.metrics.signature",
    "engine.fidelity.analytic_order_score.self_s": "engine.fidelity.analytic_order_score",
    "engine.keys.canonical.self_s": "engine.keys.canonical",
    "engine.cache.get.self_s": "engine.cache.get",
    "engine.cache.put.self_s": "engine.cache.put",
    "engine.core.self_s": "engine.core.evaluate",
    "workloads.lower.self_s": "workloads.lower",
    "ir.backends.logp.run_batch.self_s": "ir.backends.logp.run_batch",
    "ir.backends.round.run_batch.self_s": "ir.backends.round.run_batch",
    "ir.backends.des.run.self_s": "ir.backends.des.run",
    "netsim.flows.apply_rates.self_s": "netsim.flows.apply_rates",
    "engine.distributed.wire.encode_s": "engine.distributed.wire.encode",
    "engine.distributed.wire.decode_s": "engine.distributed.wire.decode",
    "engine.distributed.run.self_s": "engine.distributed.run",
    "engine.distributed.wait_s": "engine.distributed.wait",
    "service.plan.self_s": "service.plan",
    "service.coalesce.wait_s": "service.coalesce",
}

#: metric -> span whose calls it counts.
CALL_METRICS = {
    "core.advisor.plan_query.calls": "core.advisor.plan_query",
    "core.equivalence.placement_key.calls": "core.equivalence.placement_key",
    "core.metrics.signature.calls": "core.metrics.signature",
    "engine.fidelity.analytic_order_score.calls": "engine.fidelity.analytic_order_score",
    "engine.keys.canonical.calls": "engine.keys.canonical",
    "engine.cache.get.calls": "engine.cache.get",
    "engine.cache.put.calls": "engine.cache.put",
    "engine.core.evaluate.calls": "engine.core.evaluate",
    "workloads.lower.calls": "workloads.lower",
    "ir.backends.logp.run_batch.calls": "ir.backends.logp.run_batch",
    "ir.backends.des.run.calls": "ir.backends.des.run",
    "netsim.flows.apply_rates.calls": "netsim.flows.apply_rates",
}

#: Metrics from the untraced half of a traced run, reported per layer.
ADVISE_METRICS = (
    ("advise_warm_p50_ms", "ms", "lower"),
    ("advise_warm_p99_ms", "ms", "lower"),
    ("advise_cold_p50_ms", "ms", "lower"),
    ("advise_cold_p90_ms", "ms", "lower"),
    ("advise_qps", "queries/s", "higher"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Merged:
    """Span aggregates, counters and program counters of one traced phase."""

    def __init__(self, dumps: list[dict], program: dict, ops: int, op_wall_ns: int):
        self.ops = ops
        self.op_wall_ns = op_wall_ns
        self.program = program
        self.agg: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self.linked: dict[str, int] = {}
        self.min_self_ns = 0
        self.dropped = 0
        for d in dumps:
            for name, vals in d["agg"].items():
                cur = self.agg.setdefault(name, [0, 0, 0, 0])
                for i, v in enumerate(vals):
                    cur[i] += v
            for name, v in d["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + v
            for op, v in d["linked"].items():
                self.linked[op] = self.linked.get(op, 0) + v
            self.min_self_ns = min(self.min_self_ns, d["min_self_ns"])
            self.dropped += d["dropped"]

    def calls(self, span: str) -> int:
        return self.agg.get(span, [0, 0, 0, 0])[0]

    def critical_self_ns(self) -> dict[str, int]:
        return {name: v[3] for name, v in self.agg.items() if v[3]}


def attribution(m: Merged, http: bool) -> tuple[dict[str, int], int, int]:
    """Critical-path split of the traced wall.

    Returns ``(layer_ns, unattributed_ns, http_ns)``: critical self time per
    reported span, the rest, and (advise-http) the client-observed time
    outside the server's advise spans.  The three add up to the traced
    wall exactly when every span closed inside its parent.
    """
    reported = set(SELF_METRICS.values())
    layer_ns, unattributed = {}, 0
    for name, ns in m.critical_self_ns().items():
        if name in reported:
            layer_ns[name] = ns
        elif not (http and name == "bench.op"):
            unattributed += ns
    http_ns = m.op_wall_ns - sum(m.linked.values()) if http else 0
    return layer_ns, unattributed, http_ns


def layer_metrics(
    m: Merged,
    http: bool,
    overhead_ratio: float,
    rungs: list[list[dict]],
    error_ratio: float,
    advise: dict[str, float],
) -> dict[str, float]:
    ops = max(m.ops, 1)
    p = m.program
    out: dict[str, float] = {}
    for metric, span in CALL_METRICS.items():
        out[metric] = m.calls(span) / ops
    for metric, span in SELF_METRICS.items():
        out[metric] = m.agg.get(span, [0, 0, 0, 0])[2] / 1e9 / ops
    _layers, unattributed, http_ns = attribution(m, http)
    requests = p.get("engine.requests", 0)
    out["engine.core.pruned_ratio"] = _ratio(p.get("engine.pruned", 0), requests)
    out["engine.cache.hit_ratio"] = _ratio(p.get("engine.cache_hits", 0), requests)
    out["workloads.lower.memo_hit_ratio"] = _ratio(
        p.get("lower.hits", 0), p.get("lower.hits", 0) + p.get("lower.misses", 0)
    )
    out["netsim.flows.memo_hit_ratio"] = _ratio(
        p.get("flows.memo_hits", 0), p.get("flows.reprices", 0)
    )
    out["netsim.fabric.round_cache_hit_ratio"] = _ratio(
        p.get("fabric.hits", 0), p.get("fabric.hits", 0) + p.get("fabric.misses", 0)
    )
    for key in ("frames", "bytes"):
        name = f"engine.distributed.wire.{key}"
        out[name] = m.counters.get(name, 0) / ops
    for key, metric in (
        ("engine.retries", "engine.distributed.retries"),
        ("engine.quarantined", "engine.distributed.quarantined"),
        ("engine.respawned", "engine.distributed.respawned"),
    ):
        out[metric] = p.get(key, 0) / ops
    for rung in ("metric", "logp", "round"):
        walls = [r["wall_s"] for rs in rungs for r in rs if r["rung"] == rung]
        out[f"engine.fidelity.rung.{rung}.wall_s"] = sum(walls) / len(rungs) if rungs else 0.0
    screening = [r for rs in rungs for r in rs[:-1]]
    out["engine.fidelity.promote_ratio"] = _ratio(
        sum(r["n_promoted"] for r in screening), sum(r["n_candidates"] for r in screening)
    )
    taus = [r["tau"] for rs in rungs for r in rs if r["tau"] is not None]
    out["engine.fidelity.min_tau"] = min(taus) if taus else 0.0
    out["service.advise.wall_s"] = m.agg.get("service.advise", [0, 0, 0, 0])[1] / 1e9 / ops
    out["service.plan_cache_hit_ratio"] = _ratio(
        p.get("service.plan_hits", 0), p.get("service.requests", 0)
    )
    for key in ("submitted", "coalesced", "deduped"):
        out[f"service.coalesce.{key}"] = p.get(f"coalesce.{key}", 0) / ops
    out["service.http.self_s"] = http_ns / 1e9 / ops
    out["trace.wall_s"] = m.op_wall_ns / 1e9 / ops
    out["trace.unattributed_s"] = unattributed / 1e9 / ops
    out["trace.overhead_ratio"] = overhead_ratio
    out["error_ratio"] = error_ratio
    for name, _unit, _better in ADVISE_METRICS:
        out[name] = advise.get(name, 0.0)
    return out


def trace_checks(
    m: Merged, http: bool, op_walls: dict[str, int] | None, presence: dict
) -> dict[str, bool]:
    """Consistency of the span tree and the predicted presence of layers."""
    layers, unattributed, http_ns = attribution(m, http)
    total = sum(layers.values()) + unattributed + http_ns
    checks = {
        "layer self times + unattributed = traced wall": total == m.op_wall_ns,
        "no span closed outside its parent (self times >= 0)": m.min_self_ns >= 0,
    }
    if http and op_walls is not None:
        checks["every query's server spans lie inside its client latency"] = all(
            op in m.linked and m.linked[op] <= wall for op, wall in op_walls.items()
        )
    for span in presence.get("heavy", ()):
        checks[f"{span} fires"] = m.calls(span) > 0
    for span in presence.get("absent", ()):
        checks[f"{span} stays at zero calls"] = m.calls(span) == 0
    return checks
