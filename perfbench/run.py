#!/usr/bin/env python3
"""The repository benchmark: how fast users get a best process order.

Users get the paper's answer -- the best mixed-radix process order for a
machine -- three ways: an exhaustive order sweep, a multi-fidelity ladder
search, or a query to the advisor service.  Each workload below stands for
one of them (``des-workers`` runs the sweep over socket workers):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures for about S seconds, checks every output bit for bit, prints one
human-readable line per metric (value, unit, sample count), the machine
fingerprint, and as its last line a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` spends half the
time untraced and half traced and reports the per-layer metrics, writing
the spans of every process as Chrome trace-event JSON under
``perfbench/out/`` (open it in https://ui.perfetto.dev).  Every run also
writes its full result record, fingerprint included, to ``perfbench/out/``.

Workloads, seeds and the layer -> metric predictions are recorded in
``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    beyond,
    child_env,
    fingerprint,
    median,
    peak_rss_mb,
    percentile,
    python_cmd,
    require_sources,
    run_child,
)

WORKLOADS = ("frontier-logp", "ladder-round", "advise-http", "des-workers")

#: Every run must end well inside three minutes.
RUN_LIMIT_S = 170.0


class Run:
    """What one workload run measured, checked and traced."""

    def __init__(self) -> None:
        self.e2e: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
        # Further user-facing figures: (name, value, unit, samples, remark).
        self.more: list[tuple[str, float, str, int, str]] = []
        self.layers: dict[str, float] = {}
        self.traced_ops = 0
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.trace_events: list[dict] = []
        self.notes: dict = {}
        self.query_mix: dict | None = None


# -- sweep workloads: one fresh process per iteration ---------------------------------


#: Set-up-only processes per sweep run, on top of one per iteration.
SETUP_PROBES = 4


def _child(workload, seed, mode, timeout) -> dict:
    spawned = time.monotonic_ns()
    return run_child(
        python_cmd("sweep_child.py", workload, str(seed), str(spawned), mode, str(OUT_DIR)),
        timeout=timeout,
    )


def _iterations(workload, seed, budget, traced, t_run0) -> list[dict]:
    out, walls = [], []
    t0 = time.monotonic()
    while True:
        # Start another iteration while it is expected to end by half an
        # iteration past the budget at the latest.
        est = median(walls) if walls else 0.0
        if out and time.monotonic() - t0 + est / 2 > budget:
            break
        remaining = RUN_LIMIT_S - (time.monotonic() - t_run0)
        if out and remaining < 2 * est:
            break
        t_iter = time.monotonic()
        out.append(
            _child(workload, seed, "trace" if traced else "run", max(30.0, remaining))
        )
        walls.append(time.monotonic() - t_iter)
    return out


def run_sweep(workload: str, seed: int, seconds: float, trace: bool, presence: dict) -> Run:
    import layers

    run = Run()
    t_run0 = time.monotonic()
    setups = [_child(workload, seed, "setup", 60)["setup_s"] for _ in range(SETUP_PROBES)]
    budget = seconds / 2 if trace else seconds
    plain = _iterations(workload, seed, budget, False, t_run0)
    traced = _iterations(workload, seed, budget, True, t_run0) if trace else []
    for it in plain + traced:
        run.attempted += 1
        run.failed += 1 if it["quarantined"] else 0
        for name, ok in it["checks"].items():
            run.checks[name] = run.checks.get(name, True) and ok
    n = len(plain)
    setups += [it["setup_s"] for it in plain]
    run.e2e["setup_s"] = (median(setups), "s", len(setups))
    run.e2e["orders_per_s"] = (median(it["orders"] / it["op_s"] for it in plain), "orders/s", n)
    run.e2e["peak_rss_mb"] = (median(it["rss_mb"] for it in plain), "MB", n)
    run.notes["setups_s"] = setups
    run.notes["iterations"] = [
        {k: it[k] for k in ("setup_s", "op_s", "rss_mb", "quarantined")} for it in plain
    ]
    if trace:
        program: dict = {}
        for it in traced:
            for k, v in it["counters"].items():
                program[k] = program.get(k, 0) + v
        dumps = [d for it in traced for d in it["traces"]]
        merged = layers.Merged(dumps, program, len(traced), _op_wall_ns(dumps))
        overhead = median(it["op_s"] for it in traced) / median(it["op_s"] for it in plain) - 1
        rungs = [it["rungs"] for it in traced if it["rungs"]]
        run.layers = layers.layer_metrics(
            merged, False, overhead, rungs, run.failed / run.attempted, {}
        )
        run.checks.update(layers.trace_checks(merged, False, None, presence))
        run.traced_ops = len(traced)
        run.notes["traced_op_s"] = [it["op_s"] for it in traced]
        run.notes["attribution"] = _attribution_note(merged, False)
        run.trace_events = _events(dumps)
    return run


def _op_wall_ns(dumps) -> int:
    return sum(d["agg"].get("bench.op", [0, 0, 0, 0])[1] for d in dumps)


def _attribution_note(merged, http: bool) -> dict:
    import layers

    spans, unattributed, http_ns = layers.attribution(merged, http)
    note = {name: ns / 1e9 for name, ns in sorted(spans.items())}
    note["(unattributed)"] = unattributed / 1e9
    if http:
        note["(http: client latency outside service.advise)"] = http_ns / 1e9
    note["(traced wall)"] = merged.op_wall_ns / 1e9
    note["(spans left out of the trace file)"] = merged.dropped
    return note


def _events(dumps) -> list[dict]:
    import spans

    base = min((s[1] for d in dumps for s in d["spans"]), default=0)
    events = []
    for d in dumps:
        events.extend(spans.chrome_events(d, base))
    return events


# -- advise-http: one server process, one closed-loop client ---------------------------

#: Server boots per run; set-up time is their median.
BOOTS = 5


class Server:
    """The advisor service in its own process (``perfbench/server.py``)."""

    def __init__(self, errlog: Path):
        t0 = time.monotonic()
        self._err = open(errlog, "w")
        self.proc = subprocess.Popen(
            python_cmd("server.py"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._err,
            env=child_env(),
            text=True,
        )
        line = self._readline(60)
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                ok = conn.getresponse().status == 200
                conn.close()
            except OSError:
                ok = False
            if ok:
                break
            if time.monotonic() - t0 > 60:
                self.close()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - t0

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def command(self, cmd: str) -> None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        line = self._readline(60)
        if line.strip() != "ok":
            raise RuntimeError(f"server command {cmd!r} failed: {line!r}")

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=10)
        finally:
            self._err.close()


class Client:
    """One connection's closed loop: send, wait for the answer, repeat."""

    def __init__(self, port: int, stream, conn_id: int):
        self.port = port
        self.stream = stream
        self.conn_id = conn_id
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.samples: list[tuple[str, float, int, str]] = []  # (kind, latency_s, orders, group)
        self.failed = 0
        self.op_walls: dict[str, int] = {}
        self.answers: dict[str, set] = {}  # canonical query -> advice digests
        self.kept: dict[str, tuple] = {}  # kind:group -> (query, advice)
        self.pending: list[tuple[str, int, dict, bytes]] = []  # (kind, wall_ns, query, body)

    def post(self, doc: dict, op: str) -> tuple[int, bytes]:
        """Send one query; returns the status and the undecoded answer."""
        body = json.dumps(doc)
        self.conn.request(
            "POST", f"/advise?op={op}", body=body,
            headers={"Content-Type": "application/json"},
        )
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def loop(self, phase: str, deadline: float, rec) -> None:
        i = 0
        while time.monotonic() < deadline:
            kind, doc = self.stream.next()
            i += 1
            op = f"{phase}{self.conn_id}-{i}"
            t0 = time.monotonic_ns()
            try:
                if rec is not None:
                    with rec.op(op) as span:
                        status, body = self.post(doc, op)
                    wall = span.wall_ns
                else:
                    status, body = self.post(doc, op)
                    wall = time.monotonic_ns() - t0
            except (OSError, http.client.HTTPException):
                self.failed += 1
                self.conn.close()
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
                continue
            if status != 200:
                self.failed += 1
                continue
            self.stream.answered(doc)
            # Answers are decoded and checked once the phase ends, so that
            # the client's own work does not compete with the server for
            # the CPU while queries are timed.
            self.pending.append((kind, wall, doc, body))
            if rec is not None:
                self.op_walls[op] = wall

    def settle(self) -> None:
        """Decode, count and record the answers received so far."""
        for kind, wall, doc, body in self.pending:
            try:
                advice = json.loads(body)["advice"]
            except (ValueError, KeyError):
                self.failed += 1
                continue
            orders = sum(len(r["equivalent_orders"]) for r in advice["recommendations"])
            label = doc.get("workload", f"{doc['machine']}-{doc.get('comm_size')}")
            self.samples.append((kind, wall / 1e9, orders, label))
            key = json.dumps(doc, sort_keys=True)
            digest = hashlib.sha256(json.dumps(advice, sort_keys=True).encode()).hexdigest()
            self.answers.setdefault(key, set()).add(digest)
            if self.conn_id == 0:
                # Kept for the offline advise() check: the first answer of
                # each cold kind and warm group (offline scoring is slow).
                warmth = "cold" if kind == "cold" else "warm"
                self.kept.setdefault(f"{warmth}:{label}", (doc, advice))
        self.pending.clear()


def _phase(clients, phase: str, seconds: float, rec) -> float:
    deadline = time.monotonic() + seconds
    t0 = time.monotonic()
    threads = [
        threading.Thread(target=c.loop, args=(phase, deadline, rec)) for c in clients
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - t0
    for c in clients:
        c.settle()
    return wall


def _advise_stats(clients, wall: float, start: list[int]) -> dict:
    samples = [s for c, n in zip(clients, start) for s in c.samples[n:]]
    # Warm queries are the answered points asked again: exact repeats and
    # new subsets of answered sizes (which miss the plan memo).
    warm = [s[1] * 1e3 for s in samples if s[0] != "cold"]
    cold = [s[1] * 1e3 for s in samples if s[0] == "cold"]
    repeat = [s[1] * 1e3 for s in samples if s[0] == "repeat"]
    groups: dict[str, list[float]] = {}
    for kind, lat, _orders, label in samples:
        groups.setdefault(f"{kind}:{label}", []).append(lat * 1e3)

    def stat(fn, values, *args):
        return fn(values, *args) if values else 0.0

    return {
        "by_group_ms": {
            g: {"n": len(v), "median": median(v), "sum": sum(v)} for g, v in sorted(groups.items())
        },
        "n": len(samples),
        "n_warm": len(warm),
        "n_cold": len(cold),
        "n_repeat": len(repeat),
        "repeat_p50_ms": stat(median, repeat),
        "orders_per_s": sum(s[2] for s in samples) / wall,
        "advise_warm_p50_ms": stat(median, warm),
        "advise_warm_p99_ms": stat(percentile, warm, 0.99),
        "advise_warm_p99_beyond": stat(beyond, warm, 0.99),
        "advise_cold_p50_ms": stat(median, cold),
        "advise_cold_p90_ms": stat(percentile, cold, 0.90),
        "advise_cold_p90_beyond": stat(beyond, cold, 0.90),
        "advise_qps": len(samples) / wall,
    }


def _query_mix(stats: dict, counters: dict) -> dict:
    """Query shares sent (by design and as sent) and the plan-memo hits seen.

    The shares are an assumption of the benchmark, not measured traffic;
    recording them with every result makes a change of the mix visible.
    """
    import inputs

    n = max(stats["n"], 1)
    requests = counters.get("service.requests", 0)
    hits = counters.get("service.plan_hits", 0)
    return {
        "design": {
            "cold": inputs.COLD / inputs.BLOCK,
            "subset": inputs.SUBSETS / inputs.BLOCK,
            "repeat": (inputs.BLOCK - inputs.COLD - inputs.SUBSETS) / inputs.BLOCK,
        },
        "sent": {
            "cold": stats["n_cold"] / n,
            "subset": (stats["n_warm"] - stats["n_repeat"]) / n,
            "repeat": stats["n_repeat"] / n,
        },
        "server_requests": requests,
        "plan_memo_hits": hits,
        "plan_memo_misses": requests - hits,
        "plan_memo_hit_ratio": hits / requests if requests else 0.0,
    }


def _offline_checks(clients) -> dict[str, bool]:
    """Served answers equal offline ``advise()``; repeats answer identically."""
    from repro.core.advisor import advise
    from repro.service.app import topology_for
    from repro.topology.hwloc import parse_synthetic

    checks = {}
    consistent = all(len(d) == 1 for c in clients for d in c.answers.values())
    checks["repeated queries get identical answers"] = consistent
    ok, n = True, 0
    for c in clients:
        for doc, served in c.kept.values():
            h = parse_synthetic(doc["hierarchy"])
            topo = topology_for(doc["machine"], h)
            if "workload" in doc:
                offline = advise(
                    topo, h, workload=doc["workload"],
                    workload_params=dict(doc["workload_params"]), backend="logp",
                )
            else:
                offline = advise(
                    topo, h, doc["comm_size"],
                    total_bytes=tuple(doc["total_bytes"]), backend="logp",
                )
            ok = ok and served == offline.to_jsonable()
            n += 1
    checks[f"served advice equals offline advise() ({n} queries)"] = ok and n > 0
    return checks


def run_advise(seed: int, seconds: float, trace: bool, presence: dict) -> Run:
    import inputs
    import layers
    import spans

    run = Run()
    errlog = OUT_DIR / f"server-{seed}.err"
    setups = []
    for _ in range(BOOTS - 1):
        server = Server(errlog)
        setups.append(server.setup_s)
        server.close()
    server = Server(errlog)
    setups.append(server.setup_s)
    t_prelude = time.monotonic()

    def report(phase: str) -> dict:
        path = OUT_DIR / f"server-{seed}-{phase}.json"
        server.command(f"report {path}")
        doc = json.loads(path.read_text())
        path.unlink()
        return doc

    try:
        warm_up = Client(server.port, None, 0)
        for i, doc in enumerate(inputs.prelude()):
            status, _ = warm_up.post(doc, f"prelude-{i}")
            if status != 200:
                raise RuntimeError(f"prelude query failed with HTTP {status}")
        warm_up.conn.close()
        run.notes["prelude_s"] = time.monotonic() - t_prelude
        server.command("mark")
        clients = [
            Client(server.port, inputs.QueryStream(seed, c), c)
            for c in range(inputs.CONNECTIONS)
        ]
        budget = seconds / 2 if trace else seconds
        wall = _phase(clients, "u", budget, None)
        plain = _advise_stats(clients, wall, [0] * len(clients))
        doc = report("untraced")
        plain_counters = doc["counters"]
        client_rss = peak_rss_mb()
        if trace:
            start = [len(c.samples) for c in clients]
            rec = spans.Recorder()
            server.command("trace")
            server.command("mark")
            traced = _advise_stats(clients, _phase(clients, "t", budget, rec), start)
            doc = report("traced")
    finally:
        server.close()
    run.query_mix = _query_mix(plain, plain_counters)
    run.attempted = sum(len(c.samples) + c.failed for c in clients)
    run.failed = sum(c.failed for c in clients)
    n = plain["n"]
    run.e2e["setup_s"] = (median(setups), "s", len(setups))
    run.e2e["orders_per_s"] = (plain["orders_per_s"], "orders/s", n)
    run.e2e["peak_rss_mb"] = (client_rss + doc["rss_mb"], "MB", 2)
    run.notes["advise"] = plain
    run.notes["setups_s"] = setups
    for name, unit, _better in layers.ADVISE_METRICS:
        n = plain["n_warm"] if "warm" in name else plain["n_cold"] if "cold" in name else plain["n"]
        tail = plain.get(name[: -len("_ms")] + "_beyond")
        remark = f", {tail} beyond" if tail is not None else ""
        run.more.append((name, plain[name], unit, n, remark))
    if trace:
        op_walls = {op: w for c in clients for op, w in c.op_walls.items()}
        dumps = [rec.dump(), doc["trace"]]
        merged = layers.Merged(dumps, doc["counters"], traced["n"], sum(op_walls.values()))
        # Exact repeats are the same work in both halves (the traced half
        # sends other cold queries, against warmer caches).
        overhead = traced["repeat_p50_ms"] / plain["repeat_p50_ms"] - 1
        advise_metrics = {name: plain[name] for name, _u, _b in layers.ADVISE_METRICS}
        run.layers = layers.layer_metrics(
            merged, True, overhead, [], run.failed / max(run.attempted, 1), advise_metrics
        )
        run.checks.update(layers.trace_checks(merged, True, op_walls, presence))
        run.traced_ops = traced["n"]
        run.notes["advise_traced"] = traced
        run.notes["attribution"] = _attribution_note(merged, True)
        run.trace_events = _events(dumps)
    t_check = time.monotonic()
    run.checks.update(_offline_checks(clients))
    run.notes["offline_check_s"] = time.monotonic() - t_check
    return run


# -- reporting ----------------------------------------------------------------------------


def _metric_line(name: str, value: float, unit: str, samples: int | None) -> str:
    n = f"  (n={samples})" if samples is not None else ""
    return f"  {name:<46} {value:>14.6g} {unit}{n}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((BENCH_DIR / "predictions.json").read_text())
    seed = plan["seeds"]["default"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    OUT_DIR.mkdir(exist_ok=True)
    fp = fingerprint()
    presence = plan["presence"][args.workload]
    if args.workload == "advise-http":
        run = run_advise(seed, seconds, bool(args.trace), presence)
    else:
        run = run_sweep(args.workload, seed, seconds, bool(args.trace), presence)

    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={seed} seconds={seconds:g} trace={args.trace}")
    print("machine " + json.dumps(fp, sort_keys=True))
    print("end-to-end (untraced):")
    for name, (value, unit, n) in run.e2e.items():
        print(_metric_line(name, value, unit, n))
    for name, value, unit, n, remark in run.more:
        print(_metric_line(name, value, unit, n) + remark)
    error_ratio = run.failed / max(run.attempted, 1)
    print(_metric_line("error_ratio", error_ratio, "failed/attempted", run.attempted))
    if args.trace:
        print(f"per-layer (traced, per operation, {run.traced_ops} operations):")
        for m in spec["per_layer"]:
            print(_metric_line(m["name"], run.layers[m["name"]], m["unit"], None))
        print("critical-path attribution (s): " + json.dumps(run.notes["attribution"]))
        trace_path = OUT_DIR / f"trace-{tag}.json"
        trace_path.write_text(
            json.dumps({"traceEvents": run.trace_events, "displayTimeUnit": "ms"})
        )
        print(f"trace: {trace_path.relative_to(ROOT)}")
    if run.query_mix is not None:
        mix = run.query_mix
        shares = " ".join(
            f"{k} {mix['sent'][k]:.3f} (design {mix['design'][k]:.3f})" for k in mix["sent"]
        )
        print(
            f"query mix sent (untraced): {shares}; plan memo hit ratio "
            f"{mix['plan_memo_hit_ratio']:.3f} ({mix['plan_memo_misses']} misses "
            f"of {mix['server_requests']} requests)"
        )
    known = set(plan["known_failures"].get(args.workload, {}).get("checks", ()))
    failing = [name for name, ok in run.checks.items() if not ok]
    for name, ok in run.checks.items():
        mark = "ok  " if ok else "FAIL (known)" if name in known else "FAIL (new)"
        print(f"check {mark} {name}")
    if failing:
        new = [name for name in failing if name not in known]
        print(
            f"checks failed: {len(failing)}; "
            + (f"NEW: {new}" if new else "all listed in predictions.json known_failures")
        )

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    have = run.layers if args.trace else {k: v[0] for k, v in run.e2e.items()}
    missing = [m["name"] for m in wanted if m["name"] not in have]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": have[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": bool(run.checks) and all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "machine": fp,
        "end_to_end": {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in run.e2e.items()
        },
        "per_layer": run.layers,
        "checks": run.checks,
        "failed_checks": {
            "known": [name for name in failing if name in known],
            "new": [name for name in failing if name not in known],
        },
        "query_mix": run.query_mix,
        "notes": run.notes,
        "result": result,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
