"""Socket-worker launcher for the ``des-workers`` workload.

Serves a manager through the public ``repro.engine.distributed.run_worker``
-- what ``repro-mrd worker --connect HOST:PORT`` runs -- so the worker side
of the sweep can be traced from outside.  Prints ``hello <ns>`` (the
monotonic clock) once its hello frame is on the wire, and on exit writes
peak RSS, the program's counters and, when traced, its spans to REPORT.

Usage: ``python3 perfbench/worker.py HOST:PORT REPORT [--trace]``
"""

from __future__ import annotations

import json
import sys
import time

from common import peak_rss_mb, require_sources


def main(argv: list[str]) -> int:
    require_sources()
    import repro.engine.distributed as distributed
    import repro.engine.evaluators as evaluators
    from spans import Recorder, delta, install, program_counters

    host, port = argv[0].rsplit(":", 1)
    report = argv[1]
    traced = "--trace" in argv[2:]
    rec = Recorder()
    base = program_counters()
    if traced:
        install(rec)
        evaluate = evaluators.evaluate_request

        def evaluate_request(request):
            # One root span per task, keyed by the request's content key.
            frame, token, t0 = rec.begin(op=request.key[:16])
            try:
                return evaluate(request)
            finally:
                rec.end("engine.distributed.worker.task", frame, token, t0)

        evaluators.evaluate_request = evaluate_request

    send = distributed.send_frame

    def send_frame(sock, doc):
        send(sock, doc)
        if doc.get("type") == "hello":
            print(f"hello {time.monotonic_ns()}", flush=True)

    distributed.send_frame = send_frame
    code = distributed.run_worker(host, int(port))
    with open(report, "w") as fh:
        json.dump(
            {
                "rss_mb": peak_rss_mb(),
                "counters": delta(program_counters(), base),
                "trace": rec.dump() if traced else None,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
