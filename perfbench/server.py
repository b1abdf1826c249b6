"""Advisor-service launcher for the ``advise-http`` workload.

Boots the service in this process through the public
``repro.service.start_service_server`` -- logp backend, in-memory result
cache, no pre-warm (its idle trigger would fire at unpredictable points of
a closed-loop stream) -- prints ``port N`` and then obeys one-line
commands on stdin, answering each with ``ok``:

``trace``
    install the span wrappers (the traced half of a ``--trace 1`` run);
``mark``
    forget recorded spans and take counter baselines;
``report PATH``
    write peak RSS, counter deltas since ``mark`` and the spans to PATH.

End of input stops the server and exits.

Usage: ``python3 perfbench/server.py`` (started by ``perfbench/run.py``).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

from common import peak_rss_mb, require_sources


def main() -> int:
    require_sources()
    from repro.service import build_service, start_service_server
    from spans import Recorder, delta, install, program_counters

    service = build_service(backend="logp")
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(start_service_server(service, port=0))
    thread = threading.Thread(target=loop.run_forever, name="service-loop")
    thread.start()
    rec = Recorder()
    traced = False
    base = program_counters(service=service)
    print(f"port {server.bound_port}", flush=True)

    async def command(cmd: str, arg: str) -> None:
        # Runs on the service loop: no request is in flight between phases,
        # and the service's state is only ever touched from this thread.
        nonlocal traced, base
        if cmd == "trace" and not traced:
            install(rec)
            traced = True
        elif cmd == "mark":
            rec.reset()
            base = program_counters(service=service)
        elif cmd == "report":
            doc = {
                "rss_mb": peak_rss_mb(),
                "counters": delta(program_counters(service=service), base),
                "trace": rec.dump() if traced else None,
            }
            with open(arg, "w") as fh:
                json.dump(doc, fh)
        else:
            raise ValueError(f"unknown command {cmd!r}")

    try:
        for line in sys.stdin:
            cmd, _, arg = line.strip().partition(" ")
            if not cmd:
                continue
            asyncio.run_coroutine_threadsafe(command(cmd, arg), loop).result(60)
            print("ok", flush=True)
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
