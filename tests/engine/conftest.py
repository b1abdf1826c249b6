"""Fixtures shared by the engine executor tests."""

from __future__ import annotations

import threading

import pytest


@pytest.fixture
def run_within():
    """``run_within(sup, requests, seconds)``: ``sup.run(requests)`` on a
    daemon thread, failing the test instead of hanging the suite."""

    def run(sup, requests, seconds=60.0, **kwargs):
        out: list = []

        def target():
            try:
                out.append(("ok", sup.run(requests, **kwargs)))
            except BaseException as err:  # re-raised on the test thread
                out.append(("raised", err))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), f"run() still going after {seconds}s"
        status, value = out[0]
        if status == "raised":
            raise value
        return value

    return run
