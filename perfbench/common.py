"""Paths, child processes, statistics and the machine fingerprint."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFS_DIR = BENCH_DIR / "refs"


def require_sources() -> None:
    """Exit non-zero unless the package sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources at {SRC / 'repro'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every process the benchmark launches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # Fault injection would turn the measurement into a chaos test.
    env.pop("REPRO_ENGINE_CHAOS", None)
    return env


def python_cmd(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def run_child(cmd: list[str], timeout: float) -> dict:
    """Run one benchmark child to completion; returns its JSON report."""
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return last_json_line(proc.stdout)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics -----------------------------------------------------------------


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    n = len(vals)
    mid = n // 2
    return float(vals[mid]) if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q of the samples
    at or below it."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    k = math.ceil(q * len(vals) - 1e-9) - 1
    return float(vals[max(0, min(len(vals) - 1, k))])


def beyond(values, q: float) -> int:
    """How many samples lie above the nearest-rank ``q`` percentile."""
    p = percentile(values, q)
    return sum(1 for v in values if v > p)


# -- machine fingerprint --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over every package source file: identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def calibration_s() -> float:
    """Median time of a fixed numpy loop; divides out host speed when
    runs from different machines are compared."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((160, 160))
    v = rng.standard_normal(200_000)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(10):
            b = a @ a
            a = b / np.abs(b).max()
            np.sort(v)
        times.append(time.perf_counter() - t0)
    return median(times)


def fingerprint() -> dict:
    import numpy as np

    load1, load5, load15 = os.getloadavg()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": [load1, load5, load15],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "calibration_s": calibration_s(),
    }
