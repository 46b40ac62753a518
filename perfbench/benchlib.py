"""Statistics, span arithmetic and host facts shared by the benchmark scripts.

Nothing here imports the program under test, so the rules can be tested on
synthetic inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

# Percentiles tried, highest first, when choosing the tail percentile a
# sample count can support.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of the q-th percentile of n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(q * n / 100.0 - 1e-9)))


def beyond(n: int, q: float) -> int:
    """Samples ranked above the q-th percentile of n samples."""
    return n - rank(n, q)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest percentile of TAIL_LADDER with at least `min_beyond` samples above it."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= min_beyond:
            return q
    return None


def step_failures(attempted: int, completed: int, deviations: Sequence[float],
                  tol: float) -> int:
    """Failed steps of one session.

    A step fails when it never completed (the session raised or timed out
    before reaching it) or when its controller output left the plaintext
    reference by more than `tol`. A NaN deviation counts as a failure.
    """
    if not 0 <= completed <= attempted or len(deviations) > completed:
        raise ValueError("inconsistent step counts")
    return (attempted - completed) + sum(1 for d in deviations if not d <= tol)


class RoundStats(NamedTuple):
    """Latency summary of the passing steps of one round (a session or a sweep)."""

    n: int
    p50: float
    p99: float
    late: int    # steps over the period
    max: float


def round_stats(times: Sequence[float], period: float) -> RoundStats:
    ordered = sorted(times)
    n = len(ordered)
    return RoundStats(n, ordered[rank(n, 50.0) - 1], ordered[rank(n, 99.0) - 1],
                      sum(1 for t in ordered if t > period), ordered[-1])


def deadline_miss_pct(late: int, failed: int, attempted: int) -> float:
    """Share of attempted steps that missed the period: late steps plus failed steps."""
    if attempted < 1:
        raise ValueError("no steps attempted")
    return 100.0 * (late + failed) / attempted


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    run_s = run_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if run_e is None or s > run_e:
            if run_e is not None:
                total += run_e - run_s
            run_s, run_e = s, e
        else:
            run_e = max(run_e, e)
    if run_e is not None:
        total += run_e - run_s
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(start, end, children)


def derive_seed(seed: int, *labels: object) -> int:
    """A 32-bit seed for one input stream, fixed by the workload seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def import_program(root: Path):
    """Import pamenc from the checkout's own `src/`, never from an installed copy."""
    pkg = root / "src" / "pamenc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found at {pkg}")
    sys.path.insert(0, str(root / "src"))
    import pamenc

    if Path(pamenc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported pamenc from {pamenc.__file__}, not {pkg}")
    return pamenc


def git_commit(root: Path) -> str | None:
    """The checked-out commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    except OSError:
        pass
    return None


def cpu_probe_ms(reps: int = 15) -> float:
    """Median time of 180 64-bit modular exponentiations, the Dec+ kernel.

    Recorded before and after a run: on a shared host it shows how fast
    the machine was while the run measured.
    """
    p = (1 << 63) + 1731
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in range(180):
            pow(123456789123 + i, 0x7FFFFFFFFFFF1234, p)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def host_record(root: Path, load_before: tuple[float, ...], probe_before_ms: float) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_probe_ms_before": probe_before_ms,
        "cpu_probe_ms_after": cpu_probe_ms(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_commit": git_commit(root),
        "network": "loopback",
        "platform": sys.platform,
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The one-line JSON result the benchmark prints last."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    })
