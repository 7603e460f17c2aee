"""Measurement helpers shared by every workload: latency summaries,
host-speed scaling, peak memory, answer digests, and emptying the
process-wide caches before a cold op."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

#: Every reported percentile has at least this many ops beyond it.
TAIL_BEYOND = 10
#: Fewest ops a phase runs, so that even the median has TAIL_BEYOND
#: ops beyond it.
MIN_OPS = 2 * TAIL_BEYOND + 1
#: Set-up repetitions per run; ``setup_s`` reports their median.  Five
#: rather than three narrow its run-to-run spread: a set-up lasts a
#: second or two, long enough for the host's speed to change within it.
SETUP_REPEATS = 5
#: Reference runs whose median scales a set-up.  A set-up is one
#: section of seconds, so one noisy reference sample would skew all of
#: it; an op is one of many, and takes one sample on each side.
SETUP_REFERENCE_RUNS = 5

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Duration of :func:`reference_work` that defines nominal host speed.
#: CPU-bound times are reported as if the host ran the reference in
#: exactly this long.
REFERENCE_NOMINAL_S = 2.5e-3


def reference_work() -> None:
    """A fixed mix of interpreter, allocator and small-array work.

    It touches no ``repro`` code, so a change to the program never
    changes the yardstick.  Its mix resembles the ops': dict and tuple
    churn plus many small numpy calls.
    """
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 257] = counts.get(i % 257, 0) + i
        _ = [i, i + 1, (i, counts)]
    column = np.arange(64.0)
    for _ in range(200):
        column = np.sort(column)[::-1] + 1.0


def reference_s(runs: int = 1) -> float:
    """Wall seconds :func:`reference_work` takes right now.

    With ``runs`` > 1 it is the median of that many back-to-back runs,
    which a single interrupted run cannot skew.
    """
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def host_scale(before_s: float, after_s: float) -> float:
    """Factor from wall time to nominal-speed time for a CPU-bound section.

    The host this benchmark was tuned on runs the same code up to twice
    as fast in some minutes as in others; ten interleaved 20-second runs
    of each closed loop spread 0.40 to 0.41 in wall-clock median op
    latency.  Timing the reference right before and right after a
    section, and scaling the section by the reference's nominal over
    measured duration, cancels most of that: scaled, the medians of
    the same kind of runs spread 0.02 to 0.06.
    """
    return 2.0 * REFERENCE_NOMINAL_S / (before_s + after_s)


def latency_summary(seconds: list[float]) -> dict[str, float]:
    """Median, mean and tail of op latencies, in milliseconds.

    The tail is the highest percentile with at least ``TAIL_BEYOND``
    ops beyond it; ``tail_pct`` says which percentile that is.
    """
    values = sorted(1e3 * s for s in seconds)
    count = len(values)
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} ops cannot support a tail percentile")
    rank = count - TAIL_BEYOND
    return {
        "n": count,
        "p50_ms": statistics.median(values),
        "mean_ms": statistics.fmean(values),
        "tail_ms": values[rank - 1],
        "tail_pct": 100.0 * rank / count,
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def answer_digest(answer: dict) -> str:
    """SHA-256 of an answer's canonical JSON, minus its echoed spec.

    The spec is left out so that inputs which differ only in a field
    the answer does not depend on (the data-order seed of a sorted
    epoch) share one digest.
    """
    body = {key: value for key, value in answer.items() if key != "spec"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    """Committed answer digests, per workload and input key."""
    return json.loads(DIGESTS_PATH.read_text())


def clear_process_caches() -> None:
    """Drop every process-wide memo, so the next simulation is cold."""
    from repro.hw.device import clear_measure_caches
    from repro.kernels import clear_lowering_caches
    from repro.models.plan import PLAN_CACHE

    PLAN_CACHE.clear()
    clear_lowering_caches()
    clear_measure_caches()
