"""Small statistics helpers used across the library.

These mirror the arithmetic the paper performs: weighted sums for
extensive statistics (Equation 1), weighted averages for ratio statistics
(throughput, IPC), geometric means for error summaries, and percentage
errors between projections and measurements.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "weighted_sum",
    "weighted_average",
    "geomean",
    "mean",
    "median",
    "percent_error",
    "sequential_sum",
]


def sequential_sum(
    values: np.ndarray | Iterable[float], initial: float = 0.0
) -> float:
    """Strict left-to-right float64 sum: ``((initial + v0) + v1) + ...``.

    ``np.sum`` uses pairwise summation, and Python 3.12+'s builtin
    ``sum()`` compensates float rounding (Neumaier); both produce
    different low-order bits from an accumulator loop.  Every float
    total that reaches an answer goes through here, so the answers are
    the same on every Python and reproduce the accumulation of the
    scalar loops in ``tests/reference.py`` exactly: ``np.cumsum`` is a
    running (left-fold) accumulation, so its last element is the
    loop's result bit for bit.
    """
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float(initial)
    return float(np.cumsum(np.concatenate(((initial,), values)))[-1])


def weighted_sum(values: Sequence[float], weights: Sequence[float]) -> float:
    """Return ``sum(w_i * v_i)`` — Equation 1 of the paper."""
    if len(values) != len(weights):
        raise ValueError(
            f"values and weights must have equal length "
            f"({len(values)} != {len(weights)})"
        )
    return sequential_sum(w * v for v, w in zip(values, weights))


def weighted_average(values: Sequence[float], weights: Sequence[float]) -> float:
    """Return the weight-normalised sum, for ratio statistics.

    The paper notes that ratio statistics (throughput, IPC) must be
    normalised by the sum of all weights.
    """
    total_weight = sequential_sum(weights)
    if total_weight <= 0.0:
        raise ValueError("weights must sum to a positive value")
    return weighted_sum(values, weights) / total_weight


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty input instead of returning NaN."""
    items = list(values)
    if not items:
        raise ValueError("mean of an empty sequence is undefined")
    return sequential_sum(items) / len(items)


def median(values: Iterable[float]) -> float:
    """Median with the usual even-length midpoint convention."""
    items = sorted(values)
    if not items:
        raise ValueError("median of an empty sequence is undefined")
    mid = len(items) // 2
    if len(items) % 2:
        return float(items[mid])
    return (items[mid - 1] + items[mid]) / 2.0


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of non-negative values.

    Zeros are nudged to a tiny epsilon so a single perfect projection does
    not collapse a whole error summary to zero — matching how error
    geomeans are conventionally reported.
    """
    items = list(values)
    if not items:
        raise ValueError("geomean of an empty sequence is undefined")
    eps = 1e-12
    total = 0.0
    for value in items:
        if value < 0.0:
            raise ValueError(f"geomean requires non-negative values, got {value}")
        total += math.log(max(value, eps))
    return math.exp(total / len(items))


def percent_error(projected: float, actual: float) -> float:
    """Absolute percentage error of ``projected`` against ``actual``."""
    if actual == 0.0:
        raise ValueError("actual value is zero; percent error undefined")
    return abs(projected - actual) / abs(actual) * 100.0
