"""Request workloads: which sequence lengths the traffic asks for.

Serving requests are bootstrap-resampled from the corpus the scenario
already names (IWSLT sentences, LibriSpeech utterances), so the request
mix inherits the realistic length distributions of
:mod:`repro.data.corpora` instead of inventing new ones.  A *mixture
schedule* is a tuple of :class:`TrafficPhase`\\ s: each phase owns a
fraction of the run and restricts sampling to a quantile window of the
corpus length distribution, so overlapping windows model gradual shifts
and disjoint windows model hard changepoints.  One phase spanning
``[0, 1]`` is stationary traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.dataset import SequenceDataset
from repro.errors import ConfigurationError
from repro.train.frame import NO_TGT
from repro.util.rng import derive_seed, make_rng
from repro.util.stats import sequential_sum

__all__ = ["TrafficPhase", "RequestSet", "sample_requests"]


@dataclass(frozen=True)
class TrafficPhase:
    """One quasi-stationary segment of the request mix.

    ``fraction`` is this phase's share of the request count;
    ``quantile_lo``/``quantile_hi`` bound the corpus length quantiles
    requests are drawn from while the phase is active.
    """

    fraction: float
    quantile_lo: float = 0.0
    quantile_hi: float = 1.0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "fraction", float(self.fraction))
            object.__setattr__(self, "quantile_lo", float(self.quantile_lo))
            object.__setattr__(self, "quantile_hi", float(self.quantile_hi))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"phase fields must be numeric, got {self.fraction!r}/"
                f"{self.quantile_lo!r}/{self.quantile_hi!r}"
            ) from None
        if not self.fraction > 0.0:
            raise ConfigurationError(
                f"phase fraction must be positive, got {self.fraction}"
            )
        if not 0.0 <= self.quantile_lo < self.quantile_hi <= 1.0:
            raise ConfigurationError(
                f"phase quantile window [{self.quantile_lo}, "
                f"{self.quantile_hi}] must satisfy 0 <= lo < hi <= 1"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "fraction": self.fraction,
            "quantile_lo": self.quantile_lo,
            "quantile_hi": self.quantile_hi,
        }

    @classmethod
    def from_value(cls, value: Any) -> "TrafficPhase":
        """Coerce a JSON phase entry (mapping) or pass one through."""
        if isinstance(value, TrafficPhase):
            return value
        try:
            items = dict(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"phases must be mappings with fraction/quantile_lo/"
                f"quantile_hi, got {value!r}"
            ) from None
        unknown = sorted(set(items) - {"fraction", "quantile_lo", "quantile_hi"})
        if unknown:
            raise ConfigurationError(
                f"unknown TrafficPhase fields: {', '.join(unknown)}; "
                f"expected a subset of: fraction, quantile_hi, quantile_lo"
            )
        if "fraction" not in items:
            raise ConfigurationError("phases need a 'fraction' field")
        return cls(**items)


@dataclass(frozen=True)
class RequestSet:
    """A sampled request stream, columnar and arrival-ordered.

    ``seq_len``/``tgt_len`` are the per-request raw lengths (``NO_TGT``
    where the corpus has no target side) and ``phase`` maps each
    request onto the :class:`TrafficPhase` that generated it.  Requests
    are ordered phase by phase, so phase boundaries are mid-run
    mixture shifts once arrival times attach.
    """

    seq_len: np.ndarray
    tgt_len: np.ndarray
    phase: np.ndarray

    def __len__(self) -> int:
        return int(self.seq_len.size)


def sample_requests(
    dataset: SequenceDataset,
    phases: tuple[TrafficPhase, ...],
    count: int,
    seed: int,
) -> RequestSet:
    """Bootstrap ``count`` requests from ``dataset`` per the schedule.

    Phase fractions are normalised; integer request counts allocate by
    floor with the remainder credited to the final phase, so the total
    is exact.  Each phase resamples (with replacement) from the corpus
    samples whose lengths fall inside its quantile window, under its
    own derived seed, so inserting or editing one phase cannot shift
    another phase's draw.
    """
    if count <= 0:
        raise ConfigurationError(f"request count must be positive, got {count}")
    if not phases:
        raise ConfigurationError("at least one traffic phase is required")
    lengths = dataset.lengths
    targets = dataset.tgt_lengths if dataset.has_targets else None
    total_fraction = sequential_sum(phase.fraction for phase in phases)
    allocation = [
        int(count * phase.fraction / total_fraction) for phase in phases
    ]
    allocation[-1] += count - sum(allocation)
    seq_parts: list[np.ndarray] = []
    tgt_parts: list[np.ndarray] = []
    phase_parts: list[np.ndarray] = []
    for index, (phase, quota) in enumerate(zip(phases, allocation)):
        if quota == 0:
            continue
        lo = np.quantile(lengths, phase.quantile_lo)
        hi = np.quantile(lengths, phase.quantile_hi)
        eligible = np.flatnonzero((lengths >= lo) & (lengths <= hi))
        if eligible.size == 0:
            raise ConfigurationError(
                f"phase {index}: quantile window [{phase.quantile_lo}, "
                f"{phase.quantile_hi}] selects no corpus samples"
            )
        rng = make_rng(derive_seed(seed, "traffic-requests", index))
        chosen = eligible[rng.integers(0, eligible.size, size=quota)]
        seq_parts.append(lengths[chosen])
        tgt_parts.append(
            targets[chosen]
            if targets is not None
            else np.full(quota, NO_TGT, dtype=np.int64)
        )
        phase_parts.append(np.full(quota, index, dtype=np.int64))
    return RequestSet(
        seq_len=np.concatenate(seq_parts).astype(np.int64, copy=False),
        tgt_len=np.concatenate(tgt_parts).astype(np.int64, copy=False),
        phase=np.concatenate(phase_parts),
    )
