"""Declarative traffic requests: frozen, validated, JSON round-trip.

A :class:`TrafficSpec` nests the scenario description — a full
:class:`~repro.api.spec.AnalysisSpec` — under the serving knobs: the
arrival process and its load/burst shape, the request count, the
mixture schedule (:class:`~repro.traffic.workload.TrafficPhase`\\ s),
the dynamic batcher's wait bound, the configurations to project
serving time onto, and the streaming-identification convergence loop.
One JSON document therefore describes a full traffic study end to end,
exactly as ``StreamSpec`` does for replayed epochs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.api.spec import AnalysisSpec, ProjectionSpec, SpecBase, option
from repro.errors import ConfigurationError
from repro.stream.spec import IdentifierKnobs, knob
from repro.traffic.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    build_arrival_process,
)
from repro.traffic.workload import TrafficPhase

__all__ = ["TrafficSpec"]


@dataclass(frozen=True)
class TrafficSpec(SpecBase, IdentifierKnobs):
    """One traffic-driven serving simulation, declaratively.

    ``analysis`` names the scenario (network, corpus, batching policy,
    serving batch size, device config, selector); the traffic fields
    shape the load; the trailing fields parameterise the streaming
    identifier that watches the live batch stream.
    """

    analysis: AnalysisSpec
    arrival: str = option(
        "poisson", help="request arrival process (default poisson)", choices=ARRIVAL_KINDS
    )
    rate: float = option(
        64.0, help="mean request rate in requests/second; offline ignores it (default 64)"
    )
    requests: int = option(1024, help="total requests to serve (default 1024)")
    max_wait_s: float = option(
        0.5,
        help="dynamic batcher's max-wait trigger in seconds (default 0.5)",
        flag="--max-wait",
    )
    burst_factor: float = option(
        3.0, help="bursty arrivals: on-period rate multiplier (default 3.0)"
    )
    on_fraction: float = option(
        0.25, help="bursty arrivals: fraction of each period on (default 0.25)"
    )
    period_s: float = option(
        1.0, help="bursty arrivals: on/off period in seconds (default 1.0)"
    )
    phases: tuple[TrafficPhase, ...] = option(
        (TrafficPhase(1.0),),
        help="mixture schedule as a JSON list of phase objects, e.g. "
        '\'[{"fraction": 0.5, "quantile_hi": 0.6}, '
        '{"fraction": 0.5, "quantile_lo": 0.4}]\' (default: one stationary phase)',
        metavar="JSON",
        parse="json",
    )
    pad_multiple: int | None = option(
        None, help="override the dataset's pad multiple (default: keep it)"
    )
    targets: tuple[int, ...] | None = option(
        None,
        help="comma-separated Table II configs to project serving time onto, "
        "or 'all' (default: none)",
        parse="targets",
    )
    cadence: int = knob("cadence", 16)
    patience: int = knob("patience", 3)
    rtol: float = knob("rtol", 0.005)
    drift_rtol: float = knob("drift_rtol", 0.02)
    sl_rtol: float = knob("sl_rtol", 0.1)
    min_iterations: int = knob("min_iterations", 0)

    def __post_init__(self) -> None:
        if isinstance(self.analysis, Mapping):
            object.__setattr__(
                self, "analysis", AnalysisSpec.from_dict(self.analysis)
            )
        if not isinstance(self.analysis, AnalysisSpec):
            raise ConfigurationError(
                f"analysis must be an AnalysisSpec (or its dict form), "
                f"got {self.analysis!r}"
            )
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; expected one "
                f"of: {', '.join(ARRIVAL_KINDS)}"
            )
        if not isinstance(self.requests, int) or isinstance(self.requests, bool):
            raise ConfigurationError(
                f"requests must be an int, got {self.requests!r}"
            )
        if self.requests < 1:
            raise ConfigurationError(
                f"requests must be >= 1, got {self.requests}"
            )
        for name in ("rate", "max_wait_s", "burst_factor", "on_fraction",
                     "period_s"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{name} must be numeric, got {getattr(self, name)!r}"
                ) from None
        if not self.max_wait_s > 0:
            raise ConfigurationError(
                f"max_wait_s must be positive, got {self.max_wait_s}"
            )
        if not isinstance(self.phases, Sequence) or isinstance(
            self.phases, (str, bytes)
        ):
            raise ConfigurationError(
                f"phases must be a sequence of phase objects, "
                f"got {self.phases!r}"
            )
        object.__setattr__(
            self,
            "phases",
            tuple(TrafficPhase.from_value(phase) for phase in self.phases),
        )
        if not self.phases:
            raise ConfigurationError("phases cannot be empty")
        if self.pad_multiple is not None:
            if (
                not isinstance(self.pad_multiple, int)
                or isinstance(self.pad_multiple, bool)
                or self.pad_multiple < 1
            ):
                raise ConfigurationError(
                    f"pad_multiple must be a positive int or null, "
                    f"got {self.pad_multiple!r}"
                )
        if self.targets is not None:
            object.__setattr__(
                self, "targets", ProjectionSpec(targets=self.targets).targets
            )
        self._validate_identifier_knobs()
        self.build_arrivals()  # fail now, not after sampling a workload

    def build_arrivals(self) -> ArrivalProcess:
        """Instantiate the arrival process this spec describes."""
        return build_arrival_process(
            self.arrival,
            rate=self.rate,
            burst_factor=self.burst_factor,
            on_fraction=self.on_fraction,
            period_s=self.period_s,
        )

    def projection(self) -> ProjectionSpec | None:
        return None if self.targets is None else ProjectionSpec(self.targets)

    def to_dict(self) -> dict[str, Any]:
        return {
            "analysis": self.analysis.to_dict(),
            "arrival": self.arrival,
            "rate": self.rate,
            "requests": self.requests,
            "max_wait_s": self.max_wait_s,
            "burst_factor": self.burst_factor,
            "on_fraction": self.on_fraction,
            "period_s": self.period_s,
            "phases": [phase.to_dict() for phase in self.phases],
            "pad_multiple": self.pad_multiple,
            "targets": None if self.targets is None else list(self.targets),
            "cadence": self.cadence,
            "patience": self.patience,
            "rtol": self.rtol,
            "drift_rtol": self.drift_rtol,
            "sl_rtol": self.sl_rtol,
            "min_iterations": self.min_iterations,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrafficSpec":
        data = cls._validate_payload(payload)
        if "analysis" not in data:
            raise ConfigurationError("TrafficSpec needs an 'analysis' object")
        return cls(**data)
