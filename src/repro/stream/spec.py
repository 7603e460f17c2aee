"""Declarative streaming requests: frozen, validated, JSON round-trip.

A :class:`StreamSpec` nests the scenario description — a full
:class:`~repro.api.spec.AnalysisSpec` — under the streaming knobs
(check cadence, convergence patience and tolerance, drift guard, feed
chunk size), so one JSON document describes an online identification
end to end, exactly as ``AnalysisSpec``/``SweepSpec`` do for their
workflows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.api.spec import AnalysisSpec, SpecBase, option
from repro.errors import ConfigurationError

__all__ = ["StreamSpec"]

#: What each streaming-identifier knob means, as its flag's help text;
#: ``{}`` becomes the declaring spec's default.
_KNOB_HELP = {
    "cadence": "iterations between selector re-runs (default {})",
    "patience": "consecutive agreeing checks to converge (default {})",
    "rtol": "relative tolerance on the projected mean iteration time (default {})",
    "drift_rtol": "per-SL mean drift that resets the window (default {})",
    "sl_rtol": "pointwise SL tolerance between checks; 0 = exact (default {})",
    "min_iterations": "iterations to consume before the first check (default {})",
}


def knob(name: str, default: Any) -> Any:
    """Declare the identifier knob ``name`` with its default and help text."""
    return option(default, help=_KNOB_HELP[name].format(default))


class IdentifierKnobs:
    """The streaming-identifier fields a spec carries, defined once.

    Mixed into :class:`StreamSpec` and
    :class:`~repro.traffic.spec.TrafficSpec`, which each declare
    ``cadence``, ``patience``, ``rtol``, ``drift_rtol``, ``sl_rtol``
    and ``min_iterations`` with :func:`knob` and their own defaults.
    """

    def _validate_identifier_knobs(self) -> None:
        """Check the knobs and coerce the tolerances to float, in place."""
        for name in ("cadence", "patience", "min_iterations"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be an int, got {value!r}"
                )
        if self.cadence < 1:
            raise ConfigurationError(f"cadence must be >= 1, got {self.cadence}")
        if self.patience < 1:
            raise ConfigurationError(
                f"patience must be >= 1, got {self.patience}"
            )
        if self.min_iterations < 0:
            raise ConfigurationError(
                f"min_iterations cannot be negative, got {self.min_iterations}"
            )
        for name in ("rtol", "drift_rtol", "sl_rtol"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{name} must be numeric, got {getattr(self, name)!r}"
                ) from None
        if not self.rtol > 0:
            raise ConfigurationError(f"rtol must be positive, got {self.rtol}")
        if not self.drift_rtol > 0:
            raise ConfigurationError(
                f"drift_rtol must be positive, got {self.drift_rtol}"
            )
        if self.sl_rtol < 0:
            raise ConfigurationError(
                f"sl_rtol cannot be negative, got {self.sl_rtol}"
            )

    def build_identifier(self) -> Any:
        """Instantiate the convergence loop this spec describes."""
        from repro.stream.identifier import StreamingIdentifier

        return StreamingIdentifier(
            selector=self.analysis.build_selector(),
            cadence=self.cadence,
            patience=self.patience,
            rtol=self.rtol,
            drift_rtol=self.drift_rtol,
            sl_rtol=self.sl_rtol,
            min_iterations=self.min_iterations,
        )


@dataclass(frozen=True)
class StreamSpec(SpecBase, IdentifierKnobs):
    """One online identification, declaratively.

    ``analysis`` names the scenario and selector; the remaining fields
    parameterise the convergence loop of
    :class:`~repro.stream.identifier.StreamingIdentifier` and the
    replay granularity of the simulated feed.
    """

    analysis: AnalysisSpec
    cadence: int = knob("cadence", 64)
    patience: int = knob("patience", 3)
    rtol: float = knob("rtol", 0.005)
    drift_rtol: float = knob("drift_rtol", 0.02)
    sl_rtol: float = knob("sl_rtol", 0.1)
    chunk_size: int = option(1, help="arrival granularity of the replayed feed (default 1)")
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
        self._validate_identifier_knobs()
        if not isinstance(self.chunk_size, int) or isinstance(self.chunk_size, bool):
            raise ConfigurationError(
                f"chunk_size must be an int, got {self.chunk_size!r}"
            )
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "analysis": self.analysis.to_dict(),
            "cadence": self.cadence,
            "patience": self.patience,
            "rtol": self.rtol,
            "drift_rtol": self.drift_rtol,
            "sl_rtol": self.sl_rtol,
            "chunk_size": self.chunk_size,
            "min_iterations": self.min_iterations,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamSpec":
        data = cls._validate_payload(payload)
        if "analysis" not in data:
            raise ConfigurationError("StreamSpec needs an 'analysis' object")
        return cls(**data)
