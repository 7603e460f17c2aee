"""Declarative analysis requests: frozen, validated, JSON round-trip.

An :class:`AnalysisSpec` is the serializable description of one
SeqPoint analysis — which network, on which corpus and input pipeline,
identified on which Table II configuration, with which selector.  A
:class:`ProjectionSpec` names the configurations to project onto.  Both
validate eagerly (unknown names, bad ranges) so a malformed request
fails at construction, not minutes into a simulation, and both
round-trip through ``to_dict``/``from_dict`` so requests can live in
JSON files, HTTP payloads, or experiment manifests.

Every spec in the family (:class:`AnalysisSpec`, :class:`ProjectionSpec`,
``SweepSpec``, ``StreamSpec``, ``TrafficSpec``) derives from
:class:`SpecBase`, which supplies the versioned JSON envelope
(``to_json``/``from_json``) and the strict payload validation shared by
``from_dict``: non-mapping payloads, unknown fields, and wrong-typed
fields all fail as one-line :class:`~repro.errors.ConfigurationError`\\ s.
``to_dict`` stays envelope-free so existing saved specs and the serve
wire format keep working verbatim.

Spec fields are declared with :func:`option`, which keeps each field's
command-line help text and flag settings in its dataclass metadata;
:mod:`repro.cli` builds every spec-driven command's flags from them.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

from repro.api import registry
from repro.errors import ConfigurationError, ReproError
from repro.hw.config import paper_config

__all__ = ["AnalysisSpec", "ProjectionSpec", "SpecBase", "DEFAULT_BATCH_SIZE", "option"]

#: The paper's fixed mini-batch size (§VI-B).
DEFAULT_BATCH_SIZE = 64

#: Bumped whenever simulation semantics change, so stale on-disk traces
#: can never satisfy a newer spec.
TRACE_SCHEMA_VERSION = 1


def _freeze_kwargs(value: Any) -> tuple[tuple[str, Any], ...]:
    """Normalise selector kwargs to a sorted, hashable tuple of pairs."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        try:
            items = [(k, v) for k, v in value]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"selector_kwargs must be a mapping, got {value!r}"
            ) from None
    frozen = []
    for key, item in sorted(items):
        if not isinstance(key, str):
            raise ConfigurationError(
                f"selector_kwargs keys must be strings, got {key!r}"
            )
        frozen.append((key, item))
    return tuple(frozen)


def option(default: Any = MISSING, *, help: str, **cli: Any) -> Any:
    """Declare a spec field with its default and its command-line flag.

    ``help`` becomes the flag's help text; the flag itself is ``--``
    plus the field name with dashes, typed by the field's annotation.
    ``cli`` may add, for :mod:`repro.cli` to read:

    ``flag``, ``dest``
        another option string, another parsed-args attribute;
    ``choices``
        the allowed values, or a callable returning them (registries);
    ``metavar``
        the flag's placeholder in ``--help``;
    ``parse``
        how the flag's string becomes the value: ``"list"``
        (comma-separated), ``"targets"`` (comma-separated or ``all``),
        ``"json"``, or ``"pairs"`` (a repeatable ``KEY=VALUE`` flag);
    ``cli_default``
        the value the CLI uses when neither the flag nor a ``--spec``
        file sets the field.
    """
    return field(default=default, metadata={"help": help, **cli})


class SpecBase:
    """Shared contract for the declarative spec family.

    Subclasses are frozen dataclasses; this mixin adds the versioned
    JSON envelope and the strict ``from_dict`` payload validation.  The
    envelope lives only in ``to_json``/``from_json`` — ``to_dict``
    output is deliberately unversioned so historical spec JSON and the
    serve wire format round-trip bit-identically.
    """

    #: Envelope version emitted by ``to_json`` and accepted (optionally)
    #: by ``from_dict``/``from_json``.
    SPEC_VERSION = 1

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def _validate_payload(cls, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Strip the optional envelope and reject malformed payloads."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} payload must be a mapping, "
                f"got {type(payload).__name__}"
            )
        data = dict(payload)
        version = data.pop("v", cls.SPEC_VERSION)
        if version != cls.SPEC_VERSION:
            raise ConfigurationError(
                f"{cls.__name__} version {version!r} is not supported; "
                f"this build speaks version {cls.SPEC_VERSION}"
            )
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} fields: {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        return data

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpecBase":
        data = cls._validate_payload(payload)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"{cls.__name__}: {exc}") from None

    def to_json(self) -> str:
        """Serialise with the ``{"v": N, ...}`` envelope, one line."""
        return json.dumps({"v": self.SPEC_VERSION, **self.to_dict()})

    @classmethod
    def from_json(cls, text: str) -> "SpecBase":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{cls.__name__} JSON is malformed: {exc}"
            ) from None
        return cls.from_dict(payload)


@dataclass(frozen=True)
class AnalysisSpec(SpecBase):
    """One SeqPoint analysis, declaratively.

    ``dataset`` and ``batching`` default to the network's paper setup
    (GNMT: IWSLT with pooled bucketing; DS2: LibriSpeech with
    SortaGrad) and are resolved to concrete names at construction so a
    spec is always fully explicit once built.  ``selector_kwargs`` is
    stored as a sorted tuple of pairs to keep the spec hashable; use
    :attr:`selector_options` for the dict view.
    """

    network: str = option(help="network to simulate", choices=registry.MODELS.available)
    dataset: str | None = option(
        None,
        help="corpus (default: the network's paper dataset)",
        choices=registry.DATASETS.available,
    )
    batching: str | None = option(
        None,
        help="input pipeline (default: the network's paper pipeline)",
        choices=registry.BATCHING.available,
    )
    batch_size: int = option(
        DEFAULT_BATCH_SIZE, help=f"mini-batch size (default {DEFAULT_BATCH_SIZE})"
    )
    config: int = option(1, help="Table II config the simulation runs on (default 1)")
    scale: float = option(
        1.0,
        help="corpus scale in (0, 1]; 1.0 is paper-sized (default 0.1)",
        cli_default=0.1,
    )
    seed: int = option(0, help="data-order seed of the simulated run (default 0)")
    selector: str = option(
        "seqpoint", help="selector (default seqpoint)", choices=registry.SELECTORS.available
    )
    selector_kwargs: tuple[tuple[str, Any], ...] = option(
        (),
        help="selector keyword argument (repeatable), e.g. "
        "--selector-arg error_threshold_pct=0.5",
        flag="--selector-arg",
        dest="selector_arg",
        metavar="KEY=VALUE",
        parse="pairs",
    )

    def __post_init__(self) -> None:
        registry.MODELS.get(self.network)
        if self.dataset is None:
            object.__setattr__(
                self, "dataset", registry.default_dataset(self.network)
            )
        if self.batching is None:
            object.__setattr__(
                self, "batching", registry.default_batching(self.network)
            )
        registry.DATASETS.get(self.dataset)
        registry.BATCHING.get(self.batching)
        if not isinstance(self.batch_size, int) or self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be a positive int, got {self.batch_size!r}"
            )
        try:
            object.__setattr__(self, "config", int(self.config))
            object.__setattr__(self, "scale", float(self.scale))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"config/scale must be numeric, got {self.config!r}/"
                f"{self.scale!r}"
            ) from None
        paper_config(self.config)
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError(
                f"scale must lie in (0, 1], got {self.scale}"
            )
        if not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        object.__setattr__(
            self, "selector_kwargs", _freeze_kwargs(self.selector_kwargs)
        )
        self.build_selector()  # fail now, not after a simulation

    @property
    def selector_options(self) -> dict[str, Any]:
        return dict(self.selector_kwargs)

    def build_selector(self) -> Any:
        """Instantiate the named selector with this spec's kwargs."""
        try:
            return registry.SELECTORS.create(
                self.selector, **self.selector_options
            )
        except TypeError as exc:
            raise ConfigurationError(
                f"selector {self.selector!r} rejected kwargs "
                f"{self.selector_options}: {exc}"
            ) from None
        except ReproError as exc:
            raise ConfigurationError(
                f"selector {self.selector!r} rejected kwargs "
                f"{self.selector_options}: {exc}"
            ) from None

    def trace_fingerprint(self) -> dict[str, Any]:
        """The simulation-relevant fields, for content-addressed caching.

        Selector choice deliberately excluded: sweeping selectors or
        thresholds over one scenario must reuse the same epoch trace.
        """
        return {
            "v": TRACE_SCHEMA_VERSION,
            "network": self.network,
            "dataset": self.dataset,
            "batching": self.batching,
            "batch_size": self.batch_size,
            "config": self.config,
            "scale": self.scale,
            "seed": self.seed,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "network": self.network,
            "dataset": self.dataset,
            "batching": self.batching,
            "batch_size": self.batch_size,
            "config": self.config,
            "scale": self.scale,
            "seed": self.seed,
            "selector": self.selector,
            "selector_kwargs": self.selector_options,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalysisSpec":
        return super().from_dict(payload)  # type: ignore[return-value]


@dataclass(frozen=True)
class ProjectionSpec(SpecBase):
    """Which Table II configurations to project the analysis onto."""

    targets: tuple[int, ...] = option(
        (1, 2, 3, 4, 5),
        help="comma-separated Table II configs to project onto, or 'all' "
        "(default: the identification config only)",
        parse="targets",
    )

    def __post_init__(self) -> None:
        try:
            frozen = tuple(int(t) for t in self.targets)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"targets must be config indices, got {self.targets!r}"
            ) from None
        if not frozen:
            raise ConfigurationError("targets cannot be empty")
        for target in frozen:
            paper_config(target)
        object.__setattr__(self, "targets", frozen)

    def to_dict(self) -> dict[str, Any]:
        return {"targets": list(self.targets)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProjectionSpec":
        return super().from_dict(payload)  # type: ignore[return-value]
