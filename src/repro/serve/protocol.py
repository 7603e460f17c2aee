"""Wire protocol of the analysis service: versioned JSON envelopes.

Every response the daemon emits is an *envelope*: a JSON object whose
``v`` field carries :data:`PROTOCOL_VERSION` and whose ``ok`` flag says
whether ``error`` (a one-line structured failure) or the payload fields
are present.  Requests reuse the library's declarative specs verbatim —
an ``analyze`` job body embeds an
:class:`~repro.api.spec.AnalysisSpec` dict, ``sweep`` a
:class:`~repro.api.parallel.SweepSpec`, ``stream`` a
:class:`~repro.stream.spec.StreamSpec`, ``traffic`` a
:class:`~repro.traffic.spec.TrafficSpec` — so anything that JSON
round-trips through the batch API is a valid wire payload with no
translation layer.

Failures map :class:`~repro.errors.ReproError` (and protocol-level
misuse) to ``{"type": <class name>, "message": <one line>}`` plus an
HTTP status, mirroring the CLI's single-line stderr contract: clients
get exactly one line per failure, never a traceback.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.api.parallel import SWEEP_MODES, SweepSpec
from repro.api.spec import AnalysisSpec, ProjectionSpec
from repro.errors import ConfigurationError, ReproError
from repro.stream.spec import StreamSpec
from repro.traffic.spec import TrafficSpec

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_KINDS",
    "NotFoundError",
    "ProtocolError",
    "JobRequest",
    "error_envelope",
    "error_status",
    "ok_envelope",
    "one_line",
    "parse_job_submission",
    "parse_records",
    "parse_stream_open",
]

#: Bumped whenever an envelope or endpoint changes incompatibly.
PROTOCOL_VERSION = 1

#: Job kinds the service accepts, in documentation order.
JOB_KINDS = ("analyze", "sweep", "stream", "traffic")


class ProtocolError(ReproError):
    """A request the service could not even interpret (HTTP 400)."""


class NotFoundError(ReproError):
    """A path, job, or session that does not exist (HTTP 404)."""


def one_line(message: str) -> str:
    """Collapse a message to a single line (the CLI's error contract)."""
    return " ".join(str(message).split()) or "unknown error"


def ok_envelope(payload: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """A success envelope with ``payload``'s fields merged in."""
    envelope: dict[str, Any] = {"v": PROTOCOL_VERSION, "ok": True}
    if payload:
        envelope.update(payload)
    return envelope


def error_envelope(exc: BaseException) -> dict[str, Any]:
    """The one-line structured form of a failure."""
    return {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": one_line(str(exc))},
    }


def error_status(exc: BaseException) -> int:
    """HTTP status an exception maps to."""
    if isinstance(exc, NotFoundError):
        return 404
    if isinstance(exc, (ProtocolError, ReproError)):
        return 400
    return 500


@dataclass(frozen=True)
class JobRequest:
    """One parsed job submission: its kind, spec, and options.

    ``spec`` is the fully validated library object (construction
    already rejected unknown names and bad ranges, so a queued job can
    only fail for runtime reasons).  ``projection`` applies to analyze
    jobs; ``mode``/``workers`` to sweep jobs.
    """

    kind: str
    spec: AnalysisSpec | SweepSpec | StreamSpec | TrafficSpec
    projection: ProjectionSpec | None = None
    mode: str | None = None
    workers: int | None = None

    def describe(self) -> str:
        """A short human-readable label for listings."""
        if self.kind == "analyze":
            return f"analyze {self.spec.network}"
        if self.kind == "sweep":
            return f"sweep {'x'.join(self.spec.networks)} ({len(self.spec)} points)"
        if self.kind == "traffic":
            return (
                f"traffic {self.spec.analysis.network} "
                f"({self.spec.requests} requests)"
            )
        return f"stream {self.spec.analysis.network}"


_SUBMISSION_FIELDS = {"kind", "spec", "projection", "mode", "workers"}


def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def parse_job_submission(payload: Any) -> JobRequest:
    """Validate a ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`ProtocolError` for malformed envelopes and lets the
    specs' own :class:`~repro.errors.ConfigurationError` surface for
    invalid spec contents — both reach the client as one structured
    line.
    """
    payload = _require_mapping(payload, "job submission")
    unknown = sorted(set(payload) - _SUBMISSION_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown job fields: {', '.join(unknown)}; "
            f"expected a subset of: {', '.join(sorted(_SUBMISSION_FIELDS))}"
        )
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(
            f"unknown job kind {kind!r}; expected one of: {', '.join(JOB_KINDS)}"
        )
    spec_payload = _require_mapping(payload.get("spec"), "spec")

    projection = None
    if payload.get("projection") is not None:
        if kind != "analyze":
            raise ProtocolError("projection only applies to analyze jobs")
        projection = ProjectionSpec.from_dict(
            _require_mapping(payload["projection"], "projection")
        )

    mode = payload.get("mode")
    workers = payload.get("workers")
    if kind != "sweep" and (mode is not None or workers is not None):
        raise ProtocolError("mode/workers only apply to sweep jobs")
    if mode is not None and mode not in SWEEP_MODES:
        raise ProtocolError(
            f"unknown sweep mode {mode!r}; expected one of: {', '.join(SWEEP_MODES)}"
        )
    if workers is not None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ProtocolError(f"workers must be a positive int, got {workers!r}")

    if kind == "analyze":
        spec: Any = AnalysisSpec.from_dict(spec_payload)
    elif kind == "sweep":
        spec = SweepSpec.from_dict(spec_payload)
    elif kind == "traffic":
        spec = TrafficSpec.from_dict(spec_payload)
    else:
        spec = StreamSpec.from_dict(spec_payload)
    return JobRequest(
        kind=kind, spec=spec, projection=projection, mode=mode, workers=workers
    )


def parse_stream_open(payload: Any) -> tuple[StreamSpec, bool]:
    """Validate a ``POST /stream`` body: the spec plus the feed style.

    ``{"spec": {...StreamSpec...}, "replay": bool}`` — ``replay``
    sessions consume the scenario's cached epoch server-side in
    response to ``{"advance": n}`` feeds; live sessions (the default)
    absorb client-posted ``{"records": [...]}`` chunks.
    """
    payload = _require_mapping(payload, "stream open")
    unknown = sorted(set(payload) - {"spec", "replay"})
    if unknown:
        raise ProtocolError(
            f"unknown stream fields: {', '.join(unknown)}; expected 'spec', 'replay'"
        )
    spec = StreamSpec.from_dict(_require_mapping(payload.get("spec"), "spec"))
    replay = payload.get("replay", False)
    if not isinstance(replay, bool):
        raise ProtocolError(f"replay must be a boolean, got {replay!r}")
    return spec, replay


#: Live records land in int64 columns.
_INT64_MAX = 2**63 - 1


def _is_int(value: Any, low: int) -> bool:
    """Is ``value`` a JSON integer in ``[low, 2**63)``?"""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and low <= value <= _INT64_MAX
    )


def parse_records(payload: Any) -> list[dict[str, Any]]:
    """Validate a live feed chunk: ``{"records": [{seq_len, time_s, ...}]}``.

    Every record is checked before any is absorbed, so a rejected chunk
    leaves its session untouched: ``seq_len`` must be an integer >= 1,
    ``time_s`` a positive finite number, ``tgt_len`` null or an integer
    >= 1, and ``epoch`` an integer >= 0.
    """
    payload = _require_mapping(payload, "feed chunk")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ProtocolError("feed chunk needs a non-empty 'records' list")
    parsed = []
    for position, record in enumerate(records):
        record = _require_mapping(record, f"records[{position}]")
        unknown = sorted(set(record) - {"seq_len", "time_s", "tgt_len", "epoch"})
        if unknown:
            raise ProtocolError(
                f"records[{position}] has unknown fields: {', '.join(unknown)}"
            )
        seq_len = record.get("seq_len")
        time_s = record.get("time_s")
        if (
            not isinstance(seq_len, int)
            or isinstance(seq_len, bool)
            or not isinstance(time_s, (int, float))
            or isinstance(time_s, bool)
        ):
            raise ProtocolError(
                f"records[{position}] needs integer seq_len and numeric time_s"
            )
        if not _is_int(seq_len, 1):
            raise ConfigurationError(
                f"records[{position}]: seq_len must be a positive integer, "
                f"got {seq_len!r}"
            )
        try:
            time_s = float(time_s)
        except OverflowError:
            time_s = math.inf
        if not 0.0 < time_s < math.inf:
            raise ConfigurationError(
                f"records[{position}]: time_s must be positive and finite, "
                f"got {time_s!r}"
            )
        tgt_len = record.get("tgt_len")
        if tgt_len is not None and not _is_int(tgt_len, 1):
            raise ConfigurationError(
                f"records[{position}]: tgt_len must be null or an integer "
                f">= 1, got {tgt_len!r}"
            )
        epoch = record.get("epoch", 0)
        if not _is_int(epoch, 0):
            raise ConfigurationError(
                f"records[{position}]: epoch must be an integer >= 0, "
                f"got {epoch!r}"
            )
        parsed.append(
            {"seq_len": seq_len, "time_s": time_s, "tgt_len": tgt_len, "epoch": epoch}
        )
    return parsed
