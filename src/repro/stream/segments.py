"""Quasi-stationary segmentation of an iteration stream.

The streaming drift guard (PR 5, after the online checkpoint tests of
Titsias et al.) *refuses* non-stationary streams: DS2's sorted SortaGrad
first epoch never converges because every per-SL running mean keeps
shifting.  This module *handles* such streams instead, by cutting the
epoch into quasi-stationary segments and selecting representatives per
segment:

* :class:`StreamSegmenter` — a sequential (CUSUM/Page-style)
  changepoint detector over fixed cadence windows of the stream.  Each
  window is scored against the open segment's accumulated per-SL
  composition and runtime means; evidence accumulates whenever the
  score exceeds the ``hazard`` rate and a changepoint fires once it
  crosses ``threshold``, placed at the boundary where the evidence run
  began.  Windows land on a fixed grid determined only by the frame
  contents and ``cadence``, so detected boundaries are invariant under
  re-chunking of the feed — the same property the identifier's cadence
  checks have.

* :class:`SegmentedSelector` — wraps any base selector: partition the
  (prefix) epoch at the detected changepoints, run the base selector
  per segment, and combine the per-segment representatives with
  segment-mass weights (Equation 1 per segment, summed).  A degenerate
  single-segment stream returns the base selector's outcome *object*
  unchanged, so stationary streams reproduce today's selections
  bit-identically.  With ``split_epochs``/``decay`` it becomes the
  drift-schedule variant (after PP-Seq's phase-mixture view): segment
  boundaries are additionally forced at epoch/traffic-phase changes in
  the ``epoch`` column, and older segments' projection mass decays
  geometrically toward the most recent phase.

Both are registered in :data:`repro.api.SELECTORS` as ``segmented`` and
``segmented-drift``, so they are reachable from specs, ``repro stream
--selector segmented --selector-arg base=seqpoint``, and traffic runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.projection import project_logged_time
from repro.core.selection import SelectedPoint, Selection
from repro.core.seqpoint import SeqPointResult
from repro.core.sl_stats import SlStatistics
from repro.errors import ConfigurationError
from repro.train.frame import TraceFrame, as_frame
from repro.util.stats import percent_error, sequential_sum

__all__ = [
    "Segment",
    "SegmentSummary",
    "SegmentedResult",
    "SegmentedSelector",
    "StreamSegmenter",
    "segment_frame",
]


@dataclass(frozen=True)
class Segment:
    """One quasi-stationary run of iterations, ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ConfigurationError(
                f"segment [{self.start}, {self.stop}) is empty or negative"
            )

    @property
    def iterations(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class SegmentSummary:
    """One segment's selection, reduced to its accounting numbers."""

    start: int
    stop: int
    points: int
    #: Bins the base selector used on this segment; 0 when unbinned.
    k: int
    projected_total_s: float
    actual_total_s: float

    @property
    def iterations(self) -> int:
        return self.stop - self.start

    @property
    def mean_iteration_s(self) -> float:
        """Projected mean iteration time within the segment."""
        return self.projected_total_s / self.iterations

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "stop": self.stop,
            "iterations": self.iterations,
            "points": self.points,
            "k": self.k,
            "projected_total_s": self.projected_total_s,
            "actual_total_s": self.actual_total_s,
        }


@dataclass(frozen=True)
class SegmentedResult(SeqPointResult):
    """A :class:`SeqPointResult` assembled from per-segment selections.

    Subclassing keeps every existing consumer working unchanged (the
    engine and the streaming identifier branch on ``SeqPointResult``);
    ``segments`` adds the per-segment accounting, last entry = the open
    (most recent) segment.
    """

    segments: tuple[SegmentSummary, ...] = ()

    @property
    def open_segment(self) -> SegmentSummary:
        return self.segments[-1]


def window_composition(
    frame: TraceFrame, start: int, stop: int
) -> dict[int, tuple[int, float]]:
    """Per-SL ``(count, total_time_s)`` of ``frame[start:stop]``.

    The one window-statistic function both the online segmenter and the
    offline replay share — scoring always reduces the same raw column
    values the same way, which is what makes detected boundaries a pure
    function of (frame, cadence) and hence chunking-invariant.
    """
    seq = frame.seq_len[start:stop]
    values, inverse, counts = np.unique(
        seq, return_inverse=True, return_counts=True
    )
    totals = np.bincount(
        inverse.reshape(-1),
        weights=frame.time_s[start:stop],
        minlength=values.size,
    )
    return {
        int(sl): (int(count), float(total))
        for sl, count, total in zip(
            values.tolist(), counts.tolist(), totals.tolist()
        )
    }


def composition_score(
    reference: dict[int, tuple[int, float]],
    window: dict[int, tuple[int, float]],
    drift_rtol: float,
) -> float:
    """How non-stationary a window looks against its segment reference.

    Three additive ingredients, each in ``[0, 1]``-ish range:

    * **new-SL mass** — the fraction of the window's iterations whose
      SL the reference has never seen (the signature of a monotone
      SortaGrad stream);
    * **total-variation distance** between the window's and the
      reference's SL-mix compositions;
    * **mean drift** — window-mass-weighted relative drift of shared
      SLs' mean runtimes, scaled by ``drift_rtol`` and capped at 1.
    """
    window_count = sum(count for count, _ in window.values())
    reference_count = sum(count for count, _ in reference.values())
    new_mass = (
        sum(count for sl, (count, _) in window.items() if sl not in reference)
        / window_count
    )
    tv = 0.0
    for sl in set(reference) | set(window):
        win_frac = window.get(sl, (0, 0.0))[0] / window_count
        ref_frac = reference.get(sl, (0, 0.0))[0] / reference_count
        tv += abs(win_frac - ref_frac)
    tv *= 0.5
    drift = 0.0
    for sl, (count, total) in window.items():
        ref = reference.get(sl)
        if ref is None:
            continue
        ref_mean = ref[1] / ref[0]
        relative = abs(total / count / ref_mean - 1.0) / drift_rtol
        drift += (count / window_count) * min(1.0, relative)
    return new_mass + tv + drift


class StreamSegmenter:
    """Sequential changepoint detection over cadence windows.

    A Page/CUSUM-style test: every full ``cadence`` window of the
    stream is scored against the open segment's accumulated reference
    (:func:`composition_score`); evidence advances by ``score -
    hazard`` (clamped at zero), and a changepoint fires once evidence
    exceeds ``threshold`` — placed at the window boundary where the
    evidence run began, never cutting a segment shorter than
    ``min_segment`` iterations or leaving an open segment shorter than
    one window.  The first window of each segment seeds the reference
    and is never scored.

    Deterministic in the frame contents: feeding a longer prefix
    replays the identical window sequence, so already-fired
    changepoints never move or disappear.
    """

    def __init__(
        self,
        cadence: int = 64,
        hazard: float = 0.6,
        threshold: float = 1.0,
        drift_rtol: float = 0.1,
        min_segment: int | None = None,
    ):
        if not isinstance(cadence, int) or isinstance(cadence, bool):
            raise ConfigurationError(f"cadence must be an int, got {cadence!r}")
        if cadence < 1:
            raise ConfigurationError(f"cadence must be >= 1, got {cadence}")
        for name, value in (("hazard", hazard), ("threshold", threshold)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be a number, got {value!r}"
                )
            if not value > 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        if not isinstance(drift_rtol, (int, float)) or not drift_rtol > 0:
            raise ConfigurationError(
                f"drift_rtol must be positive, got {drift_rtol!r}"
            )
        if min_segment is not None and (
            not isinstance(min_segment, int)
            or isinstance(min_segment, bool)
            or min_segment < 1
        ):
            raise ConfigurationError(
                f"min_segment must be a positive int, got {min_segment!r}"
            )
        self.cadence = cadence
        self.hazard = float(hazard)
        self.threshold = float(threshold)
        self.drift_rtol = float(drift_rtol)
        self.min_segment = 2 * cadence if min_segment is None else min_segment
        self._watched = 0
        self._segment_start = 0
        self._evidence = 0.0
        self._run_start: int | None = None
        self._reference: dict[int, tuple[int, float]] = {}
        self._changepoints: list[int] = []

    @property
    def watched(self) -> int:
        """Iterations already scored (the last full window boundary)."""
        return self._watched

    @property
    def changepoints(self) -> tuple[int, ...]:
        """Closed-segment boundaries fired so far, ascending."""
        return tuple(self._changepoints)

    @property
    def open_segment_start(self) -> int:
        return self._segment_start

    def observe(self, frame: TraceFrame, upto: int | None = None) -> tuple[int, ...]:
        """Score all pending full windows of ``frame[:upto]``.

        Returns the changepoints fired by this call (usually zero or
        one).  Iterations past the last full window boundary stay
        unscored until enough arrive to complete a window — they belong
        to the open segment in the meantime.
        """
        upto = len(frame) if upto is None else upto
        if upto > len(frame):
            raise ConfigurationError(
                f"upto={upto} past the {len(frame)}-iteration frame"
            )
        fired = []
        while self._watched + self.cadence <= upto:
            changepoint = self._advance(frame)
            if changepoint is not None:
                fired.append(changepoint)
        return tuple(fired)

    def _advance(self, frame: TraceFrame) -> int | None:
        start, stop = self._watched, self._watched + self.cadence
        window = window_composition(frame, start, stop)
        self._watched = stop
        if not self._reference:
            self._reference = window
            return None
        score = composition_score(self._reference, window, self.drift_rtol)
        gain = score - self.hazard
        if self._evidence + gain > 0.0:
            if self._evidence == 0.0:
                self._run_start = start
            self._evidence += gain
        else:
            self._evidence = 0.0
            self._run_start = None
        if self._evidence > self.threshold:
            changepoint = self._run_start
            floor = self._segment_start + self.min_segment
            if changepoint < floor:
                # Snap up to the first window boundary that respects
                # min_segment; postpone entirely if that would leave
                # the open segment without a full window yet.
                changepoint = -(-floor // self.cadence) * self.cadence
            if changepoint <= stop - self.cadence:
                self._close(frame, changepoint, stop)
                return changepoint
        # No closure: the window joins the open segment's reference
        # (on a closure, _close already rebuilt it from the frame).
        self._merge(window)
        return None

    def _merge(self, window: dict[int, tuple[int, float]]) -> None:
        for sl, (count, total) in window.items():
            have = self._reference.get(sl)
            if have is None:
                self._reference[sl] = (count, total)
            else:
                self._reference[sl] = (have[0] + count, have[1] + total)

    def _close(self, frame: TraceFrame, changepoint: int, stop: int) -> None:
        self._changepoints.append(changepoint)
        self._segment_start = changepoint
        self._evidence = 0.0
        self._run_start = None
        # The new open segment's reference: everything between the
        # changepoint and the windows already scored.
        self._reference = window_composition(frame, changepoint, stop)


def segment_frame(
    frame: TraceFrame,
    cadence: int = 64,
    hazard: float = 0.6,
    threshold: float = 1.0,
    drift_rtol: float = 0.1,
    min_segment: int | None = None,
) -> tuple[Segment, ...]:
    """Partition a frame at detected changepoints (offline replay).

    Runs :class:`StreamSegmenter` over the whole frame and converts its
    boundaries into a covering partition; a trailing partial window
    joins the open (last) segment, exactly as it would online.
    """
    segmenter = StreamSegmenter(
        cadence=cadence,
        hazard=hazard,
        threshold=threshold,
        drift_rtol=drift_rtol,
        min_segment=min_segment,
    )
    segmenter.observe(frame)
    edges = (0,) + segmenter.changepoints + (len(frame),)
    return tuple(
        Segment(start, stop) for start, stop in zip(edges, edges[1:])
    )


#: The frame columns a base selector reads, checked before a resume
#: (``profile_id`` with the profile pool: the rows' profile objects).
_CHECKED_COLUMNS = (
    "index", "epoch", "seq_len", "tgt_len", "time_s", "profile_id",
)


def _epoch_runs(frame: TraceFrame) -> tuple[tuple[int, int], ...]:
    """Maximal runs of constant ``epoch`` column, in stream order."""
    epoch = frame.epoch
    cuts = np.flatnonzero(np.diff(epoch) != 0) + 1
    edges = [0, *cuts.tolist(), len(frame)]
    return tuple(zip(edges, edges[1:]))


class SegmentedSelector:
    """Wrap a base selector with changepoint-aware segmentation.

    ``select`` partitions the trace at detected changepoints (plus
    epoch/phase boundaries when ``split_epochs``), runs ``base`` on
    each segment's sub-frame, and returns a :class:`SegmentedResult`
    whose selection concatenates the per-segment representatives with
    their segment-mass weights.  A single-segment partition returns the
    base outcome object untouched — bit-identical to not wrapping.

    ``decay`` < 1 geometrically down-weights older segments (most
    recent segment keeps weight 1), renormalised so the combined
    projection mass still spans the whole trace — the drift-schedule
    variant's forecast of a drifting SL distribution.

    Successive calls on a growing stream are incremental.  The instance
    keeps its segmenters and its closed segments' base outcomes, and
    resumes when a frame extends the previous one: equal bit for bit
    in every column a base selector reads (``index``, ``epoch``,
    ``seq_len``, ``tgt_len``, ``time_s``) over the previous length,
    with the same profile objects.  A resumed call scores only the new
    windows and re-selects only the open segment; closed segments never
    change, since changepoints are append-only.  Any other frame
    replays detection from its first window.  Either way the result is
    what a fresh instance returns.  The state makes an instance
    single-owner: one run, or one serve session feeding it under its
    lock, uses it at a time.
    """

    def __init__(
        self,
        base: Any,
        cadence: int = 64,
        hazard: float = 0.6,
        threshold: float = 1.0,
        drift_rtol: float = 0.1,
        min_segment: int | None = None,
        split_epochs: bool = False,
        decay: float = 1.0,
    ):
        if not callable(getattr(base, "select", None)):
            raise ConfigurationError(
                f"base selector must expose select(trace), got {base!r}"
            )
        if not isinstance(decay, (int, float)) or isinstance(decay, bool):
            raise ConfigurationError(f"decay must be a number, got {decay!r}")
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError(
                f"decay must be in (0, 1], got {decay}"
            )
        # Shares the segmenter's validation for the detection knobs.
        probe = StreamSegmenter(
            cadence=cadence,
            hazard=hazard,
            threshold=threshold,
            drift_rtol=drift_rtol,
            min_segment=min_segment,
        )
        self.base = base
        self.cadence = cadence
        self.hazard = probe.hazard
        self.threshold = probe.threshold
        self.drift_rtol = probe.drift_rtol
        self.min_segment = probe.min_segment
        self.split_epochs = bool(split_epochs)
        self.decay = float(decay)
        self._reset()

    def _reset(self) -> None:
        #: The last frame's checked columns and profile pool.
        self._seen: tuple | None = None
        #: ``(start, segmenter)`` per detection run: the whole stream,
        #: or each epoch run with ``split_epochs``.
        self._runs: list[tuple[int, StreamSegmenter]] = []
        #: Closed segments' base outcomes, as ``_select_segment`` rows.
        self._closed: dict[Segment, tuple] = {}

    @property
    def method(self) -> str:
        base = getattr(self.base, "METHOD", type(self.base).__name__)
        variant = "segmented-drift" if self.split_epochs else "segmented"
        return f"{variant}[{base}]"

    def segment(self, frame: TraceFrame) -> tuple[Segment, ...]:
        """The partition ``select`` will use on this frame.

        Brings this instance's detection up to ``frame``: resumed when
        the frame extends the last one seen, replayed otherwise.
        """
        if not self._extends(frame):
            self._reset()
        self._seen = None  # until detection below completes
        if self.split_epochs:
            runs = _epoch_runs(frame)
        else:
            runs = ((0, len(frame)),)
        # Runs before the previous last one ended at an epoch change
        # and have nothing left to score.
        for position in range(max(len(self._runs) - 1, 0), len(runs)):
            start, stop = runs[position]
            if position == len(self._runs):
                self._runs.append((start, self._new_segmenter()))
            segmenter = self._runs[position][1]
            segmenter.observe(
                frame if stop - start == len(frame) else frame.slice(start, stop)
            )
        self._seen = (
            tuple(getattr(frame, name) for name in _CHECKED_COLUMNS),
            frame.profiles,
        )
        segments: list[Segment] = []
        for (start, segmenter), (_, stop) in zip(self._runs, runs):
            edges = (0,) + segmenter.changepoints + (stop - start,)
            segments.extend(
                Segment(start + lo, start + hi)
                for lo, hi in zip(edges, edges[1:])
            )
        return tuple(segments)

    def _new_segmenter(self) -> StreamSegmenter:
        return StreamSegmenter(
            cadence=self.cadence,
            hazard=self.hazard,
            threshold=self.threshold,
            drift_rtol=self.drift_rtol,
            min_segment=self.min_segment,
        )

    def _extends(self, frame: TraceFrame) -> bool:
        """Does ``frame`` continue the last frame this instance saw?"""
        if self._seen is None:
            return False
        columns, profiles = self._seen
        seen = len(columns[0])
        if len(frame) < seen or len(frame.profiles) < len(profiles):
            return False
        for name, column in zip(_CHECKED_COLUMNS, columns):
            now = getattr(frame, name)[:seen]
            if name == "time_s":
                # Bitwise: a float compare equates -0.0 with 0.0.
                now, column = now.view(np.int64), column.view(np.int64)
            if not np.array_equal(now, column):
                return False
        return all(a is b for a, b in zip(profiles, frame.profiles))

    def select(self, trace: Any) -> Any:
        frame = as_frame(trace)
        segments = self.segment(frame)
        if len(segments) == 1:
            # Degenerate quasi-stationary stream: stay out of the way
            # entirely so selections reproduce bit-for-bit.
            return self.base.select(frame)

        per_segment = []
        for segment in segments[:-1]:
            row = self._closed.get(segment)
            if row is None:
                row = self._closed[segment] = self._select_segment(
                    frame, segment
                )
            per_segment.append(row)
        per_segment.append(self._select_segment(frame, segments[-1]))

        scales = self._scales(per_segment)
        points: list[SelectedPoint] = []
        summaries = []
        for (segment, selection, k, projected, actual), scale in zip(
            per_segment, scales
        ):
            if scale == 1.0:
                points.extend(selection.points)
            else:
                points.extend(
                    SelectedPoint(
                        record=point.record, weight=point.weight * scale
                    )
                    for point in selection.points
                )
            # Summaries keep the segment's own (unscaled) projection:
            # the open segment's mean must stay an honest estimate of
            # the recent iteration rate even under decay weighting.
            summaries.append(
                SegmentSummary(
                    start=segment.start,
                    stop=segment.stop,
                    points=len(selection),
                    k=k,
                    projected_total_s=projected,
                    actual_total_s=actual,
                )
            )
        combined = Selection(method=self.method, points=tuple(points))
        projected_total = project_logged_time(combined)
        actual_total = sequential_sum(actual for *_, actual in per_segment)
        return SegmentedResult(
            selection=combined,
            k=sum(k for _, _, k, _, _ in per_segment),
            identification_error_pct=percent_error(
                projected_total, actual_total
            ),
            projected_total_s=projected_total,
            actual_total_s=actual_total,
            segments=tuple(summaries),
        )

    def _select_segment(self, frame: TraceFrame, segment: Segment) -> tuple:
        """``(segment, selection, k, projected, actual)`` of one segment."""
        sub = frame.slice(segment.start, segment.stop)
        outcome = self.base.select(sub)
        if isinstance(outcome, SeqPointResult):
            return (
                segment,
                outcome.selection,
                outcome.k,
                outcome.projected_total_s,
                outcome.actual_total_s,
            )
        if isinstance(outcome, Selection):
            return (
                segment,
                outcome,
                0,
                project_logged_time(outcome),
                SlStatistics.from_trace(sub).total_time_s,
            )
        raise ConfigurationError(
            f"base selector returned {type(outcome).__name__}, "
            "expected a Selection or SeqPointResult"
        )

    def _scales(self, per_segment: list) -> list[float]:
        """Per-segment weight multipliers (all 1 unless decaying)."""
        count = len(per_segment)
        if self.decay == 1.0:
            return [1.0] * count
        raw = [self.decay ** (count - 1 - i) for i in range(count)]
        mass = sum(
            segment.iterations for segment, *_ in per_segment
        )
        decayed = sequential_sum(
            scale * segment.iterations
            for scale, (segment, *_) in zip(raw, per_segment)
        )
        # Renormalise so total projection mass still spans the trace.
        factor = mass / decayed
        return [scale * factor for scale in raw]
