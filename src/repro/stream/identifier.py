"""Online SeqPoint identification with early stopping.

:class:`StreamingIdentifier` wraps any selector (SeqPoint, k-means, or
a baseline — anything with ``select(frame)``) and drives it over a feed
of arriving iterations:

1. iterations absorb into a :class:`StreamingSlStatistics` — columnar
   chunks once per check window, not once per chunk
   (:class:`IdentificationSession`);
2. every ``cadence`` iterations the selector re-runs on the prefix
   (reusing the incremental per-SL group-by; a segment-aware selector
   also resumes its detection and re-selects only the open segment);
3. convergence is declared once the selected ``(seq_len, tgt_len)`` set
   and the projected mean iteration time are stable across ``patience``
   consecutive checks (relative tolerance ``rtol``), at which point the
   rest of the stream is never consumed — the paper's profiling-cost
   argument, extended to not even needing the full logged epoch;
4. a changepoint-style guard (after the online checkpoint tests of
   Titsias et al.) resets the stability window whenever the per-SL mix
   drifts between checks — a seen SL's running mean moving by more than
   ``drift_rtol``, or appearing/vanishing SLs carrying more than
   ``drift_rtol`` of the recent mass (:func:`sl_mix_drift`) — so a
   distribution shift mid-stream restarts the convergence clock instead
   of freezing a stale selection;
5. when the selector is segment-aware (``segmented``/``segmented-drift``,
   :mod:`repro.stream.segments`), the guard hands off to the segmenter:
   a newly *closed* segment is the drift event (resetting the stability
   window), and stability is judged on the **open** segment's projected
   mean and the combined selection — so monotone streams the plain
   guard refuses can still converge, segment by segment.  Degenerate
   single-segment streams take the plain path above bit-identically.

Checks land on exact ``cadence`` boundaries regardless of the feed's
chunk granularity, so the sequence of convergence decisions is
invariant under re-chunking — asserted in
``tests/test_stream_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.projection import project_logged_time
from repro.core.selection import Selection
from repro.core.seqpoint import SeqPointResult
from repro.errors import ConfigurationError
from repro.stream.feed import FrameSlice
from repro.stream.segments import SegmentSummary, SegmentedResult
from repro.stream.stats import StreamingSlStatistics
from repro.util.stats import percent_error

__all__ = [
    "ConvergenceCheck",
    "IdentificationSession",
    "StreamingIdentifier",
    "StreamingRun",
    "sl_mix_drift",
]


@dataclass(frozen=True)
class ConvergenceCheck:
    """One selector re-run on the prefix, and what it decided."""

    iterations: int
    #: Selected ``(seq_len, tgt_len)`` pairs, sorted.
    selected: tuple[tuple[int, int | None], ...]
    projected_mean_iteration_s: float
    #: Consecutive checks (this one included) agreeing so far.
    stable_checks: int
    #: True when the drift guard reset the stability window here (for a
    #: segment-aware selector: a segment closed here).
    drift_reset: bool
    k: int | None
    #: Closed segments a segment-aware selector committed so far; 0 for
    #: plain selectors and degenerate single-segment streams.
    segments_closed: int = 0
    #: Projected mean iteration time of the open segment — the value
    #: stability is judged on when the stream is segmented.
    open_segment_mean_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations,
            "selected": [list(pair) for pair in self.selected],
            "projected_mean_iteration_s": self.projected_mean_iteration_s,
            "stable_checks": self.stable_checks,
            "drift_reset": self.drift_reset,
            "k": self.k,
            "segments_closed": self.segments_closed,
            "open_segment_mean_s": self.open_segment_mean_s,
        }


@dataclass(frozen=True)
class StreamingRun:
    """Everything one streaming identification produced."""

    converged: bool
    iterations_consumed: int
    checks: tuple[ConvergenceCheck, ...]
    selection: Selection
    k: int | None
    #: Equation 1 on the consumed prefix vs the prefix's actual time.
    identification_error_pct: float
    projected_prefix_total_s: float
    prefix_total_s: float
    #: The accumulator, for callers that keep absorbing or inspecting.
    stats: StreamingSlStatistics = field(repr=False, compare=False)
    #: Per-segment accounting when the selector was segment-aware and
    #: detected changepoints; empty otherwise (plain selectors and
    #: degenerate single-segment streams).
    segments: tuple[SegmentSummary, ...] = ()

    @property
    def method(self) -> str:
        return self.selection.method

    def __len__(self) -> int:
        return len(self.selection)

    def project_epoch_time(self, epoch_iterations: int) -> float:
        """Extrapolate the prefix projection to a full epoch's length.

        A segmented prefix is drift-aware: only the *open* (most
        recent) segment's projected mean prices the unseen tail, so a
        monotone stream's early cheap iterations do not drag the
        forecast down.  With a single segment this reduces exactly to
        the classic whole-prefix linear extrapolation.
        """
        if epoch_iterations <= 0:
            raise ConfigurationError(
                f"epoch_iterations must be positive, got {epoch_iterations}"
            )
        if self.segments:
            tail = epoch_iterations - self.iterations_consumed
            return (
                self.projected_prefix_total_s
                + tail * self.segments[-1].mean_iteration_s
            )
        return (
            self.projected_prefix_total_s
            / self.iterations_consumed
            * epoch_iterations
        )


def _points_agree(
    current: tuple[tuple[int, int | None], ...],
    previous: tuple[tuple[int, int | None], ...],
    sl_rtol: float,
) -> bool:
    """Tolerant stability test on two sorted selected-point sets.

    Binned selectors legitimately flap between *adjacent* in-bin
    representatives (SL 140 vs 147) without the selection structure
    changing, so two sets agree when they have the same cardinality and
    each pair of corresponding lengths is within ``sl_rtol``
    relatively.  ``sl_rtol=0`` degenerates to exact set equality.
    """
    if len(current) != len(previous):
        return False
    for (now_sl, now_tgt), (then_sl, then_tgt) in zip(current, previous):
        if abs(now_sl - then_sl) > sl_rtol * then_sl:
            return False
        if (now_tgt is None) != (then_tgt is None):
            return False
        if now_tgt is not None and abs(now_tgt - then_tgt) > sl_rtol * then_tgt:
            return False
    return True


def sl_mix_drift(
    previous_means: dict[int, float],
    previous_counts: dict[int, int],
    previous_iterations: int,
    means: dict[int, float],
    counts: dict[int, int],
    iterations: int,
    drift_rtol: float,
) -> bool:
    """Did the per-SL distribution drift between two checks?

    Three signals, compared over the *union* of previous and current
    SLs (an SL set restricted to ``previous_means`` would be blind to
    the appearing-SL signature of a monotone SortaGrad stream):

    * a shared SL's running mean moved by more than ``drift_rtol``
      relatively (a zero previous mean treats any change as drift);
    * *appearing* SLs account for more than ``drift_rtol`` of the
      iterations that arrived since the previous check;
    * *vanishing* SLs accounted for more than ``drift_rtol`` of the
      previously consumed iterations (impossible for a cumulative
      accumulator, but sessions accept resumed or rebuilt statistics).
    """
    for seq_len, previous_mean in previous_means.items():
        current = means.get(seq_len)
        if current is None:
            continue  # vanished: judged by mass below
        if previous_mean == 0.0:
            if current != previous_mean:
                return True
            continue
        if abs(current - previous_mean) > drift_rtol * previous_mean:
            return True
    arrived = iterations - previous_iterations
    if arrived > 0:
        appearing = sum(
            count
            for seq_len, count in counts.items()
            if seq_len not in previous_means
        )
        if appearing > drift_rtol * arrived:
            return True
    if previous_iterations > 0:
        vanished = sum(
            count
            for seq_len, count in previous_counts.items()
            if seq_len not in means
        )
        if vanished > drift_rtol * previous_iterations:
            return True
    return False


def _unwrap(outcome: Any) -> tuple[Selection, int | None, float]:
    """Normalise a selector outcome to (selection, k, projected total)."""
    if isinstance(outcome, SeqPointResult):
        return outcome.selection, outcome.k, outcome.projected_total_s
    if not isinstance(outcome, Selection):
        raise ConfigurationError(
            f"selector returned {type(outcome).__name__}, expected a "
            "Selection or SeqPointResult"
        )
    return outcome, None, project_logged_time(outcome)


class StreamingIdentifier:
    """Drive a selector over an iteration stream until it stabilises."""

    def __init__(
        self,
        selector: Any,
        cadence: int = 64,
        patience: int = 3,
        rtol: float = 0.005,
        drift_rtol: float = 0.02,
        sl_rtol: float = 0.1,
        min_iterations: int = 0,
    ):
        if not callable(getattr(selector, "select", None)):
            raise ConfigurationError(
                f"selector must expose select(trace), got {selector!r}"
            )
        if cadence < 1:
            raise ConfigurationError(f"cadence must be >= 1, got {cadence}")
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if not rtol > 0:
            raise ConfigurationError(f"rtol must be positive, got {rtol}")
        if not drift_rtol > 0:
            raise ConfigurationError(
                f"drift_rtol must be positive, got {drift_rtol}"
            )
        if sl_rtol < 0:
            raise ConfigurationError(
                f"sl_rtol cannot be negative, got {sl_rtol}"
            )
        if min_iterations < 0:
            raise ConfigurationError(
                f"min_iterations cannot be negative, got {min_iterations}"
            )
        self.selector = selector
        self.cadence = cadence
        self.patience = patience
        self.rtol = rtol
        self.drift_rtol = drift_rtol
        self.sl_rtol = sl_rtol
        self.min_iterations = min_iterations

    # -- the convergence loop -----------------------------------------

    def run(
        self,
        feed: Iterable[Any],
        stats: StreamingSlStatistics | None = None,
    ) -> StreamingRun:
        """Consume ``feed`` until convergence (or exhaustion).

        ``feed`` yields :class:`~repro.stream.feed.FrameSlice` chunks;
        chunks are split internally so checks land on exact cadence
        boundaries.  Pass ``stats`` to resume an accumulator that
        already absorbed earlier arrivals.
        """
        session = self.begin(stats)
        for chunk in feed:
            if session.absorb(chunk):
                break
        return session.finish()

    def begin(
        self, stats: StreamingSlStatistics | None = None
    ) -> "IdentificationSession":
        """Open an incremental session for arrivals pushed by the caller.

        Where :meth:`run` pulls an entire feed, a session is fed chunk
        by chunk (:meth:`IdentificationSession.absorb`) — the shape a
        long-running service needs when producers POST arrivals at
        their own pace — and :meth:`IdentificationSession.finish`
        closes it with the exact accounting ``run`` would produce on
        the same arrival sequence.
        """
        return IdentificationSession(self, stats)


class IdentificationSession:
    """Mutable state of one streaming identification, fed explicitly.

    Produced by :meth:`StreamingIdentifier.begin`.  ``absorb`` returns
    ``True`` once the selection has converged (further chunks are
    ignored by convention, not enforcement); ``finish`` runs the final
    off-boundary check and packages a :class:`StreamingRun`.  Driving a
    session chunk-for-chunk is bit-identical to :meth:`StreamingIdentifier.run`
    over the concatenation of the same chunks.

    Every chunk is a :class:`FrameSlice`, absorbed once per check
    window, not once per chunk: a slice extends a pending contiguous
    ``frame[start:stop)`` range, and one
    :meth:`~repro.stream.stats.StreamingSlStatistics.absorb_frame` call
    takes the range when it reaches the next check boundary, at
    :meth:`finish`, before a slice on another frame or not contiguous
    with it, and whenever :attr:`stats` is read.  A live producer's
    records arrive as a slice over a frame of their own.
    :attr:`iterations_consumed` counts pending iterations.  A non-finite
    or non-positive time fails the call that absorbs its range, and
    every later one: the range stays pending.
    """

    def __init__(self, identifier: StreamingIdentifier, stats):
        self.identifier = identifier
        self._stats = stats if stats is not None else StreamingSlStatistics()
        #: Fed but not yet absorbed: ``(frame, start, stop)``.
        self._pending: tuple[Any, int, int] | None = None
        self.checks: list[ConvergenceCheck] = []
        self.last_check_at = 0
        self.stable_run = 0
        self.previous: ConvergenceCheck | None = None
        self.previous_means: dict[int, float] = {}
        self.previous_counts: dict[int, int] = {}
        self.outcome = None
        self.converged = False

    @property
    def stats(self) -> StreamingSlStatistics:
        """The accumulator, with every fed iteration absorbed."""
        self._absorb_pending()
        return self._stats

    def _absorb_pending(self) -> None:
        if self._pending is not None:
            self._stats.absorb_frame(*self._pending)
            self._pending = None

    @property
    def iterations_consumed(self) -> int:
        pending = 0 if self._pending is None else self._pending[2] - self._pending[1]
        return len(self._stats) + pending

    def _next_boundary(self) -> int:
        """The next iteration count at which a check may fire.

        The smallest cadence multiple strictly past the current size
        that also satisfies the ``min_iterations`` warm-up — matching
        ``_maybe_check``'s predicate exactly, so every chunking checks
        at identical positions (a check CAN land at ``min_iterations``
        itself when it is a multiple).
        """
        cadence = self.identifier.cadence
        boundary = (self.iterations_consumed // cadence + 1) * cadence
        floor = max(self.identifier.min_iterations, 1)
        if boundary < floor:
            boundary = -(-floor // cadence) * cadence
        return boundary

    def absorb(self, chunk: FrameSlice) -> bool:
        """Absorb one columnar chunk, checking at each cadence boundary.

        Returns ``True`` once convergence has been declared — on this
        chunk or a previous one.
        """
        if self.converged:
            return True
        if not isinstance(chunk, FrameSlice):
            raise ConfigurationError(
                f"feed chunks must be FrameSlice, got {type(chunk).__name__}"
            )
        start = chunk.start
        while start < chunk.stop:
            stop = min(
                chunk.stop, start + self._next_boundary() - self.iterations_consumed
            )
            pending = self._pending
            if pending is not None and pending[0] is chunk.frame and pending[2] == start:
                self._pending = (chunk.frame, pending[1], stop)
            else:
                self._absorb_pending()
                self._pending = (chunk.frame, start, stop)
            start = stop
            if self._maybe_check():
                return True
        return False

    def _maybe_check(self) -> bool:
        consumed = self.iterations_consumed
        if consumed < max(self.identifier.min_iterations, 1):
            return False
        if consumed % self.identifier.cadence != 0:
            return False
        return self._check()

    def _check(self) -> bool:
        identifier = self.identifier
        stats = self.stats
        consumed = len(stats)
        self.last_check_at = consumed
        frame = stats.frame()
        stats.statistics()  # seed the frame's group-by memo
        self.outcome = identifier.selector.select(frame)
        selection, k, projected = _unwrap(self.outcome)
        selected = tuple(
            sorted({(point.seq_len, point.tgt_len) for point in selection.points})
        )
        mean_s = projected / consumed

        # A segment-aware selector that committed changepoints reports
        # them; everything else (plain selectors, degenerate
        # single-segment streams) stays on the classic path.
        segments = (
            self.outcome.segments
            if isinstance(self.outcome, SegmentedResult)
            else ()
        )
        segments_closed = max(len(segments) - 1, 0)
        open_mean_s = segments[-1].mean_iteration_s if segments else None
        # Stability is judged on the open segment's projected mean when
        # the stream is segmented, on the whole-prefix mean otherwise.
        stability_mean_s = mean_s if open_mean_s is None else open_mean_s

        means = stats.mean_times()
        counts = stats.iteration_counts()
        drift_reset = False
        if self.previous is not None:
            if segments_closed or self.previous.segments_closed:
                # Hand off to the segmenter: a newly closed segment IS
                # the drift event; the per-SL guard would keep firing
                # forever on the very streams segmentation handles.
                drift_reset = segments_closed != self.previous.segments_closed
            else:
                drift_reset = sl_mix_drift(
                    self.previous_means,
                    self.previous_counts,
                    self.previous.iterations,
                    means,
                    counts,
                    consumed,
                    identifier.drift_rtol,
                )
            previous_mean_s = (
                self.previous.projected_mean_iteration_s
                if self.previous.open_segment_mean_s is None
                else self.previous.open_segment_mean_s
            )
            stable = (
                not drift_reset
                and _points_agree(
                    selected, self.previous.selected, identifier.sl_rtol
                )
                and abs(stability_mean_s - previous_mean_s)
                <= identifier.rtol * previous_mean_s
            )
            if drift_reset:
                # Only post-reset agreements count toward patience: the
                # drifted check itself is not evidence of stability.
                self.stable_run = 0
            else:
                self.stable_run = self.stable_run + 1 if stable else 1
        else:
            self.stable_run = 1
        self.previous_means = means
        self.previous_counts = counts

        check = ConvergenceCheck(
            iterations=consumed,
            selected=selected,
            projected_mean_iteration_s=mean_s,
            stable_checks=self.stable_run,
            drift_reset=drift_reset,
            k=k,
            segments_closed=segments_closed,
            open_segment_mean_s=open_mean_s,
        )
        self.checks.append(check)
        self.previous = check
        self.converged = self.stable_run >= identifier.patience
        return self.converged

    def finish(self) -> StreamingRun:
        stats = self.stats
        consumed = len(stats)
        if consumed == 0:
            raise ConfigurationError("the feed produced no iterations")
        # A final check when the stream ended between boundaries, so a
        # short or exhausted feed still yields an up-to-date selection —
        # but exhaustion never *newly* declares convergence: the stream
        # merely ended, it did not demonstrate `patience` agreeing
        # boundary checks.  (A session that already converged never
        # reaches this branch: converged sessions stop absorbing, so
        # their last boundary check is still current.)
        if self.outcome is None or self.last_check_at != consumed:
            self._check()
            self.converged = False
        # Mirror the batch engine's accounting exactly (bit for bit): a
        # SeqPointResult carries its own numbers (actual = the per-SL
        # total sum); plain selections score against the frame total.
        if isinstance(self.outcome, SeqPointResult):
            selection, k = self.outcome.selection, self.outcome.k
            projected = self.outcome.projected_total_s
            actual = self.outcome.actual_total_s
            error = self.outcome.identification_error_pct
        else:
            selection, k = self.outcome, None
            projected = project_logged_time(selection)
            actual = stats.frame().total_time_s
            error = percent_error(projected, actual)
        return StreamingRun(
            converged=self.converged,
            iterations_consumed=consumed,
            checks=tuple(self.checks),
            selection=selection,
            k=k,
            identification_error_pct=error,
            projected_prefix_total_s=projected,
            prefix_total_s=actual,
            stats=stats,
            segments=(
                self.outcome.segments
                if isinstance(self.outcome, SegmentedResult)
                else ()
            ),
        )
