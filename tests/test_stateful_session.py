"""Stateful test (hypothesis): an IdentificationSession under any feeding.

A session takes slices, record chunks (each a one-chunk frame of its
own, the live feed's shape), reads and ``finish()`` in any order.  Its
checks and final run must match a reference session fed the same
iterations one at a time, with every iteration absorbed as it arrives,
and ``iterations_consumed`` must count every fed iteration after every
step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.seqpoint import SeqPointSelector
from repro.errors import ConfigurationError
from repro.stream import FrameSlice, StreamingIdentifier, StreamingSlStatistics
from tests.conftest import chunk_of, make_trace

sl_time_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)
positions = st.integers(min_value=0, max_value=45)
sizes = st.integers(min_value=0, max_value=12)


class SessionFeeding(RuleBasedStateMachine):
    @initialize(
        pairs=sl_time_pairs,
        cadence=st.integers(min_value=1, max_value=6),
        patience=st.sampled_from([1, 3, 10_000, 10_000]),
        min_iterations=st.integers(min_value=0, max_value=9),
    )
    def start(self, pairs, cadence, patience, min_iterations):
        trace = make_trace(pairs)
        # Reversed, so the frame's profile pool is not in first-appearance
        # order and pooled ids would show a chunking-dependent order.
        self.frame = trace.frame().take(np.arange(len(pairs))[::-1])
        self.records = trace.records
        # Another frame, with other times at the same positions.
        self.other = make_trace([(sl, 2.0 * t) for sl, t in pairs]).frame()
        self.identifier = StreamingIdentifier(
            SeqPointSelector(),
            cadence=cadence,
            patience=patience,
            rtol=0.05,
            min_iterations=min_iterations,
        )
        self.begin()

    def begin(self):
        self.session = self.identifier.begin(StreamingSlStatistics.for_frame(self.frame))
        self.reference = self.identifier.begin(StreamingSlStatistics.for_frame(self.frame))
        self.cursor = 0
        self.fed = 0

    def feed_reference(self, chunks):
        """One iteration per chunk, each absorbed before the next."""
        for chunk in chunks:
            if self.reference.converged:
                return
            self.reference.absorb(chunk)
            self.fed += 1
            # Reading stats absorbs the pending iteration right away.
            assert len(self.reference.stats) == self.fed

    def feed_slice(self, frame, start, size):
        start = min(start, len(frame))
        stop = min(start + size, len(frame))
        self.session.absorb(FrameSlice(frame, start, stop))
        self.feed_reference(FrameSlice(frame, i, i + 1) for i in range(start, stop))
        return stop

    @rule(size=sizes)
    def contiguous_slice(self, size):
        self.cursor = self.feed_slice(self.frame, self.cursor, size) % len(self.frame)

    @rule(start=positions, size=sizes)
    def slice_anywhere(self, start, size):
        self.cursor = self.feed_slice(self.frame, start, size)

    @rule(start=positions)
    def empty_slice(self, start):
        self.feed_slice(self.frame, start, 0)

    @rule(lead=sizes, size=sizes)
    def other_frame_slice(self, lead, size):
        # The other frame picks up at the index the main one reached: a
        # range on one frame must never extend onto another.
        stop = self.feed_slice(self.frame, self.cursor, lead)
        self.cursor = self.feed_slice(self.other, stop, size) % len(self.frame)

    @rule(start=positions, size=sizes)
    def record_chunk(self, start, size):
        chunk = self.records[start : start + size]
        self.session.absorb(chunk_of(chunk))
        self.feed_reference(chunk_of([record]) for record in chunk)

    def assert_same_stats(self, stats, expected):
        assert len(stats) == self.fed
        if self.fed:
            assert stats.statistics() == expected.statistics()
            frame, expected_frame = stats.frame(), expected.frame()
            assert np.array_equal(frame.time_s, expected_frame.time_s)
            assert np.array_equal(frame.profile_id, expected_frame.profile_id)
            assert frame.profiles == expected_frame.profiles

    @rule()
    def read_stats(self):
        self.assert_same_stats(self.session.stats, self.reference.stats)

    @rule()
    def finish(self):
        if self.fed == 0:
            for session in (self.session, self.reference):
                with pytest.raises(ConfigurationError, match="no iterations"):
                    session.finish()
        else:
            run, expected = self.session.finish(), self.reference.finish()
            assert run == expected
            self.assert_same_stats(run.stats, expected.stats)
        self.begin()

    def teardown(self):
        # Every run ends in a finish, so no fed iteration goes unchecked.
        if hasattr(self, "session"):
            self.finish()

    @invariant()
    def agrees_with_reference(self):
        assert self.session.iterations_consumed == self.fed
        assert self.reference.iterations_consumed == self.fed
        assert self.session.checks == self.reference.checks
        assert self.session.converged == self.reference.converged


SessionFeeding.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestSessionFeeding = SessionFeeding.TestCase
