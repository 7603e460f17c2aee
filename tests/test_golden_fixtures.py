"""Golden-fixture regression tests for the trace serialization contract.

Small v1 (row-oriented) and v2 (columnar) trace-JSON artefacts are
committed under ``tests/fixtures/``.  These tests freeze three things:

* both schema versions keep loading (and v1 transparently columnarises
  to the same frame as v2);
* saving a loaded trace reproduces the artefact — the schema
  round-trips byte-for-byte at the JSON level;
* the numbers downstream of a load never move: selected seqpoints,
  weights, representative runtimes, and projected totals all match
  frozen expected values.

If an intentional schema change breaks these, regenerate the fixtures
*and* the frozen literals in the same commit — that is the contract
changing, and it must be visible in review.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import FrequentSelector
from repro.core.projection import project_logged_time
from repro.core.seqpoint import SeqPointSelector
from repro.errors import TraceError
from repro.train.frame import SCHEMA_V1, SCHEMA_V2, TraceFrame
from repro.train.trace import TrainingTrace

FIXTURES = Path(__file__).parent / "fixtures"
V1 = FIXTURES / "golden_trace_v1.json"
V2 = FIXTURES / "golden_trace_v2.json"

#: Frozen expectations (regenerate together with the fixtures).
EXPECTED_ITERATIONS = 20
EXPECTED_UNIQUE_SLS = [12, 24, 36, 48, 60]
EXPECTED_TOTAL_TIME = 3.6899  # frame-column sum
#: The per-SL group totals sum in a different order — one ulp apart.
EXPECTED_ACTUAL_TOTAL = 3.6898999999999997
EXPECTED_K = 5
EXPECTED_IDENT_ERROR = 0.010840402178919645
EXPECTED_PROJECTED = 3.6902999999999997
EXPECTED_SEQPOINTS = [
    # (seq_len, tgt_len, weight, representative time_s)
    (12, 16, 4.0, 0.0981),
    (24, 28, 5.0, 0.1461),
    (36, 40, 5.0, 0.1941),
    (48, 52, 3.0, 0.2422),
    (60, None, 3.0, 0.2901),
]
EXPECTED_FREQUENT = (24, 20.0, 2.922)


@pytest.fixture(params=[V1, V2], ids=["v1", "v2"])
def golden(request) -> TrainingTrace:
    return TrainingTrace.load(request.param)


class TestSchema:
    def test_fixture_files_carry_their_schema_stamps(self):
        assert json.loads(V1.read_text())["schema"] == SCHEMA_V1
        assert json.loads(V2.read_text())["schema"] == SCHEMA_V2

    def test_both_versions_load_to_the_same_frame(self):
        v1 = TraceFrame.load(V1)
        v2 = TraceFrame.load(V2)
        for column in ("index", "epoch", "seq_len", "tgt_len", "time_s"):
            assert np.array_equal(getattr(v1, column), getattr(v2, column))
        assert v1.batch_size == v2.batch_size
        assert v1.autotune_s == v2.autotune_s == 0.125
        assert v1.eval_s == v2.eval_s == 0.25
        assert [v1.profiles[i] for i in v1.profile_id] == [
            v2.profiles[i] for i in v2.profile_id
        ]

    def test_v2_round_trips_byte_identically(self, tmp_path):
        trace = TrainingTrace.load(V2)
        out = tmp_path / "resaved.json"
        trace.save(out, version=2)
        assert json.loads(out.read_text()) == json.loads(V2.read_text())

    def test_cross_version_save_converges(self, tmp_path):
        """v1 -> save v2 -> load equals a straight v2 load."""
        out = tmp_path / "upgraded.json"
        TrainingTrace.load(V1).save(out, version=2)
        assert json.loads(out.read_text()) == json.loads(V2.read_text())

    def test_unknown_schema_rejected(self, tmp_path):
        payload = json.loads(V2.read_text())
        payload["schema"] = "repro.training-trace.v99"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(TraceError, match="unknown trace schema"):
            TrainingTrace.load(bad)


class TestFrozenNumbers:
    def test_trace_shape(self, golden):
        assert len(golden) == EXPECTED_ITERATIONS
        assert golden.unique_seq_lens() == EXPECTED_UNIQUE_SLS
        assert golden.total_time_s == EXPECTED_TOTAL_TIME
        assert golden.batch_size == 64
        assert golden.model_name == "golden"

    def test_seqpoint_selection_frozen(self, golden):
        result = SeqPointSelector(max_unique=3).select(golden)
        assert result.k == EXPECTED_K
        assert result.identification_error_pct == EXPECTED_IDENT_ERROR
        assert result.projected_total_s == EXPECTED_PROJECTED
        assert result.actual_total_s == EXPECTED_ACTUAL_TOTAL
        assert [
            (p.seq_len, p.tgt_len, p.weight, p.record.time_s)
            for p in result.seqpoints
        ] == EXPECTED_SEQPOINTS

    def test_frequent_selection_frozen(self, golden):
        selection = FrequentSelector().select(golden)
        seq_len, weight, projected = EXPECTED_FREQUENT
        assert selection.seq_lens == (seq_len,)
        assert selection.points[0].weight == weight
        assert project_logged_time(selection) == projected

    def test_streaming_agrees_on_the_golden_trace(self, golden):
        """The streamed golden prefix equals the batch group-by."""
        from repro.core.sl_stats import SlStatistics
        from repro.stream import StreamingSlStatistics

        frame = golden.frame()
        stats = StreamingSlStatistics.for_frame(frame)
        for stop in range(1, len(frame) + 1):
            stats.absorb_frame(frame, stop - 1, stop)
        assert stats.statistics() == SlStatistics.from_trace(frame)
