"""Unit tests for repro.train.frame: the columnar trace core."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.hw.counters import CounterSet
from repro.train.frame import (
    NO_TGT,
    SCHEMA_V2,
    IterationProfile,
    TraceFrame,
    as_frame,
)
from repro.train.trace import IterationRecord, TrainingTrace
from repro.util.serialize import dump_json, read_json
from tests.conftest import dump_v1, make_record, make_trace, trace_of


def shared_profile_records(count: int) -> list[IterationRecord]:
    """Records at alternating SLs sharing two distinct profiles."""
    counters = CounterSet(valu_insts=7.0, busy_cycles=11.0)
    records = []
    for index in range(count):
        seq_len = 10 if index % 2 == 0 else 20
        records.append(
            IterationRecord(
                index=index,
                epoch=0,
                seq_len=seq_len,
                tgt_len=seq_len + 5,
                time_s=0.1 * seq_len,
                launches=seq_len,
                counters=counters,
                group_times={"GEMM-1": 0.05 * seq_len},
                kernel_names=frozenset({f"k{seq_len}"}),
            )
        )
    return records


def assert_frames_equal(left: TraceFrame, right: TraceFrame) -> None:
    assert left.model_name == right.model_name
    assert left.dataset_name == right.dataset_name
    assert left.config_name == right.config_name
    assert left.batch_size == right.batch_size
    assert left.autotune_s == right.autotune_s
    assert left.eval_s == right.eval_s
    for column in ("index", "epoch", "seq_len", "tgt_len", "time_s"):
        assert np.array_equal(getattr(left, column), getattr(right, column)), column
    assert [
        left.profiles[pid] for pid in left.profile_id
    ] == [right.profiles[pid] for pid in right.profile_id]


class TestFromRecords:
    def test_columns_match_records(self):
        trace = make_trace([(10, 1.0), (20, 2.0), (10, 1.5)])
        frame = trace.frame()
        assert len(frame) == 3
        assert frame.seq_len.tolist() == [10, 20, 10]
        assert frame.time_s.tolist() == [1.0, 2.0, 1.5]
        assert frame.tgt_len.tolist() == [NO_TGT] * 3

    def test_profiles_deduplicate_by_shape_payload(self):
        records = shared_profile_records(8)
        frame = TraceFrame.from_records("m", "d", "c", 64, records)
        assert len(frame) == 8
        assert len(frame.profiles) == 2
        assert frame.profile_id.tolist() == [0, 1] * 4

    def test_record_view_preserves_identity(self):
        trace = make_trace([(10, 1.0), (20, 2.0)])
        frame = trace.frame()
        assert frame.record(1) == trace.records[1]
        assert trace.records is trace.records  # built once, on first read

    def test_derived_columns(self):
        records = shared_profile_records(4)
        frame = TraceFrame.from_records("m", "d", "c", 64, records)
        assert frame.launches.tolist() == [10, 20, 10, 20]
        assert frame.counter_column("valu_insts").tolist() == [7.0] * 4
        assert frame.group_time_column("GEMM-1").tolist() == [
            0.5, 1.0, 0.5, 1.0,
        ]
        assert frame.groups == ("GEMM-1",)
        totals = frame.counter_totals()
        assert totals.valu_insts == pytest.approx(28.0)

    def test_unknown_counter_rejected(self):
        frame = make_trace([(10, 1.0)]).frame()
        with pytest.raises(TraceError, match="unknown counter"):
            frame.counter_column("nope")

    def test_non_positive_time_rejected(self):
        frame = make_trace([(10, 1.0)]).frame()
        with pytest.raises(TraceError, match="non-positive time"):
            TraceFrame(
                model_name="m",
                dataset_name="d",
                config_name="c",
                batch_size=64,
                index=frame.index,
                epoch=frame.epoch,
                seq_len=frame.seq_len,
                tgt_len=frame.tgt_len,
                time_s=np.zeros(1),
                profile_id=frame.profile_id,
                profiles=frame.profiles,
            )

    @pytest.mark.parametrize(
        ("bad", "shown"),
        [(float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf")],
    )
    def test_non_finite_time_rejected(self, bad, shown):
        """NaN and ±inf fail with the message records and the group-by
        give, naming the iteration's index and its time."""
        frame = make_trace([(10, 1.0), (20, 2.0), (10, 1.5)]).frame()
        with pytest.raises(TraceError) as raised:
            TraceFrame(
                model_name="m",
                dataset_name="d",
                config_name="c",
                batch_size=64,
                index=frame.index + 40,
                epoch=frame.epoch,
                seq_len=frame.seq_len,
                tgt_len=frame.tgt_len,
                time_s=np.array([1.0, bad, 1.5]),
                profile_id=frame.profile_id,
                profiles=frame.profiles,
            )
        assert str(raised.value) == f"iteration 41: non-finite time {shown}"

    def test_profile_id_out_of_range_rejected(self):
        frame = make_trace([(10, 1.0)]).frame()
        with pytest.raises(TraceError, match="profile pool"):
            TraceFrame(
                model_name="m",
                dataset_name="d",
                config_name="c",
                batch_size=64,
                index=frame.index,
                epoch=frame.epoch,
                seq_len=frame.seq_len,
                tgt_len=frame.tgt_len,
                time_s=frame.time_s,
                profile_id=np.array([5], dtype=np.int64),
                profiles=frame.profiles,
            )

    def test_column_length_mismatch_rejected(self):
        frame = make_trace([(10, 1.0), (20, 2.0)]).frame()
        with pytest.raises(TraceError, match="column"):
            TraceFrame(
                model_name="m",
                dataset_name="d",
                config_name="c",
                batch_size=64,
                index=frame.index,
                epoch=frame.epoch,
                seq_len=frame.seq_len[:1],
                tgt_len=frame.tgt_len,
                time_s=frame.time_s,
                profile_id=frame.profile_id,
                profiles=frame.profiles,
            )


class TestLazyView:
    def test_from_frame_materialises_records_on_demand(self):
        frame = TraceFrame.from_records(
            "m", "d", "c", 64, shared_profile_records(4)
        )
        trace = TrainingTrace.from_frame(frame)
        assert len(trace) == 4
        assert trace.total_time_s == pytest.approx(frame.total_time_s)
        records = trace.records
        assert [r.seq_len for r in records] == [10, 20, 10, 20]
        assert records[1].tgt_len == 25

    def test_edited_records_build_a_new_frame(self):
        trace = make_trace([(10, 1.0)])
        with pytest.raises(AttributeError):
            trace.records.append(make_record(1, 30, 3.0))
        grown = trace_of([*trace.records, make_record(1, 30, 3.0)])
        assert grown.frame().seq_len.tolist() == [10, 30]
        assert trace.frame().seq_len.tolist() == [10]
        emptied = trace_of([])
        assert len(emptied.frame()) == 0
        with pytest.raises(TraceError):
            emptied.throughput

    def test_phases_are_read_from_the_frame(self):
        trace = make_trace([(10, 1.0)], autotune_s=2.0, eval_s=0.5)
        frame = trace.frame()
        assert frame.autotune_s == 2.0
        assert frame.eval_s == 0.5
        assert trace.wall_time_s == pytest.approx(3.5)
        view = TrainingTrace.from_frame(frame.with_phases(4.0, 1.0))
        assert (view.autotune_s, view.eval_s) == (4.0, 1.0)

    def test_as_frame_accepts_both(self):
        trace = make_trace([(10, 1.0)])
        frame = trace.frame()
        assert as_frame(frame) is frame
        assert as_frame(trace) is frame

    def test_as_frame_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_frame(42)

    def test_records_not_assignable(self):
        trace = make_trace([(10, 1.0), (20, 2.0)])
        with pytest.raises(AttributeError):
            trace.records = [make_record(0, 30, 3.0)]
        with pytest.raises(AttributeError):
            trace.records += (make_record(1, 40, 4.0),)
        assert trace.frame().seq_len.tolist() == [10, 20]

    def test_structural_equality(self, tmp_path):
        trace = make_trace([(10, 1.0), (20, 2.0)])
        path = tmp_path / "t.json"
        trace.save(path)
        assert TrainingTrace.load(path) == trace
        other = make_trace([(10, 1.0)])
        assert trace != other
        assert trace != "not a trace"

    def test_materialised_records_own_their_group_times(self):
        frame = TraceFrame.from_records(
            "m", "d", "c", 64, shared_profile_records(4)
        )
        records = TrainingTrace.from_frame(frame).records
        records[0].group_times["GEMM-1"] = 99.0
        # Siblings of the same shape and the profile pool are untouched.
        assert records[2].group_times["GEMM-1"] == 0.5
        assert frame.profiles[0].group_times["GEMM-1"] == 0.5


class TestPersistence:
    def make_seq2seq_trace(self):
        return trace_of(
            shared_profile_records(6),
            model_name="m",
            dataset_name="d",
            config_name="c",
            batch_size=32,
            autotune_s=1.25,
            eval_s=0.75,
        )

    def test_v2_round_trip_bit_equality(self, tmp_path):
        trace = self.make_seq2seq_trace()
        path = tmp_path / "trace.json"
        trace.save(path, version=2)
        assert read_json(path)["schema"] == SCHEMA_V2
        loaded = TrainingTrace.load(path)
        assert_frames_equal(loaded.frame(), trace.frame())
        assert loaded.records == trace.records

    def test_v1_file_loads_into_same_frame(self, tmp_path):
        trace = self.make_seq2seq_trace()
        v1 = tmp_path / "v1.json"
        v2 = tmp_path / "v2.json"
        dump_v1(trace, v1)
        trace.save(v2, version=2)
        assert read_json(v1)["schema"] == "repro.training-trace.v1"
        from_v1 = TrainingTrace.load(v1)
        from_v2 = TrainingTrace.load(v2)
        assert_frames_equal(from_v1.frame(), trace.frame())
        assert_frames_equal(from_v1.frame(), from_v2.frame())
        assert from_v1.records == trace.records

    def test_v1_compact_profiles(self, tmp_path):
        trace = self.make_seq2seq_trace()
        path = tmp_path / "v1.json"
        dump_v1(trace, path)
        assert len(TrainingTrace.load(path).frame().profiles) == 2

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        dump_json({"records": []}, path, "repro.training-trace.v99")
        with pytest.raises(TraceError, match="unknown trace schema"):
            TrainingTrace.load(path)

    def test_unknown_save_version_rejected(self, tmp_path):
        trace = make_trace([(10, 1.0)])
        with pytest.raises(TraceError, match="unknown trace format"):
            trace.save(tmp_path / "t.json", version=99)

    def test_v1_is_read_only(self, tmp_path):
        trace = make_trace([(10, 1.0)])
        with pytest.raises(TraceError, match="unknown trace format version 1"):
            trace.save(tmp_path / "t.json", version=1)
        assert not (tmp_path / "t.json").exists()

    def test_profile_sharing_survives_round_trip(self, tmp_path):
        trace = self.make_seq2seq_trace()
        path = tmp_path / "trace.json"
        trace.save(path, version=2)
        loaded = TrainingTrace.load(path)
        payload = read_json(path)
        assert len(payload["profiles"]) == 2
        assert payload["iterations"]["profile"] == [0, 1] * 3
        assert loaded.frame().time_s.tolist() == trace.frame().time_s.tolist()


class TestIterationProfile:
    def test_dedup_key_distinguishes_payloads(self):
        base = IterationProfile(
            launches=3,
            counters=CounterSet(valu_insts=1.0),
            group_times={"GEMM-1": 0.5},
            kernel_names=frozenset({"k"}),
        )
        same = IterationProfile(
            launches=3,
            counters=CounterSet(valu_insts=1.0),
            group_times={"GEMM-1": 0.5},
            kernel_names=frozenset({"k"}),
        )
        other = IterationProfile(
            launches=3,
            counters=CounterSet(valu_insts=2.0),
            group_times={"GEMM-1": 0.5},
            kernel_names=frozenset({"k"}),
        )
        assert base.dedup_key() == same.dedup_key()
        assert base.dedup_key() != other.dedup_key()
