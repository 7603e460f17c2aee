"""Binary columnar storage: the .npt container and the v3 trace format.

Covers the container layer (alignment, zero-copy read-only views,
malformed-file rejection), the v3 trace round trip (bit-identical to
the v2 JSON load across synthetic and simulated golden fixtures), and
the mmap lifecycle (frames outlive deletion of their backing file).
"""

import json

import numpy as np
import pytest

from repro.errors import StorageError, TraceError
from repro.train.frame import SCHEMA_V3, TraceFrame
from repro.train.trace import TrainingTrace
from repro.util.npt import MAGIC, ColumnStore, is_npt, write_columns

from tests.conftest import dump_v1, make_record, make_trace, trace_of


class TestContainer:
    def test_round_trip_preserves_dtypes_shapes_values(self, tmp_path):
        path = tmp_path / "t.npt"
        columns = [
            ("ints", np.arange(7, dtype=np.int64)),
            ("floats", np.linspace(0.0, 1.0, 5)),
            ("matrix", np.arange(12, dtype=np.float64).reshape(3, 4)),
            ("empty", np.empty(0, dtype=np.int64)),
        ]
        write_columns(path, "test.schema.v1", {"note": "hi"}, columns)
        store = ColumnStore(path)
        assert store.schema == "test.schema.v1"
        assert store.meta == {"note": "hi"}
        assert store.column_names() == ("ints", "floats", "matrix", "empty")
        for name, array in columns:
            loaded = store.column(name)
            assert loaded.dtype == array.dtype
            assert loaded.shape == array.shape
            assert np.array_equal(loaded, array)

    def test_blobs_are_64_byte_aligned(self, tmp_path):
        path = tmp_path / "t.npt"
        write_columns(
            path,
            "s",
            {},
            [("a", np.arange(3, dtype=np.int64)), ("b", np.arange(5.0))],
        )
        store = ColumnStore(path)
        for name in ("a", "b"):
            descriptor = store._columns[name]
            assert (store._data_start + descriptor["offset"]) % 64 == 0

    def test_views_are_zero_copy_and_read_only(self, tmp_path):
        path = tmp_path / "t.npt"
        write_columns(path, "s", {}, [("a", np.arange(4, dtype=np.int64))])
        store = ColumnStore(path)
        column = store.column("a")
        assert column.base is not None  # a view, not an owning copy
        with pytest.raises(ValueError):
            column[0] = 99

    def test_is_npt_sniffs_magic(self, tmp_path):
        binary = tmp_path / "t.npt"
        write_columns(binary, "s", {}, [("a", np.zeros(1))])
        assert is_npt(binary)
        text = tmp_path / "t.json"
        text.write_text("{}")
        assert not is_npt(text)
        assert not is_npt(tmp_path / "missing.npt")

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        write_columns(path, "s", {}, [("a", np.zeros(1))])
        with pytest.raises(StorageError, match="no column 'b'"):
            ColumnStore(path).column("b")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        path.touch()
        with pytest.raises(StorageError, match="empty"):
            ColumnStore(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        path.write_bytes(b"NOTANPT!" + b"\x00" * 64)
        with pytest.raises(StorageError, match="bad magic"):
            ColumnStore(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        path.write_bytes(MAGIC + (2**32).to_bytes(8, "little"))
        with pytest.raises(StorageError, match="truncated header"):
            ColumnStore(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        write_columns(path, "s", {}, [("a", np.arange(64, dtype=np.int64))])
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 16])
        with pytest.raises(StorageError, match="past end of file"):
            ColumnStore(path)


def seq2seq_trace() -> TrainingTrace:
    return trace_of(
        [
            make_record(0, 10, 1.0, tgt_len=8),
            make_record(1, 20, 2.0, group_times={"GEMM-2": 0.25, "GEMM-1": 1.5}),
            make_record(2, 10, 1.0, tgt_len=8),
        ],
        model_name="m",
        dataset_name="d",
        config_name="c",
        batch_size=32,
        autotune_s=1.25,
        eval_s=0.75,
    )


def payload_of(trace: TrainingTrace) -> str:
    return json.dumps(trace.frame().to_payload(), sort_keys=True)


class TestTraceV3:
    def test_default_save_is_binary(self, tmp_path):
        path = tmp_path / "t.npt"
        seq2seq_trace().save(path)
        assert is_npt(path)
        assert ColumnStore(path).schema == SCHEMA_V3

    def test_round_trip_bit_identity(self, tmp_path):
        trace = seq2seq_trace()
        path = tmp_path / "t.npt"
        trace.save(path)
        loaded = TrainingTrace.load(path)
        assert payload_of(loaded) == payload_of(trace)
        assert loaded.records == trace.records

    def test_all_versions_load_bit_identically(self, tmp_path):
        trace = seq2seq_trace()
        expected = payload_of(trace)
        dump_v1(trace, tmp_path / "v1.json")
        trace.save(tmp_path / "v2.json", version=2)
        trace.save(tmp_path / "v3.npt", version=3)
        for name in ("v1.json", "v2.json", "v3.npt"):
            assert payload_of(TrainingTrace.load(tmp_path / name)) == expected

    def test_no_tgt_sentinel_survives(self, tmp_path):
        trace = make_trace([(10, 1.0), (20, 2.0)])
        path = tmp_path / "t.npt"
        trace.save(path)
        loaded = TrainingTrace.load(path)
        assert [r.tgt_len for r in loaded.records] == [None, None]

    def test_profile_pool_stays_interned(self, tmp_path):
        trace = seq2seq_trace()
        path = tmp_path / "t.npt"
        trace.save(path)
        frame = TraceFrame.load(path)
        assert len(frame.profiles) == 2
        assert frame.profile_id.tolist() == [0, 1, 0]

    def test_columns_view_the_container(self, tmp_path):
        path = tmp_path / "t.npt"
        seq2seq_trace().save(path)
        frame = TraceFrame.load(path)
        assert frame.storage is not None
        assert frame.storage.nbytes == path.stat().st_size
        for name in ("index", "epoch", "seq_len", "tgt_len", "time_s"):
            assert getattr(frame, name).base is not None

    def test_cold_load_defers_profile_pool(self, tmp_path):
        path = tmp_path / "t.npt"
        seq2seq_trace().save(path)
        frame = TraceFrame.load(path)
        # A cold load builds no per-row or per-profile Python objects;
        # the pool materialises (once) on first touch.
        assert callable(frame._profiles)
        assert len(frame.profiles) == 2
        assert not callable(frame._profiles)
        assert frame.profiles is frame.profiles

    def test_with_phases_keeps_storage(self, tmp_path):
        path = tmp_path / "t.npt"
        seq2seq_trace().save(path)
        frame = TraceFrame.load(path)
        assert frame.with_phases(9.0, 9.0).storage is frame.storage

    def test_frame_outlives_backing_file_deletion(self, tmp_path):
        trace = seq2seq_trace()
        path = tmp_path / "t.npt"
        trace.save(path)
        frame = TraceFrame.load(path)
        path.unlink()  # POSIX: the mapping pins the pages
        assert json.dumps(frame.to_payload(), sort_keys=True) == payload_of(trace)

    def test_unknown_binary_schema_rejected(self, tmp_path):
        path = tmp_path / "t.npt"
        write_columns(path, "repro.training-trace.v99", {}, [("a", np.zeros(1))])
        with pytest.raises(TraceError, match="unknown binary trace schema"):
            TraceFrame.load(path)

    def test_unknown_save_version_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="unknown trace format"):
            seq2seq_trace().frame().save(tmp_path / "t.npt", version=99)


class TestGoldenFixtures:
    """Simulated epochs round-trip bit-identically across every format."""

    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    def test_simulated_epoch_bit_identity(self, network, tmp_path):
        from repro.api.engine import AnalysisEngine
        from repro.api.spec import AnalysisSpec

        engine = AnalysisEngine()
        trace = engine.trace_for(AnalysisSpec(network=network, scale=0.02))
        expected = payload_of(trace)
        v2 = tmp_path / "t.json"
        v3 = tmp_path / "t.npt"
        trace.save(v2, version=2)
        trace.save(v3)
        assert payload_of(TrainingTrace.load(v2)) == expected
        assert payload_of(TrainingTrace.load(v3)) == expected
