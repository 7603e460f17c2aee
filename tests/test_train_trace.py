"""Unit tests for repro.train.trace."""

import math

import pytest

from repro.errors import TraceError
from repro.train.trace import TrainingTrace
from tests.conftest import make_record, make_trace


class TestIterationRecord:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(TraceError, match=r"^iteration 4: non-finite time"):
            make_record(4, 10, bad)


class TestTrainingTrace:
    def test_total_time(self):
        trace = make_trace([(10, 1.0), (20, 2.0), (10, 1.5)])
        assert trace.total_time_s == pytest.approx(4.5)

    def test_wall_time_includes_phases(self):
        trace = make_trace([(10, 1.0)], autotune_s=3.0, eval_s=0.5)
        assert trace.wall_time_s == pytest.approx(4.5)

    def test_throughput(self):
        trace = make_trace([(10, 1.0), (20, 1.0)], batch_size=32)
        assert trace.throughput == pytest.approx(64 / 2.0)

    def test_unique_seq_lens_sorted(self):
        trace = make_trace([(30, 1.0), (10, 1.0), (30, 1.0)])
        assert trace.unique_seq_lens() == [10, 30]

    def test_iteration_histogram(self):
        trace = make_trace([(10, 1.0), (10, 1.0), (20, 1.0)])
        assert trace.iteration_histogram() == {10: 2, 20: 1}

    def test_records_for_seq_len(self):
        trace = make_trace([(10, 1.0), (20, 2.0), (10, 3.0)])
        assert len(trace.records_for_seq_len(10)) == 2

    def test_empty_throughput_raises(self):
        trace = make_trace([])
        with pytest.raises(TraceError):
            trace.throughput

    def test_trace_is_read_only(self):
        trace = make_trace([(10, 1.0), (20, 2.0)])
        for name in ("autotune_s", "eval_s", "model_name", "batch_size"):
            with pytest.raises(AttributeError):
                setattr(trace, name, 1.0)
        assert trace.frame().seq_len.tolist() == [10, 20]
        assert trace.autotune_s == 0.0

    def test_non_positive_time_rejected(self):
        with pytest.raises(TraceError):
            make_record(0, 10, 0.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trace = make_trace([(10, 1.0), (20, 2.0)], autotune_s=1.25, eval_s=0.75)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = TrainingTrace.load(path)
        assert loaded.model_name == trace.model_name
        assert loaded.total_time_s == pytest.approx(trace.total_time_s)
        assert loaded.autotune_s == 1.25
        assert loaded.eval_s == 0.75
        assert loaded.unique_seq_lens() == trace.unique_seq_lens()

    def test_round_trip_preserves_counters_and_kernels(self, tmp_path):
        trace = make_trace([(10, 1.0)])
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = TrainingTrace.load(path)
        original = trace.records[0]
        restored = loaded.records[0]
        assert restored.counters == original.counters
        assert restored.kernel_names == original.kernel_names
        assert restored.group_times == original.group_times
