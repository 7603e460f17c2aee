"""Shared test fixtures.

``make_record``/``make_trace`` build synthetic traces so the core
methodology is testable without simulating a network; every trace
built from records goes through ``trace_of``, and every feed chunk of
records through ``chunk_of``.  The device and model fixtures cover the
substrate tests, and ``one_row`` runs their one-kernel cases through
the batch timing model.  Everything is deterministic.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.hw.cache import MemoryTrafficBatch
from repro.hw.config import paper_config
from repro.hw.counters import CounterSet
from repro.hw.device import BatchMeasurement, GpuDevice
from repro.hw.timing import WorkBatch, WorkProfile
from repro.models.gnmt import GnmtModel
from repro.stream.feed import FrameSlice
from repro.train.frame import SCHEMA_V1, TraceFrame
from repro.train.trace import IterationRecord, TrainingTrace
from repro.util.serialize import dump_json


@pytest.fixture(scope="session")
def device1() -> GpuDevice:
    """The baseline device (paper config #1)."""
    return GpuDevice(paper_config(1))


@pytest.fixture(scope="session")
def devices() -> dict[int, GpuDevice]:
    """All five Table II devices."""
    return {index: GpuDevice(paper_config(index)) for index in range(1, 6)}


def one_row(column_form, profile, *config):
    """``profile`` alone through a column form of the batch timing model,
    read back as the scalar oracle's types (``tests/reference.py``).

    A ``WorkProfile`` goes to a device's ``run_batch``, or to
    ``time_work_batch`` with a config, and comes back as a
    ``Measurement``.  A ``ComputeProfile`` or ``TrafficProfile`` goes to
    a column function of ``repro.hw.compute`` or ``repro.hw.cache``,
    each parameter before ``config`` being the profile's field of that
    name, and comes back as a float or a ``MemoryTraffic``.
    """
    from tests import reference  # reference imports this module

    if isinstance(profile, WorkProfile):
        result = column_form(WorkBatch.from_profiles([profile]), *config)
        if isinstance(result, tuple):
            result = BatchMeasurement(*result)
        return reference.measurement_row(result, 0)
    names = list(inspect.signature(column_form).parameters)[:-1]
    result = column_form(*(np.array([float(getattr(profile, n))]) for n in names), *config)
    if isinstance(result, MemoryTrafficBatch):
        return reference.traffic_row(result, 0)
    return float(result[0])


def make_record(
    index: int,
    seq_len: int,
    time_s: float,
    tgt_len: int | None = None,
    epoch: int = 0,
    group_times: dict[str, float] | None = None,
    kernel_names: frozenset[str] = frozenset({"k"}),
) -> IterationRecord:
    """A minimal synthetic iteration record."""
    return IterationRecord(
        index=index,
        epoch=epoch,
        seq_len=seq_len,
        tgt_len=tgt_len,
        time_s=time_s,
        launches=1,
        counters=CounterSet(busy_cycles=time_s * 1.6e9),
        group_times=group_times if group_times is not None else {"GEMM-1": time_s},
        kernel_names=kernel_names,
    )


def trace_of(
    records,
    model_name: str = "toy",
    dataset_name: str = "synthetic",
    config_name: str = "config#1",
    batch_size: int = 64,
    autotune_s: float = 0.0,
    eval_s: float = 0.0,
) -> TrainingTrace:
    """A trace of ``records``, in order: the one way tests turn rows
    into a trace (columnarised once, read-only afterwards)."""
    return TrainingTrace(
        model_name=model_name,
        dataset_name=dataset_name,
        config_name=config_name,
        batch_size=batch_size,
        records=records,
        autotune_s=autotune_s,
        eval_s=eval_s,
    )


def make_trace(
    seq_len_times: list[tuple[int, float]],
    model_name: str = "toy",
    config_name: str = "config#1",
    batch_size: int = 64,
    autotune_s: float = 0.0,
    eval_s: float = 0.0,
) -> TrainingTrace:
    """A synthetic trace from (seq_len, time_s) pairs, in order."""
    return trace_of(
        [
            make_record(index, seq_len, time_s)
            for index, (seq_len, time_s) in enumerate(seq_len_times)
        ],
        model_name=model_name,
        config_name=config_name,
        batch_size=batch_size,
        autotune_s=autotune_s,
        eval_s=eval_s,
    )


def chunk_of(records) -> FrameSlice:
    """A feed chunk of ``records``: one frame of their own, whole —
    the shape of a live producer's upload."""
    frame = trace_of(records).frame()
    return FrameSlice(frame, 0, len(frame))


def dump_v1(trace: TrainingTrace, path) -> None:
    """Write ``trace`` as a legacy row-oriented v1 document.

    The library reads v1 but no longer writes it; tests write it here
    to check the reader.
    """
    payload = {
        "model_name": trace.model_name,
        "dataset_name": trace.dataset_name,
        "config_name": trace.config_name,
        "batch_size": trace.batch_size,
        "autotune_s": trace.autotune_s,
        "eval_s": trace.eval_s,
        "records": [
            {
                "index": r.index,
                "epoch": r.epoch,
                "seq_len": r.seq_len,
                "tgt_len": r.tgt_len,
                "time_s": r.time_s,
                "launches": r.launches,
                "counters": r.counters.as_dict(),
                "group_times": r.group_times,
                "kernel_names": sorted(r.kernel_names),
            }
            for r in trace.records
        ],
    }
    dump_json(payload, path, SCHEMA_V1)


def with_time(frame: TraceFrame, row: int, time_s: float) -> TraceFrame:
    """``frame`` with one iteration's runtime replaced, profiles shared.

    Builds a valid copy of the frame, then writes ``time_s`` into its
    time column in place, past the constructor's checks, so it may hold
    a runtime that the constructor, records and the group-by reject.
    """
    edited = TraceFrame(
        model_name=frame.model_name,
        dataset_name=frame.dataset_name,
        config_name=frame.config_name,
        batch_size=frame.batch_size,
        index=frame.index,
        epoch=frame.epoch,
        seq_len=frame.seq_len,
        tgt_len=frame.tgt_len,
        time_s=frame.time_s.copy(),
        profile_id=frame.profile_id,
        profiles=frame.profiles,
    )
    edited.time_s[row] = time_s
    return edited


class CountingDevice(GpuDevice):
    """A device that counts its ``run_batch`` calls, the only way the
    library times kernels."""

    def __init__(self, config):
        super().__init__(config)
        self.batches = 0

    def run_batch(self, work):
        self.batches += 1
        return super().run_batch(work)


class CountingGnmt(GnmtModel):
    """GNMT that counts its lowerings (``lower_iteration`` lowers
    through ``lower_forward``, so one count per lowered pass)."""

    lowered = 0

    def lower_forward(self, inputs, config):
        self.lowered += 1
        return super().lower_forward(inputs, config)


@pytest.fixture
def linear_trace() -> TrainingTrace:
    """Iterations whose runtime is exactly linear in SL (10..100)."""
    pairs = []
    for seq_len in range(10, 101, 10):
        for _ in range(5):
            pairs.append((seq_len, 0.01 * seq_len + 0.1))
    return make_trace(pairs)
