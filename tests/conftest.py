"""Shared test fixtures.

``make_record``/``make_trace`` build synthetic traces so the core
methodology is testable without simulating a network; the device and
model fixtures cover the substrate tests.  Everything is deterministic.
"""

from __future__ import annotations

import pytest

from repro.hw.config import paper_config
from repro.hw.counters import CounterSet
from repro.hw.device import GpuDevice
from repro.train.frame import TraceFrame
from repro.train.trace import IterationRecord, TrainingTrace


@pytest.fixture(scope="session")
def device1() -> GpuDevice:
    """The baseline device (paper config #1)."""
    return GpuDevice(paper_config(1))


@pytest.fixture(scope="session")
def devices() -> dict[int, GpuDevice]:
    """All five Table II devices."""
    return {index: GpuDevice(paper_config(index)) for index in range(1, 6)}


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


def make_trace(
    seq_len_times: list[tuple[int, float]],
    model_name: str = "toy",
    config_name: str = "config#1",
    batch_size: int = 64,
) -> TrainingTrace:
    """A synthetic trace from (seq_len, time_s) pairs, in order."""
    trace = TrainingTrace(
        model_name=model_name,
        dataset_name="synthetic",
        config_name=config_name,
        batch_size=batch_size,
    )
    for index, (seq_len, time_s) in enumerate(seq_len_times):
        trace.records.append(make_record(index, seq_len, time_s))
    return trace


def with_time(frame: TraceFrame, row: int, time_s: float) -> TraceFrame:
    """``frame`` with one iteration's runtime replaced, profiles shared.

    Builds the frame directly, so it may hold a runtime that records
    and the group-by reject.
    """
    times = frame.time_s.copy()
    times[row] = time_s
    return TraceFrame(
        model_name=frame.model_name,
        dataset_name=frame.dataset_name,
        config_name=frame.config_name,
        batch_size=frame.batch_size,
        index=frame.index,
        epoch=frame.epoch,
        seq_len=frame.seq_len,
        tgt_len=frame.tgt_len,
        time_s=times,
        profile_id=frame.profile_id,
        profiles=frame.profiles,
    )


@pytest.fixture
def linear_trace() -> TrainingTrace:
    """Iterations whose runtime is exactly linear in SL (10..100)."""
    pairs = []
    for seq_len in range(10, 101, 10):
        for _ in range(5):
            pairs.append((seq_len, 0.01 * seq_len + 0.1))
    return make_trace(pairs)
