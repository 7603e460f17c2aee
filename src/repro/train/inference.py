"""Inference-run simulation (paper §VII-E).

The paper notes its insight carries to inference: sequence length
dictates per-request work there too, so binning SLs also characterises
serving runs.  :class:`InferenceRunSimulator` replays a request stream
(forward passes only, typically at small batch) and emits the same
:class:`~repro.train.trace.TrainingTrace` structure, so the entire
SeqPoint pipeline — selection, baselines, projection — applies to
inference without modification.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import BatchingPolicy
from repro.data.dataset import SequenceDataset
from repro.errors import ConfigurationError
from repro.hw.device import GpuDevice
from repro.models.spec import IterationInputs, Model
from repro.train.frame import TraceFrame
from repro.train.iteration import IterationExecutor
from repro.train.runner import memoized_shape_walk
from repro.train.trace import IterationRecord, TrainingTrace
from repro.util.rng import derive_seed, make_rng

__all__ = ["InferenceRunSimulator"]

#: Serving dispatch is lighter than a training step's input pipeline.
DEFAULT_SERVING_OVERHEAD_S = 2e-3


class InferenceRunSimulator:
    """Simulates forward-only request processing of one model."""

    def __init__(
        self,
        model: Model,
        dataset: SequenceDataset,
        batching: BatchingPolicy,
        device: GpuDevice,
        host_overhead_s: float = DEFAULT_SERVING_OVERHEAD_S,
        noise_sigma: float = 0.0,
        seed: int = 0,
        batched: bool = True,
    ):
        if noise_sigma < 0:
            raise ConfigurationError("noise_sigma cannot be negative")
        self.model = model
        self.dataset = dataset
        self.batching = batching
        self.device = device
        self.noise_sigma = noise_sigma
        self.seed = seed
        # ``batched=False`` keeps the scalar per-invocation reference
        # measurement path (bit-identical; for equivalence tests).
        self.executor = IterationExecutor(
            model, device, host_overhead_s, batched=batched
        )

    def _noise(self, index: int) -> float:
        if self.noise_sigma == 0.0:
            return 1.0
        rng = make_rng(derive_seed(self.seed, "inference-noise", index))
        return float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    def run_pass(
        self, epoch: int = 0, *, columnar: bool = True
    ) -> TrainingTrace:
        """One pass over the request set; returns an inference trace.

        Characterisation uses full batches (serving replicates a fixed
        batch size); when the request set is smaller than one batch the
        ragged remainder is kept so tiny sets still produce a trace.

        Like :meth:`TrainingRunSimulator.run_epoch`, the default path
        walks kernels once per unique shape and broadcasts into a
        columnar frame; ``columnar=False`` keeps the bit-identical
        per-request reference loop.
        """
        if columnar:
            seq_len, tgt_len = self.batching.plan_epoch_columns(
                self.dataset, epoch=epoch, seed=self.seed
            )
            if seq_len.size:
                return TrainingTrace.from_frame(
                    self._run_pass_frame(epoch, seq_len, tgt_len)
                )
            # Request set smaller than one batch: fall through to the
            # ragged-remainder path below.
        plan = self.batching.plan_epoch(
            self.dataset, epoch=epoch, seed=self.seed, drop_last=True
        )
        if not plan:
            plan = self.batching.plan_epoch(
                self.dataset, epoch=epoch, seed=self.seed, drop_last=False
            )
        if not plan:
            raise ConfigurationError(f"{self.dataset.name}: no requests to serve")
        trace = TrainingTrace(
            model_name=f"{self.model.name}-inference",
            dataset_name=self.dataset.name,
            config_name=self.device.config.name,
            batch_size=self.batching.batch_size,
        )
        for index, inputs in enumerate(plan):
            result = self.executor.run_forward(inputs)
            trace.records.append(
                IterationRecord(
                    index=index,
                    epoch=epoch,
                    seq_len=inputs.seq_len,
                    tgt_len=inputs.tgt_len,
                    time_s=result.time_s * self._noise(index),
                    launches=result.launches,
                    counters=result.counters,
                    group_times=result.group_times,
                    kernel_names=result.kernel_names,
                )
            )
        return trace

    def _run_pass_frame(
        self, epoch: int, seq_len: np.ndarray, tgt_len: np.ndarray
    ) -> TraceFrame:
        """Shape-memoized columnar pass over full request batches."""
        count = int(seq_len.size)
        time_s, profile_id, profiles = memoized_shape_walk(
            seq_len, tgt_len, self.batching.batch_size,
            lambda shapes: self.executor.run_unique(shapes, "forward"),
        )
        if self.noise_sigma:
            time_s = time_s * np.fromiter(
                (self._noise(index) for index in range(count)),
                dtype=np.float64,
                count=count,
            )
        return TraceFrame(
            model_name=f"{self.model.name}-inference",
            dataset_name=self.dataset.name,
            config_name=self.device.config.name,
            batch_size=self.batching.batch_size,
            index=np.arange(count, dtype=np.int64),
            epoch=np.full(count, epoch, dtype=np.int64),
            seq_len=seq_len,
            tgt_len=tgt_len,
            time_s=time_s,
            profile_id=profile_id,
            profiles=tuple(profiles),
        )

    def measure_seq_len(self, seq_len: int, tgt_len: int | None = None) -> float:
        """Forward latency of one batch at ``seq_len`` on this device."""
        inputs = IterationInputs(
            batch=self.batching.batch_size, seq_len=seq_len, tgt_len=tgt_len
        )
        return self.executor.run_forward(inputs).time_s
