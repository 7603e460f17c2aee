"""Inference-run simulation (paper §VII-E).

The paper notes its insight carries to inference: sequence length
dictates per-request work there too, so binning SLs also characterises
serving runs.  :class:`InferenceRunSimulator` replays a request stream
(forward passes only, typically at small batch) and emits the same
:class:`~repro.train.trace.TrainingTrace` structure, so the entire
SeqPoint pipeline — selection, baselines, projection — applies to
inference without modification.

A pass walks kernels once per unique request-batch shape and
broadcasts into a columnar frame, exactly as a training epoch does
(:func:`~repro.train.runner.memoized_shape_walk`).  The per-request
loop it replaced is kept as test code (``tests/reference.py``) and
compared against bit for bit in tests/test_columnar_equivalence.py and
tests/test_plan_equivalence.py, including the ragged single-batch case.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import BatchingPolicy
from repro.data.dataset import SequenceDataset
from repro.errors import ConfigurationError
from repro.hw.device import GpuDevice
from repro.models.spec import IterationInputs, Model
from repro.train.frame import NO_TGT, TraceFrame
from repro.train.iteration import IterationExecutor
from repro.train.runner import memoized_shape_walk
from repro.train.trace import TrainingTrace
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
    ):
        if noise_sigma < 0:
            raise ConfigurationError("noise_sigma cannot be negative")
        self.model = model
        self.dataset = dataset
        self.batching = batching
        self.device = device
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.executor = IterationExecutor(model, device, host_overhead_s)

    def _noise(self, index: int) -> float:
        if self.noise_sigma == 0.0:
            return 1.0
        rng = make_rng(derive_seed(self.seed, "inference-noise", index))
        return float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    def run_pass(self, epoch: int = 0) -> TrainingTrace:
        """One pass over the request set; returns an inference trace.

        Characterisation uses full batches (serving replicates a fixed
        batch size); when the request set is smaller than one batch it
        is served as one ragged batch at its actual size, so tiny sets
        still produce a trace.
        """
        seq_len, tgt_len = self.batching.plan_epoch_columns(
            self.dataset, epoch=epoch, seed=self.seed
        )
        batch = self.batching.batch_size
        if not seq_len.size:
            plan = self.batching.plan_epoch(
                self.dataset, epoch=epoch, seed=self.seed, drop_last=False
            )
            if not plan:
                raise ConfigurationError(
                    f"{self.dataset.name}: no requests to serve"
                )
            (ragged,) = plan
            batch = ragged.batch
            seq_len = np.array([ragged.seq_len], dtype=np.int64)
            tgt_len = np.array(
                [NO_TGT if ragged.tgt_len is None else ragged.tgt_len],
                dtype=np.int64,
            )
        count = int(seq_len.size)
        time_s, profile_id, profiles = memoized_shape_walk(
            seq_len, tgt_len, batch,
            lambda shapes: self.executor.run_unique(shapes, "forward"),
        )
        if self.noise_sigma:
            time_s = time_s * np.fromiter(
                (self._noise(index) for index in range(count)),
                dtype=np.float64,
                count=count,
            )
        return TrainingTrace.from_frame(
            TraceFrame(
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
                profiles=profiles,
            )
        )

    def measure_seq_len(self, seq_len: int, tgt_len: int | None = None) -> float:
        """Forward latency of one batch at ``seq_len`` on this device."""
        inputs = IterationInputs(
            batch=self.batching.batch_size, seq_len=seq_len, tgt_len=tgt_len
        )
        return self.executor.run_forward(inputs).time_s
