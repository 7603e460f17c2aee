"""Training-run simulator: epochs, autotune phase, evaluation phase.

Drives the iteration executor over a batching plan to produce a
:class:`~repro.train.trace.TrainingTrace`.  Reproduces the two
non-training phases the paper discusses and excludes from its
representative runs: the framework *autotune* pass (charged once per
new GEMM shape — expensive in the first epoch, free afterwards) and
the end-of-epoch *evaluation* pass (forward-only on a held-out set,
empirically 2-3% of epoch time).

An epoch is *shape-memoized and columnar*: per Key Observation 4,
every iteration with the same padded ``(batch, seq_len, tgt_len)``
shape performs identical work, so an epoch walks the kernel schedule
once per unique shape — O(unique SLs) — and broadcasts the results
into a :class:`~repro.train.frame.TraceFrame` with vectorized column
operations.  Autotune charging follows first appearances (a repeat
charge is exactly ``0.0``) and per-iteration log-normal noise is
applied on top, so the trace is bit-identical to a per-iteration loop
over the epoch.  That loop, with per-invocation measurement and the
scalar autotune candidate race, is kept as test code
(``tests/reference.py``) and compared against in
tests/test_plan_equivalence.py and tests/test_columnar_equivalence.py.

Optional multiplicative log-normal noise models run-to-run measurement
jitter on real hardware; it is off by default so tests are exact.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import BatchingPolicy
from repro.data.dataset import SequenceDataset
from repro.errors import ConfigurationError
from repro.hw.device import GpuDevice
from repro.kernels.autotune import Autotuner
from repro.models.spec import IterationInputs, Model
from repro.train.frame import NO_TGT, TraceFrame, dedupe_shapes
from repro.train.iteration import DEFAULT_HOST_OVERHEAD_S, IterationExecutor
from repro.train.trace import TrainingTrace
from repro.util.rng import derive_seed, make_rng
from repro.util.stats import sequential_sum

__all__ = ["TrainingRunSimulator", "memoized_shape_walk"]


def memoized_shape_walk(
    seq_len: np.ndarray,
    tgt_len: np.ndarray,
    batch: int,
    run_unique,
    on_result=None,
):
    """Walk unique ``(seq_len, tgt_len)`` shapes in first-appearance order.

    The shared core of shape-memoized simulation (training and
    inference): ``run_unique`` executes every unique shape's
    :class:`IterationInputs` in one call (see
    :meth:`~repro.train.iteration.IterationExecutor.run_unique`) and
    returns one :class:`~repro.train.iteration.IterationResult` each;
    ``on_result`` (optional) observes each unique shape's inputs and
    result in epoch order — the autotune-charging hook.  Returns
    ``(time_s, profile_id, profiles)`` with the per-shape runtimes
    already broadcast to every iteration; the pool holds each result's
    own shared :attr:`~repro.train.iteration.IterationResult.profile`.
    """
    first_iterations, profile_id = dedupe_shapes(seq_len, tgt_len)
    shapes = [
        IterationInputs(
            batch=batch,
            seq_len=int(seq_len[iteration]),
            tgt_len=(
                None
                if tgt_len[iteration] == NO_TGT
                else int(tgt_len[iteration])
            ),
        )
        for iteration in first_iterations
    ]
    results = run_unique(shapes)
    base_time = np.fromiter(
        (result.time_s for result in results), np.float64, len(results)
    )
    if on_result is not None:
        for inputs, result in zip(shapes, results):
            on_result(inputs, result)
    profiles = tuple(result.profile for result in results)
    return base_time[profile_id], profile_id, profiles


class TrainingRunSimulator:
    """Simulates training epochs of one model/dataset/device triple."""

    def __init__(
        self,
        model: Model,
        dataset: SequenceDataset,
        batching: BatchingPolicy,
        device: GpuDevice,
        eval_dataset: SequenceDataset | None = None,
        host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S,
        noise_sigma: float = 0.0,
        seed: int = 0,
        noise_seed: int | None = None,
    ):
        if noise_sigma < 0:
            raise ConfigurationError("noise_sigma cannot be negative")
        self.model = model
        self.dataset = dataset
        self.batching = batching
        self.device = device
        self.eval_dataset = eval_dataset
        self.noise_sigma = noise_sigma
        self.seed = seed
        # Measurement jitter is a property of the physical run, not of
        # the data order: it gets its own seed so two runs of the same
        # epoch plan on different hardware have independent noise.
        self.noise_seed = seed if noise_seed is None else noise_seed
        self.executor = IterationExecutor(model, device, host_overhead_s)
        self._autotuner = Autotuner(device.config)
        # Iteration shapes whose GEMM shapes have all been charged:
        # re-charging would contribute exactly 0.0, so an epoch skips
        # the whole charge loop for them.
        self._autotune_settled: set[tuple[int, int, int | None]] = set()

    def _noise(self, epoch: int, index: int) -> float:
        if self.noise_sigma == 0.0:
            return 1.0
        rng = make_rng(derive_seed(self.noise_seed, "noise", epoch, index))
        return float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    def _noise_column(self, epoch: int, count: int) -> np.ndarray | None:
        """Per-iteration jitter factors for one epoch (None when off)."""
        if self.noise_sigma == 0.0:
            return None
        return np.fromiter(
            (self._noise(epoch, index) for index in range(count)),
            dtype=np.float64,
            count=count,
        )

    def _eval_phase_time(self, epoch: int = 0) -> float:
        """Evaluation-pass time after ``epoch``.

        The eval plan follows the batching policy at the epoch being
        simulated: policies whose order is epoch-dependent (shuffled,
        SortaGrad after epoch 0) regroup the held-out set each epoch,
        which changes batch padding and therefore eval time.
        """
        if self.eval_dataset is None:
            return 0.0
        plan = self.batching.plan_epoch(
            self.eval_dataset, epoch=epoch, seed=self.seed, drop_last=False
        )
        return sequential_sum(
            result.time_s
            for result in self.executor.run_unique(plan, "forward")
        )

    def run_training(
        self, epochs: int, include_eval: bool = True
    ) -> list[TrainingTrace]:
        """Simulate several epochs (paper Fig 2's training-run structure).

        The autotune phase is charged only where shapes first appear —
        almost entirely in epoch 0 — and every epoch gets its own
        evaluation pass, as real training loops do.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        return [
            self.run_epoch(epoch=epoch, include_eval=include_eval)
            for epoch in range(epochs)
        ]

    def run_epoch(self, epoch: int = 0, include_eval: bool = True) -> TrainingTrace:
        """Simulate one epoch and return its trace (a view over
        :meth:`run_epoch_frame`)."""
        return TrainingTrace.from_frame(self.run_epoch_frame(epoch, include_eval))

    def run_epoch_frame(
        self, epoch: int = 0, include_eval: bool = True
    ) -> TraceFrame:
        """Simulate one epoch directly into a columnar frame.

        Kernel walks happen once per unique ``(seq_len, tgt_len)``
        shape, in first-appearance order so autotune charges accrue in
        epoch order; runtimes are broadcast back to all iterations and
        noised per iteration.
        """
        seq_len, tgt_len = self.batching.plan_epoch_columns(
            self.dataset, epoch=epoch, seed=self.seed
        )
        count = int(seq_len.size)
        if count == 0:
            raise ConfigurationError(
                f"{self.dataset.name}: dataset too small for one "
                f"batch of {self.batching.batch_size}"
            )
        autotune_s = 0.0

        def charge_autotune(inputs: IterationInputs, result) -> None:
            nonlocal autotune_s
            shape_key = (inputs.batch, inputs.seq_len, inputs.tgt_len)
            if shape_key not in self._autotune_settled:
                for shape in result.gemm_shapes:
                    autotune_s += self._autotuner.charge(*shape)
                self._autotune_settled.add(shape_key)

        batch = self.batching.batch_size
        time_s, profile_id, profiles = memoized_shape_walk(
            seq_len, tgt_len, batch, self.executor.run_unique, charge_autotune
        )
        noise = self._noise_column(epoch, count)
        if noise is not None:
            time_s = time_s * noise
        return TraceFrame(
            model_name=self.model.name,
            dataset_name=self.dataset.name,
            config_name=self.device.config.name,
            batch_size=batch,
            index=np.arange(count, dtype=np.int64),
            epoch=np.full(count, epoch, dtype=np.int64),
            seq_len=seq_len,
            tgt_len=tgt_len,
            time_s=time_s,
            profile_id=profile_id,
            profiles=profiles,
            autotune_s=autotune_s,
            eval_s=self._eval_phase_time(epoch) if include_eval else 0.0,
        )

    def measure_seq_len(self, seq_len: int, tgt_len: int | None = None) -> float:
        """Runtime of a single iteration at ``seq_len`` on this device.

        This is the "profile only the SeqPoints" primitive: after
        identification, each selected SL is executed once per candidate
        hardware configuration.
        """
        inputs = IterationInputs(
            batch=self.batching.batch_size, seq_len=seq_len, tgt_len=tgt_len
        )
        return self.executor.run(inputs).time_s
