"""Fig 3: CNN iterations are homogeneous, SQNN iterations are not.

Regenerates the paper's opening contrast: consecutive training
iterations of a fixed-input CNN take identical time, while GNMT's vary
with each batch's sequence length.  Times are normalised to each
network's mean iteration.
"""

from __future__ import annotations

from repro.data.batching import ShuffledBatching
from repro.experiments.base import ExperimentResult
from repro.experiments.setups import BATCH_SIZE, scenario
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.cnn import build_cnn
from repro.train.runner import TrainingRunSimulator
from repro.util.stats import mean

__all__ = ["run"]

_ITERATIONS = 12


def run(scale: float = 1.0) -> ExperimentResult:
    device = GpuDevice(paper_config(1))

    gnmt_setup = scenario("gnmt", scale)
    gnmt_runner = TrainingRunSimulator(
        gnmt_setup.model,
        gnmt_setup.train_data,
        ShuffledBatching(BATCH_SIZE),
        device,
    )
    gnmt_trace = gnmt_runner.run_epoch(include_eval=False)

    # The CNN consumes the same batches; its lowering ignores lengths.
    cnn_runner = TrainingRunSimulator(
        build_cnn(),
        gnmt_setup.train_data,
        ShuffledBatching(BATCH_SIZE),
        device,
    )
    cnn_trace = cnn_runner.run_epoch(include_eval=False)

    count = min(_ITERATIONS, len(gnmt_trace), len(cnn_trace))
    gnmt_times = gnmt_trace.frame().time_s[:count].tolist()
    cnn_times = cnn_trace.frame().time_s[:count].tolist()
    gnmt_mean = mean(gnmt_times)
    cnn_mean = mean(cnn_times)

    rows = [
        [i + 1, round(cnn_times[i] / cnn_mean, 4), round(gnmt_times[i] / gnmt_mean, 4)]
        for i in range(count)
    ]
    cnn_spread = (max(cnn_times) - min(cnn_times)) / cnn_mean * 100
    rnn_spread = (max(gnmt_times) - min(gnmt_times)) / gnmt_mean * 100
    return ExperimentResult(
        experiment_id="fig03",
        title="CNN vs SQNN normalized iteration times",
        headers=["iteration", "cnn", "rnn"],
        rows=rows,
        notes=[
            f"CNN iteration-time spread: {cnn_spread:.2f}% of mean",
            f"RNN (GNMT) iteration-time spread: {rnn_spread:.1f}% of mean",
            "paper: CNN flat, RNN heterogeneous",
        ],
    )
