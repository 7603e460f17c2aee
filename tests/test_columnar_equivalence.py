"""The columnar path's bit-identity guarantee.

The shape-memoized epoch (``run_epoch``) must produce traces
bit-identical to the per-iteration loop in ``tests/reference.py``
across models, datasets, configurations, noise settings, and epochs —
runtimes, counters, kernel statistics, autotune accounting, and the
evaluation phase all included.  The same guarantee covers the
vectorized batching plan and the inference pass, ragged batch included.
"""

import pytest

from repro.api.registry import DATASETS, MODELS, build_batching
from repro.data.batching import (
    PooledBucketing,
    ShuffledBatching,
    SortaGradBatching,
    SortedBatching,
)
from repro.data.iwslt import build_iwslt
from repro.data.librispeech import build_librispeech
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.gnmt import build_gnmt
from repro.train.inference import InferenceRunSimulator
from repro.train.runner import TrainingRunSimulator
from tests.reference import (
    ReferenceTrainer,
    assert_traces_bit_identical,
    run_pass_reference,
)

SCALE = 0.03


def build_simulator(network: str, config: int, sigma: float):
    """A fresh simulator (own executor + autotuner) for one scenario."""
    dataset_name = {"gnmt": "iwslt", "ds2": "librispeech"}[network]
    batching_name = {"gnmt": "pooled", "ds2": "sortagrad"}[network]
    corpus = DATASETS.create(dataset_name, scale=SCALE)
    train, evaluation = corpus.split(0.05, seed=7)
    return TrainingRunSimulator(
        model=MODELS.create(network),
        dataset=train,
        batching=build_batching(batching_name, 64, dataset=dataset_name),
        device=GpuDevice(paper_config(config)),
        eval_dataset=evaluation,
        noise_sigma=sigma,
        seed=3,
        noise_seed=config,
    )


@pytest.mark.parametrize("sigma", [0.0, 0.02])
@pytest.mark.parametrize(
    "network,config", [("gnmt", 1), ("gnmt", 4), ("ds2", 1)]
)
class TestEpochBitIdentity:
    def test_memoized_epochs_match_reference(self, network, config, sigma):
        simulator = build_simulator(network, config, sigma)
        reference = ReferenceTrainer(build_simulator(network, config, sigma))
        for epoch in (0, 1):
            assert_traces_bit_identical(
                simulator.run_epoch(epoch=epoch, include_eval=True),
                reference.run_epoch(epoch=epoch, include_eval=True),
            )


class TestPlanColumns:
    @pytest.mark.parametrize("pad_multiple", [1, 4])
    @pytest.mark.parametrize(
        "policy_cls",
        [ShuffledBatching, SortedBatching, SortaGradBatching],
    )
    def test_columns_match_plan(self, policy_cls, pad_multiple):
        corpus = build_librispeech(utterances=500)
        policy = policy_cls(64, pad_multiple=pad_multiple)
        for epoch in (0, 1):
            plan = policy.plan_epoch(corpus, epoch=epoch, seed=5)
            seq_len, tgt_len = policy.plan_epoch_columns(
                corpus, epoch=epoch, seed=5
            )
            assert seq_len.tolist() == [inputs.seq_len for inputs in plan]
            assert tgt_len.tolist() == [-1] * len(plan)

    def test_columns_match_plan_with_targets(self):
        corpus = build_iwslt(sentences=500)
        policy = PooledBucketing(64, pool_factor=3)
        for epoch in (0, 1):
            plan = policy.plan_epoch(corpus, epoch=epoch, seed=5)
            seq_len, tgt_len = policy.plan_epoch_columns(
                corpus, epoch=epoch, seed=5
            )
            assert seq_len.tolist() == [inputs.seq_len for inputs in plan]
            assert tgt_len.tolist() == [inputs.tgt_len for inputs in plan]

    def test_columns_empty_when_no_full_batch(self):
        corpus = build_librispeech(utterances=300)
        policy = SortedBatching(512)
        seq_len, tgt_len = policy.plan_epoch_columns(corpus, epoch=0, seed=0)
        assert seq_len.size == 0 and tgt_len.size == 0


class TestInferenceBitIdentity:
    @pytest.mark.parametrize("sigma", [0.0, 0.03])
    def test_memoized_pass_matches_reference(self, devices, sigma):
        corpus = build_iwslt(sentences=400)
        simulator = InferenceRunSimulator(
            build_gnmt(), corpus, ShuffledBatching(16), devices[1],
            noise_sigma=sigma,
        )
        assert_traces_bit_identical(
            simulator.run_pass(), run_pass_reference(simulator)
        )

    def test_tiny_request_set_falls_back_to_ragged_batch(self, devices):
        corpus = build_iwslt(sentences=24)
        for sigma in (0.0, 0.03):
            sim = InferenceRunSimulator(
                build_gnmt(), corpus, ShuffledBatching(64), devices[1],
                noise_sigma=sigma,
            )
            trace = sim.run_pass()
            assert len(trace) == 1
            # One ragged batch, timed at its actual size; the trace
            # keeps the policy's batch size.
            assert trace.frame().batch_size == 64
            assert_traces_bit_identical(trace, run_pass_reference(sim))


class TestSelectionUnaffected:
    def test_selector_sweep_identical_on_both_paths(self):
        from repro.core.baselines import FrequentSelector, MedianSelector
        from repro.core.seqpoint import SeqPointSelector

        columnar = build_simulator("gnmt", 1, 0.02).run_epoch()
        reference = ReferenceTrainer(build_simulator("gnmt", 1, 0.02)).run_epoch()
        for selector in (SeqPointSelector(), FrequentSelector(), MedianSelector()):
            left = selector.select(columnar.frame())
            right = selector.select(reference.frame())
            if hasattr(left, "selection"):
                left, right = left.selection, right.selection
            assert left.seq_lens == right.seq_lens
            assert left.weights_column.tolist() == right.weights_column.tolist()
            assert left.times_column.tolist() == right.times_column.tolist()
