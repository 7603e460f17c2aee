"""Batched lowering→timing pipeline vs the scalar references.

The equivalence matrix of the columnar-plan pipeline: across models ×
shapes × hardware configs × noise seeds, the executor (``SchedulePlan``
+ ``run_batch`` + one fold per device call), the autotuner, and the
GEMM dispatch race must all be **bit-identical** to the scalar loops in
``tests/reference.py`` — not merely approximately equal.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api.engine import AnalysisEngine
from repro.api.spec import AnalysisSpec
from repro.api.registry import (
    DATASETS,
    build_batching,
    default_batching,
    default_dataset,
)
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.kernels import clear_lowering_caches
from repro.kernels.autotune import Autotuner
from repro.kernels.gemm import (
    GEMM_VARIANTS,
    _select,
    build_gemm,
    candidate_times,
)
from repro.models.cnn import build_cnn
from repro.models.convs2s import build_convs2s
from repro.models.ds2 import build_ds2
from repro.models.gnmt import GnmtModel, build_gnmt
from repro.models.plan import (
    _WORK_COLUMNS,
    PLAN_CACHE,
    compile_plan,
    resolve_plans,
)
from repro.models.spec import IterationInputs
from repro.models.transformer import build_transformer
from repro.train.inference import DEFAULT_SERVING_OVERHEAD_S, InferenceRunSimulator
from repro.train.iteration import DEFAULT_HOST_OVERHEAD_S, IterationExecutor
from repro.train.runner import TrainingRunSimulator, memoized_shape_walk
from tests.conftest import CountingDevice
from tests.reference import (
    ReferenceAutotuner,
    ReferenceExecutor,
    ReferenceTrainer,
    assert_results_identical,
    assert_traces_bit_identical,
    run_pass_reference,
    select_reference,
    time_work,
)

MODEL_BUILDERS = {
    "gnmt": build_gnmt,
    "ds2": build_ds2,
    "transformer": build_transformer,
}

SHAPES = {
    "gnmt": [
        IterationInputs(batch=64, seq_len=25, tgt_len=23),
        IterationInputs(batch=64, seq_len=804, tgt_len=776),
        IterationInputs(batch=16, seq_len=100, tgt_len=100),
    ],
    "ds2": [
        IterationInputs(batch=32, seq_len=200),
        IterationInputs(batch=64, seq_len=1500),
    ],
    "transformer": [
        IterationInputs(batch=32, seq_len=64, tgt_len=64),
    ],
}

CONFIGS = (1, 2, 3, 4, 5)


class TestExecutorEquivalenceMatrix:
    @pytest.mark.parametrize("network", sorted(MODEL_BUILDERS))
    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_train_and_forward_bit_identical(self, network, config_index):
        device = GpuDevice(paper_config(config_index))
        executor = IterationExecutor(MODEL_BUILDERS[network](), device)
        reference = ReferenceExecutor(
            IterationExecutor(MODEL_BUILDERS[network](), device)
        )
        for inputs in SHAPES[network]:
            assert_results_identical(executor.run(inputs), reference.run(inputs))
            assert_results_identical(
                executor.run_forward(inputs), reference.run_forward(inputs)
            )


class TestRunForwardUnique:
    """The serve's bulk shape miss: all missing shapes
    through one ``run_batch``, bit-identical to shape-at-a-time."""

    @pytest.mark.parametrize("network", sorted(MODEL_BUILDERS))
    def test_bulk_misses_bit_identical(self, network):
        device = GpuDevice(paper_config(1))
        bulk = IterationExecutor(MODEL_BUILDERS[network](), device)
        reference = IterationExecutor(MODEL_BUILDERS[network](), device)
        shapes = SHAPES[network]
        # Duplicates interleaved: the gather must map repeats back to
        # the one result their shape produced.
        inputs_seq = [*shapes, shapes[0], *shapes]
        results = bulk.run_unique(inputs_seq, "forward")
        assert len(results) == len(inputs_seq)
        for inputs, result in zip(inputs_seq, results):
            assert_results_identical(result, reference.run_forward(inputs))
        assert results[len(shapes)] is results[0]  # cached, not re-timed

    def test_single_miss_and_warm_cache(self):
        device = GpuDevice(paper_config(1))
        executor = IterationExecutor(build_gnmt(), device)
        reference = IterationExecutor(build_gnmt(), device)
        first = SHAPES["gnmt"][0]
        (solo,) = executor.run_unique([first], "forward")
        assert_results_identical(solo, reference.run_forward(first))
        # Everything cached: no new shapes, same objects returned.
        again = executor.run_unique([first, first], "forward")
        assert again[0] is solo and again[1] is solo


class TestEpochEquivalenceMatrix:
    """Whole simulated epochs, including autotune charging, evaluation
    passes, and per-iteration measurement noise."""

    def _simulator(self, network, config_index, noise_seed, scale=0.02):
        model = MODEL_BUILDERS[network]()
        dataset_name = default_dataset(network)
        corpus = DATASETS.create(dataset_name, scale=scale)
        train, evaluation = corpus.split(0.02, seed=7)
        return TrainingRunSimulator(
            model=model,
            dataset=train,
            batching=build_batching(
                default_batching(network), 32, dataset=dataset_name
            ),
            device=GpuDevice(paper_config(config_index)),
            eval_dataset=evaluation,
            noise_sigma=0.02,
            seed=0,
            noise_seed=noise_seed,
        )

    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_epoch_bit_identical_across_configs(self, network, config_index):
        simulator = self._simulator(network, config_index, 0)
        reference = ReferenceTrainer(simulator)
        assert_traces_bit_identical(simulator.run_epoch(0), reference.run_epoch(0))

    @pytest.mark.parametrize("noise_seed", [0, 1, 17])
    def test_epoch_bit_identical_across_noise_seeds(self, noise_seed):
        simulator = self._simulator("gnmt", 1, noise_seed)
        reference = ReferenceTrainer(simulator)
        assert_traces_bit_identical(simulator.run_epoch(0), reference.run_epoch(0))

    def test_multi_epoch_autotune_settling_identical(self):
        simulator = self._simulator("gnmt", 1, 0)
        reference = ReferenceTrainer(simulator)
        expected = [reference.run_epoch(epoch) for epoch in range(2)]
        for epoch, trace in enumerate(simulator.run_training(2)):
            assert_traces_bit_identical(trace, expected[epoch])
            assert_traces_bit_identical(simulator.run_epoch(epoch), expected[epoch])
        # Autotune settles after the problems' first epoch in both: the
        # epochs' charges tune exactly the problems the reference tuned.
        autotuner = Autotuner(simulator.device.config)
        tuned: set = set()
        for epoch in range(2):
            seq_len, tgt_len = simulator.batching.plan_epoch_columns(
                simulator.dataset, epoch=epoch, seed=simulator.seed
            )
            _, _, results = memoized_shape_walk(
                seq_len, tgt_len, simulator.batching.batch_size, simulator.executor.run_unique
            )
            launches = [shape for result in results for shape in result.gemm_shapes]
            assert autotuner.epoch_cost(launches, tuned) == expected[epoch].autotune_s
        assert tuned == reference.autotuner.tuned

    def test_inference_pass_bit_identical(self):
        corpus = DATASETS.create(default_dataset("gnmt"), scale=0.02)
        simulator = InferenceRunSimulator(
            model=MODEL_BUILDERS["gnmt"](),
            dataset=corpus,
            batching=build_batching(
                default_batching("gnmt"), 16, dataset=default_dataset("gnmt")
            ),
            device=GpuDevice(paper_config(3)),
            noise_sigma=0.02,
        )
        assert_traces_bit_identical(
            simulator.run_pass(), run_pass_reference(simulator)
        )


class TestGemmRaceEquivalence:
    PROBLEMS = [
        (29, 25728, 1600), (64, 64, 64), (1000, 128, 128),
        (17, 3, 911), (1, 1, 1), (4096, 2048, 512),
    ]

    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_candidate_times_bit_identical_to_scalar(self, config_index):
        config = paper_config(config_index)
        for m, n, k in self.PROBLEMS:
            times = candidate_times(m, n, k, config)
            for row, variant in enumerate(GEMM_VARIANTS):
                reference, _, _ = time_work(
                    build_gemm(variant, m, n, k).work, config
                )
                assert times[row] == reference, (m, n, k, variant)

    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_select_matches_reference_loop(self, config_index):
        config = paper_config(config_index)
        for m, n, k in self.PROBLEMS:
            assert _select(m, n, k, config) is select_reference(m, n, k, config)

    @pytest.mark.parametrize("config_index", CONFIGS)
    def test_autotune_charge_bit_identical(self, config_index):
        config = paper_config(config_index)
        tuner = Autotuner(config)
        reference = ReferenceAutotuner(config)
        # (1, 1, 1) prunes every variant and falls back to the last.
        costs = tuner.problem_costs(self.PROBLEMS).tolist()
        assert costs == [reference.charge(*shape) for shape in self.PROBLEMS]
        tuned: set = set()
        assert tuner.epoch_cost(self.PROBLEMS, tuned) == reference.total_cost_s
        assert tuned == reference.tuned
        # Re-charging is free in both.
        assert tuner.epoch_cost(self.PROBLEMS[:1], tuned) == 0.0
        assert reference.charge(*self.PROBLEMS[0]) == 0.0


class TestPlanCacheSharing:
    def test_executors_share_lowering_for_one_model(self):
        """Two executors over one model instance (the engine's pattern:
        ``resolve`` memoises one model per scenario) compile and time
        each shape once process-wide: the second executor looks up no
        plan, times nothing and returns the first one's result."""
        model = build_gnmt()
        device = CountingDevice(paper_config(1))
        inputs = IterationInputs(batch=8, seq_len=333, tgt_len=331)
        first = IterationExecutor(model, device)
        second = IterationExecutor(model, device)
        before = PLAN_CACHE.stats()
        result_a = first.run(inputs)
        mid = PLAN_CACHE.stats()
        timed = device.batches
        result_b = second.run(inputs)
        assert mid["misses"] == before["misses"] + 1
        assert timed == 1
        assert PLAN_CACHE.stats() == mid
        assert device.batches == timed
        assert result_b is result_a

    def test_clear_drops_timed_results(self):
        """After ``PLAN_CACHE.clear()`` a new executor times the shape
        again, and gets equal values."""
        model = build_ds2()
        device = CountingDevice(paper_config(2))
        inputs = IterationInputs(batch=16, seq_len=77)
        first = IterationExecutor(model, device).run(inputs)
        PLAN_CACHE.clear()
        again = IterationExecutor(model, device).run(inputs)
        assert device.batches == 2
        assert again is not first
        assert_results_identical(again, first)

    def test_live_executor_honours_clear(self):
        """An executor looks the memo up when it runs, so one built
        before ``clear()`` times its shape again after it."""
        executor = IterationExecutor(build_ds2(), CountingDevice(paper_config(3)))
        inputs = IterationInputs(batch=16, seq_len=91)
        first = executor.run_forward(inputs)
        assert executor.run_forward(inputs) is first
        PLAN_CACHE.clear()
        again = executor.run_forward(inputs)
        assert executor.device.batches == 2
        assert again is not first
        assert_results_identical(again, first)

    def test_host_overhead_separates_results(self):
        """A training executor (25 ms per iteration) and a serving one
        (2 ms) on one model, config and shape share one plan but not
        one result."""
        model = build_gnmt()
        device = GpuDevice(paper_config(4))
        inputs = IterationInputs(batch=8, seq_len=57, tgt_len=61)
        training = IterationExecutor(model, device)
        serving = IterationExecutor(
            model, device, host_overhead_s=DEFAULT_SERVING_OVERHEAD_S
        )
        assert training.host_overhead_s == DEFAULT_HOST_OVERHEAD_S == 25e-3
        assert serving.host_overhead_s == 2e-3
        before = PLAN_CACHE.stats()
        slow = training.run_forward(inputs)
        fast = serving.run_forward(inputs)
        after = PLAN_CACHE.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        (plan,) = training.plans_for((inputs,), "forward")
        assert serving.plans_for((inputs,), "forward")[0] is plan
        assert slow.time_s != fast.time_s
        assert slow.time_s > fast.time_s
        assert slow.launches == fast.launches
        assert slow.group_times == fast.group_times

    def test_racing_executors_leave_every_shape_timed(self):
        """Threads missing the same shapes at once may each time them
        (the last write wins, the results being bit-identical); the
        memo ends up holding every shape, so a later executor times
        nothing."""
        shapes = SHAPES["gnmt"]
        config = paper_config(2)
        expected = IterationExecutor(build_gnmt(), GpuDevice(config)).run_unique(
            shapes, "forward"
        )
        model = build_gnmt()
        seen = []

        def worker():
            executor = IterationExecutor(model, GpuDevice(config))
            seen.append(executor.run_unique(shapes, "forward"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        device = CountingDevice(config)
        seen.append(IterationExecutor(model, device).run_unique(shapes, "forward"))
        assert device.batches == 0
        for results in seen:
            for ours, theirs in zip(results, expected, strict=True):
                assert_results_identical(ours, theirs)

    def test_models_with_equal_param_counts_never_collide(self):
        """Regression: head count changes a transformer's kernel shapes
        but not its parameter count, so a structural key derived from
        ``param_count`` alone would serve one model's plans to the
        other.  The default per-instance key must keep them apart and
        each result equal to its own reference."""
        wide = build_transformer(heads=12)
        narrow = build_transformer(heads=8)
        assert wide.param_count() == narrow.param_count()
        assert wide.plan_key() != narrow.plan_key()

        device = GpuDevice(paper_config(1))
        inputs = IterationInputs(batch=8, seq_len=96, tgt_len=96)
        wide_result = IterationExecutor(wide, device).run(inputs)
        narrow_result = IterationExecutor(narrow, device).run(inputs)
        narrow_reference = ReferenceExecutor(IterationExecutor(narrow, device))
        assert_results_identical(narrow_result, narrow_reference.run(inputs))
        assert wide_result.time_s != narrow_result.time_s

    def test_unpickled_model_draws_a_fresh_plan_token(self):
        """Plan tokens are process-local: a model shipped to another
        process must not collide there with a locally built model that
        happened to draw the same token number."""
        import pickle

        model = build_transformer(heads=12)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.plan_key() != model.plan_key()
        assert "_plan_token" not in model.__getstate__()


BUILTINS = {
    **MODEL_BUILDERS,
    "convs2s": build_convs2s,
    "cnn": build_cnn,
}

#: Edge shapes (batch 1, seq 1, tgt 1 or absent, identity-premerge
#: cases where batch * steps == batch) plus ordinary ones.
RESOLVE_SHAPES = [
    IterationInputs(batch=1, seq_len=1, tgt_len=1),
    IterationInputs(batch=1, seq_len=1, tgt_len=None),
    IterationInputs(batch=2, seq_len=1, tgt_len=7),
    IterationInputs(batch=1, seq_len=12, tgt_len=1),
    IterationInputs(batch=3, seq_len=37, tgt_len=5),
    IterationInputs(batch=64, seq_len=300, tgt_len=290),
]


def assert_plans_identical(resolved, compiled):
    """All seven plan fields (and the skeleton) equal, bit for bit."""
    for name in _WORK_COLUMNS:
        ours, theirs = getattr(resolved.work, name), getattr(compiled.work, name)
        assert ours.dtype == theirs.dtype == np.float64, name
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64)), name
    for name in ("counts", "group_id", "name_id", "gemm_rows"):
        ours, theirs = getattr(resolved, name), getattr(compiled, name)
        assert ours.dtype == theirs.dtype == np.int64, name
        assert np.array_equal(ours, theirs), name
    assert resolved.groups == compiled.groups
    assert resolved.names == compiled.names
    assert resolved.gemm_shapes == compiled.gemm_shapes


class TestPlanResolution:
    """A shape's plan resolved from its skeleton on another config is
    the plan lowering and compiling it there would produce."""

    @pytest.mark.parametrize("network", sorted(BUILTINS))
    def test_resolved_equals_lowered_from_every_start(self, network):
        model = BUILTINS[network]()
        compiled = {
            index: [
                compile_plan(lower(inputs, paper_config(index)))
                for inputs in RESOLVE_SHAPES
                for lower in (model.lower_iteration, model.lower_forward)
            ]
            for index in CONFIGS
        }
        assert all(plan.gemm_rows is not None for plan in compiled[1])
        for start in CONFIGS:
            for target in CONFIGS:
                # All shapes and passes at once: one race, one splice.
                resolved = resolve_plans(compiled[start], paper_config(target))
                for ours, theirs in zip(resolved, compiled[target], strict=True):
                    assert_plans_identical(ours, theirs)
                # Resolving from a plan that was itself resolved.
                again = resolve_plans(resolved, paper_config(start))
                for ours, theirs in zip(again, compiled[start], strict=True):
                    assert_plans_identical(ours, theirs)

    def test_no_plans(self):
        assert resolve_plans([], paper_config(2)) == []


def clear_process_caches():
    PLAN_CACHE.clear()
    clear_lowering_caches()


class CountingGnmt(GnmtModel):
    """GNMT that counts its forward lowerings."""

    lowered = 0

    def lower_forward(self, inputs, config):
        self.lowered += 1
        return super().lower_forward(inputs, config)


class TestCrossConfigSimulation:
    """The first config a shape meets lowers it; later configs resolve
    it.  Which config comes first must not change any number."""

    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    def test_config_order_does_not_change_frames(self, network):
        spec = AnalysisSpec(network=network, scale=0.02)

        def frames(order):
            clear_process_caches()
            engine = AnalysisEngine()
            return {
                index: engine.frame_for(replace(spec, config=index))
                for index in order
            }

        forward = frames((1, 2, 3, 4, 5))
        backward = frames((5, 3, 1, 4, 2))
        for index in CONFIGS:
            assert forward[index].autotune_s == backward[index].autotune_s
            assert forward[index].to_payload() == backward[index].to_payload()

    def test_clearing_caches_forgets_skeletons_and_races(self):
        model = CountingGnmt()
        inputs = IterationInputs(batch=4, seq_len=9, tgt_len=8)
        IterationExecutor(model, GpuDevice(paper_config(1))).run_forward(inputs)
        result = IterationExecutor(model, GpuDevice(paper_config(2))).run_forward(
            inputs
        )
        assert model.lowered == 1  # config 2 was resolved
        seeded = candidate_times(*result.gemm_shapes[0], paper_config(2))
        clear_process_caches()
        again = IterationExecutor(model, GpuDevice(paper_config(2))).run_forward(
            inputs
        )
        assert model.lowered == 2  # no skeleton survived
        assert candidate_times(*result.gemm_shapes[0], paper_config(2)) is not seeded
        assert_results_identical(again, result)

    def test_plan_hits_skip_skeleton_lookups(self, monkeypatch):
        model = build_gnmt()
        shapes = SHAPES["gnmt"]
        device = GpuDevice(paper_config(3))
        first = IterationExecutor(model, device).run_unique(shapes, "forward")

        def refuse(key):
            raise AssertionError("skeleton looked up on a plan-cache hit")

        monkeypatch.setattr(PLAN_CACHE, "skeleton", refuse)
        again = IterationExecutor(model, device).run_unique(shapes, "forward")
        for ours, theirs in zip(again, first):
            assert_results_identical(ours, theirs)

    def test_concurrent_lowering_and_resolution_agree(self):
        """Threads racing one model's shapes over the configs in
        different orders (so each shape is lowered by one thread and
        resolved by the others) all see the lowered numbers."""
        shapes = SHAPES["gnmt"]
        reference = {
            index: IterationExecutor(
                build_gnmt(), GpuDevice(paper_config(index))
            ).run_unique(shapes, "forward")
            for index in CONFIGS
        }
        clear_process_caches()
        model = build_gnmt()
        seen = []

        def worker(offset):
            for index in CONFIGS[offset:] + CONFIGS[:offset]:
                executor = IterationExecutor(model, GpuDevice(paper_config(index)))
                seen.append((index, executor.run_unique(shapes, "forward")))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,)) for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4 * len(CONFIGS)
        for index, results in seen:
            for ours, theirs in zip(results, reference[index], strict=True):
                assert_results_identical(ours, theirs)
