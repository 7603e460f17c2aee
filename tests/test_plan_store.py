"""Cross-process plan store: fingerprints, persistence, concurrency.

The store must hand back plans that are bit-identical to freshly
compiled ones, key strictly on structural fingerprints, coordinate
racing processes down to exactly one lowering per unique plan, and
scope cleanly when attached to the process-global PLAN_CACHE.
"""

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.kernels import clear_lowering_caches
from repro.models.cnn import CnnModel
from repro.models.convs2s import ConvS2SModel
from repro.models.ds2 import Ds2Model
from repro.models.gnmt import GnmtModel
from repro.models.plan import PLAN_CACHE, PlanCache, PlanStore, compile_plan
from repro.models.spec import IterationInputs, Model
from repro.models.transformer import TransformerModel
from repro.train.iteration import IterationExecutor
from tests.conftest import CountingGnmt
from tests.reference import assert_results_identical


def tiny_plan():
    model = TransformerModel(vocab=64, hidden=8, layers=2, heads=2)
    inputs = IterationInputs(batch=2, seq_len=8, tgt_len=None)
    return compile_plan(model.lower_iteration(inputs, paper_config(1)))


def assert_plans_equal(left, right):
    for name in ("counts", "group_id", "name_id"):
        assert np.array_equal(getattr(left, name), getattr(right, name))
    for name in (
        "flops", "work_items", "issue_efficiency", "workgroup_size",
        "read_bytes", "write_bytes", "l1_reuse_fraction", "l1_working_set",
        "l2_reuse_fraction", "l2_working_set",
    ):
        a, b = getattr(left.work, name), getattr(right.work, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert left.groups == right.groups
    assert left.names == right.names
    assert left.gemm_shapes == right.gemm_shapes


class TestFingerprints:
    def test_builtin_models_are_store_eligible(self):
        models = [
            GnmtModel(), Ds2Model(), TransformerModel(), ConvS2SModel(),
            CnnModel(),
        ]
        fingerprints = [model.plan_fingerprint() for model in models]
        assert all(fp is not None for fp in fingerprints)
        # Family-discriminated: no two builtins collide.
        assert len({PlanStore.key_for(fp) for fp in fingerprints}) == 5

    def test_default_is_opted_out(self):
        class Opaque(Model):
            def __init__(self):
                super().__init__("opaque")

            def lower_iteration(self, inputs, config):
                raise NotImplementedError

            def lower_forward(self, inputs, config):
                raise NotImplementedError

            def param_count(self):
                return 0

        assert Opaque().plan_fingerprint() is None

    def test_hyperparameters_change_the_fingerprint(self):
        base = TransformerModel().plan_fingerprint()
        assert TransformerModel(heads=8).plan_fingerprint() != base
        assert TransformerModel(layers=6).plan_fingerprint() != base
        assert GnmtModel(encoder_layers=4).plan_fingerprint() != (
            GnmtModel().plan_fingerprint()
        )

    def test_no_store_never_builds_a_fingerprint(self):
        from repro.hw.device import GpuDevice
        from repro.train.iteration import IterationExecutor

        class Unfingerprinted(GnmtModel):
            def plan_fingerprint(self):
                raise AssertionError("fingerprint built without a store")

        assert PLAN_CACHE.store is None
        executor = IterationExecutor(Unfingerprinted(), GpuDevice(paper_config(1)))
        inputs = IterationInputs(batch=4, seq_len=12, tgt_len=10)
        assert executor.run(inputs).time_s > 0
        assert executor.run_forward(inputs).time_s > 0

    def test_equal_models_share_a_key(self):
        assert PlanStore.key_for(GnmtModel().plan_fingerprint()) == (
            PlanStore.key_for(GnmtModel().plan_fingerprint())
        )


class TestPlanStore:
    def test_round_trip_bit_identity(self, tmp_path):
        store = PlanStore(tmp_path)
        plan = tiny_plan()
        fingerprint = {"model": "tiny", "kind": "train"}
        stored = store.get_or_compute(fingerprint, lambda: plan)
        assert stored is plan  # the miss returns the built object
        loaded = store.get_or_compute(
            fingerprint, lambda: pytest.fail("must not rebuild")
        )
        assert_plans_equal(plan, loaded)
        assert store.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_loaded_plan_times_bit_identically(self, tmp_path):
        from repro.hw.device import GpuDevice

        store = PlanStore(tmp_path)
        plan = tiny_plan()
        store.get_or_compute({"k": 1}, lambda: plan)
        loaded = store.get_or_compute({"k": 1}, lambda: pytest.fail("rebuild"))
        ours = GpuDevice(paper_config(1)).run_batch(plan.work)
        theirs = GpuDevice(paper_config(1)).run_batch(loaded.work)
        assert np.array_equal(ours.time_s, theirs.time_s)

    def test_distinct_fingerprints_distinct_artefacts(self, tmp_path):
        store = PlanStore(tmp_path)
        plan = tiny_plan()
        store.get_or_compute({"k": 1}, lambda: plan)
        store.get_or_compute({"k": 2}, lambda: plan)
        assert store.stats()["entries"] == 2


def halve(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def empty(path) -> None:
    path.write_bytes(b"")


#: The two corruptions a crash or a full disk leaves behind.
CORRUPTIONS = {"halved": halve, "emptied": empty}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestCorruptArtefacts:
    """A torn or emptied plan artefact is set aside as
    ``{key}.npt.corrupt`` and the plan built again, never fatal."""

    def test_get_or_compute_rebuilds(self, tmp_path, corruption):
        plan = tiny_plan()
        fingerprint = {"model": "tiny", "kind": "train"}
        PlanStore(tmp_path).get_or_compute(fingerprint, lambda: plan)
        (path,) = tmp_path.glob("*.npt")
        CORRUPTIONS[corruption](path)
        store = PlanStore(tmp_path)
        rebuilt = store.get_or_compute(fingerprint, tiny_plan)
        assert_plans_equal(plan, rebuilt)
        assert path.with_name(f"{path.name}.corrupt").exists()
        assert store.stats() == {"entries": 1, "hits": 0, "misses": 1}
        loaded = PlanStore(tmp_path).get_or_compute(
            fingerprint, lambda: pytest.fail("must not rebuild")
        )
        assert_plans_equal(plan, loaded)

    def test_next_cli_run_gives_the_same_answer(self, tmp_path, capsys, corruption):
        from repro.cli import main

        plans = tmp_path / "plans"
        args = ["traffic", "--network", "gnmt", "--scale", "0.02",
                "--requests", "64", "--rate", "64", "--cadence", "4",
                "--patience", "2", "--format", "json",
                "--plan-store-dir", str(plans)]
        PLAN_CACHE.clear()  # force lowerings through the attached store
        assert main(args) == 0
        first = capsys.readouterr().out
        artefacts = sorted(plans.glob("*.npt"))
        assert artefacts
        for path in artefacts:
            CORRUPTIONS[corruption](path)
        PLAN_CACHE.clear()
        assert main(args) == 0
        assert capsys.readouterr().out == first
        for path in artefacts:
            assert path.with_name(f"{path.name}.corrupt").exists()


class TestPlanCacheIntegration:
    def test_attach_store_returns_previous(self, tmp_path):
        cache = PlanCache()
        store = PlanStore(tmp_path)
        assert cache.attach_store(store) is None
        assert cache.attach_store(None) is store

    def test_miss_with_fingerprint_uses_store(self, tmp_path):
        plan = tiny_plan()
        writer = PlanCache()
        writer.attach_store(PlanStore(tmp_path))
        writer.get_or_compile(("k",), lambda: plan, fingerprint={"f": 1})

        # A different process-local cache over the same store loads the
        # artefact instead of compiling.
        reader = PlanCache()
        store = PlanStore(tmp_path)
        reader.attach_store(store)
        loaded = reader.get_or_compile(
            ("k",), lambda: pytest.fail("must not compile"), fingerprint={"f": 1}
        )
        assert_plans_equal(plan, loaded)
        assert store.stats()["hits"] == 1
        # Memory hit thereafter: same object, store untouched.
        again = reader.get_or_compile(("k",), lambda: pytest.fail("compile"))
        assert again is loaded
        assert store.stats()["hits"] == 1

    def test_no_fingerprint_skips_store(self, tmp_path):
        cache = PlanCache()
        cache.attach_store(PlanStore(tmp_path))
        cache.get_or_compile(("k",), tiny_plan)
        assert not list(Path(tmp_path).glob("*.npt"))

    def test_warm_store_lowers_nothing(self, tmp_path):
        """A plan the store holds loads before any lowering: after a
        cold run writes the store, a run with empty process caches
        lowers no shape, on the first config or any other, and answers
        the same."""
        shapes = [
            IterationInputs(batch=4, seq_len=9, tgt_len=8),
            IterationInputs(batch=1, seq_len=1, tgt_len=1),
            IterationInputs(batch=16, seq_len=40, tgt_len=37),
        ]

        def run(model):
            return {
                index: IterationExecutor(
                    model, GpuDevice(paper_config(index))
                ).run_unique(shapes, "train")
                for index in (2, 1, 4)
            }

        previous = PLAN_CACHE.attach_store(PlanStore(tmp_path))
        try:
            PLAN_CACHE.clear()
            clear_lowering_caches()
            cold_model = CountingGnmt()
            cold = run(cold_model)
            assert cold_model.lowered == len(shapes)  # config-free, once each
            PLAN_CACHE.clear()
            clear_lowering_caches()
            warm_model = CountingGnmt()
            warm = run(warm_model)
        finally:
            PLAN_CACHE.attach_store(previous)
        assert warm_model.lowered == 0
        for index, results in cold.items():
            for ours, theirs in zip(warm[index], results, strict=True):
                assert_results_identical(ours, theirs)

    def test_stats_shape_unchanged(self):
        cache = PlanCache()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


def _store_worker(directory, barrier, results):
    """Race two processes on one fingerprint; count real lowerings."""
    from repro.models.plan import PlanStore

    store = PlanStore(directory)
    fingerprint = {"model": {"family": "tiny"}, "kind": "train"}

    def build():
        (Path(directory) / f"lowered.{os.getpid()}").touch()
        return tiny_plan()

    barrier.wait(timeout=30)
    plan = store.get_or_compute(fingerprint, build)
    results.put({"stats": store.stats(), "launches": plan.launch_count})


class TestConcurrency:
    def test_two_processes_one_lowering(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        results = context.Queue()
        workers = [
            context.Process(
                target=_store_worker, args=(str(tmp_path), barrier, results)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [results.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0

        # Exactly one process lowered; the loser loaded the artefact.
        assert len(list(tmp_path.glob("lowered.*"))) == 1
        counted = sorted(
            (o["stats"]["hits"], o["stats"]["misses"]) for o in outcomes
        )
        assert counted == [(0, 1), (1, 0)]
        assert outcomes[0]["launches"] == outcomes[1]["launches"]


class TestSweepIntegration:
    def test_serial_sweep_populates_and_detaches(self, tmp_path):
        from repro.api import SweepSpec, run_sweep

        sweep = SweepSpec(networks=("gnmt",), scales=(0.01,))
        store_dir = tmp_path / "plans"
        PLAN_CACHE.clear()  # force memory misses so the store is consulted
        run = run_sweep(
            sweep, mode="serial", cache_dir=tmp_path / "traces",
            plan_store_dir=store_dir,
        )
        assert len(run.results) == 1
        assert list(store_dir.glob("*.npt"))  # lowerings persisted
        # The sweep-scoped store did not leak into the global cache.
        assert PLAN_CACHE.attach_store(None) is None

    def test_warm_store_serves_identical_results(self, tmp_path):
        from repro.api import SweepSpec, run_sweep

        sweep = SweepSpec(networks=("gnmt",), scales=(0.01,))
        store_dir = tmp_path / "plans"
        PLAN_CACHE.clear()
        cold = run_sweep(
            sweep, mode="serial", cache_dir=tmp_path / "a",
            plan_store_dir=store_dir,
        )
        artefacts = {
            path.name: path.stat().st_mtime_ns
            for path in store_dir.glob("*.npt")
        }
        PLAN_CACHE.clear()  # warm run must go back through the store
        warm = run_sweep(
            sweep, mode="serial", cache_dir=tmp_path / "b",
            plan_store_dir=store_dir,
        )
        assert [r.to_dict() for r in warm.results] == [
            r.to_dict() for r in cold.results
        ]
        # Warm run loaded every plan: no artefact was rewritten.
        assert {
            path.name: path.stat().st_mtime_ns
            for path in store_dir.glob("*.npt")
        } == artefacts
