"""Cross-process TraceCache coordination.

Two worker processes racing on one key must produce exactly one
simulation: the winner computes under the per-key file lock and the
loser loads the winner's artefact as a disk hit.  A legacy JSON entry
left in a cache directory is a miss on the process-parallel sweep path,
simulated again to the same answer.
"""

import multiprocessing
import os
import time
from pathlib import Path

from repro.api import AnalysisEngine, SweepSpec, run_sweep
from repro.api.spec import AnalysisSpec
from tests.conftest import dump_v1, trace_of

KEY = "deadbeef" * 8
SCALE = 0.01


def _build_trace(directory: str):
    """A cheap synthetic trace; touching a sentinel records the compute."""
    from repro.hw.counters import CounterSet
    from repro.train.trace import IterationRecord

    (Path(directory) / f"simulated.{os.getpid()}").touch()
    time.sleep(0.2)  # widen the race window
    records = [
        IterationRecord(
            index=index,
            epoch=0,
            seq_len=10 * (index + 1),
            tgt_len=None,
            time_s=1.0 + index,
            launches=1,
            counters=CounterSet(busy_cycles=1.0),
            group_times={"GEMM-1": 1.0 + index},
            kernel_names=frozenset({"k"}),
        )
        for index in range(3)
    ]
    return trace_of(
        records, model_name="m", dataset_name="d", config_name="c", batch_size=4
    )


def _cache_worker(directory, barrier, results):
    from repro.api.cache import TraceCache

    cache = TraceCache(directory)
    barrier.wait(timeout=30)
    trace = cache.get_or_compute(KEY, lambda: _build_trace(directory))
    results.put({"stats": cache.stats(), "total": trace.total_time_s})


class TestConcurrentAccess:
    def test_two_processes_one_simulation_one_hit(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        results = context.Queue()
        workers = [
            context.Process(
                target=_cache_worker, args=(str(tmp_path), barrier, results)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes = [results.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0

        # Exactly one process ran the compute...
        assert len(list(tmp_path.glob("simulated.*"))) == 1
        # ...and the counters agree: one miss (the winner), one disk hit.
        counted = sorted(
            (o["stats"]["hits"], o["stats"]["misses"]) for o in outcomes
        )
        assert counted == [(0, 1), (1, 0)]
        # Both observed the same artefact.
        assert outcomes[0]["total"] == outcomes[1]["total"]


class TestLegacyArtefacts:
    def test_legacy_json_entry_is_simulated_again(self, tmp_path):
        spec = AnalysisSpec(network="gnmt", scale=SCALE)
        engine = AnalysisEngine()
        key = engine.trace_key(spec)
        path = tmp_path / f"{key}.json"
        dump_v1(engine.trace_for(spec), path)  # a pre-binary cache directory
        stamp = path.stat().st_mtime_ns

        sweep = SweepSpec(networks=("gnmt",), scales=(SCALE,))
        run = run_sweep(sweep, mode="process", workers=2, cache_dir=tmp_path)

        expected = [engine.run(point).to_dict() for point in sweep.expand()]
        assert [r.to_dict() for r in run.results] == expected
        # The JSON entry was a miss: the workers simulated the epoch
        # again into the binary format and left the old file alone.
        assert (tmp_path / f"{key}.npt").exists()
        assert path.stat().st_mtime_ns == stamp
        assert list(tmp_path.glob("*.json")) == [path]
