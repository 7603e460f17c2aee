"""AnalysisEngine.run_traffic: the serving loop end to end."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.api.engine import AnalysisEngine, TrafficAnalysisResult, default_engine
from repro.api.spec import AnalysisSpec
from repro.errors import ConfigurationError
from repro.traffic import TrafficSpec

_LATENCY_KEYS = {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"}


def traffic_spec(**overrides):
    payload = {
        "analysis": {
            "network": "gnmt", "scale": 0.03, "batch_size": 16,
        },
        "requests": 192,
        "rate": 64.0,
        "cadence": 4,
        "patience": 2,
        "rtol": 0.05,
    }
    payload.update(overrides)
    return TrafficSpec.from_dict(payload)


@pytest.fixture(scope="module")
def engine():
    return AnalysisEngine()


@pytest.fixture(scope="module")
def stationary(engine):
    return engine.run_traffic(traffic_spec())


class TestTimedServing:
    def test_result_shape(self, stationary):
        assert isinstance(stationary, TrafficAnalysisResult)
        assert stationary.requests == 192
        assert stationary.batches >= 1
        assert len(stationary.points) >= 1
        assert stationary.identification_error_pct >= 0.0
        assert stationary.makespan_s >= stationary.actual_total_s > 0.0

    def test_latency_snapshots(self, stationary):
        for snapshot in (stationary.latency, stationary.queue_wait):
            assert set(snapshot) == _LATENCY_KEYS
            assert snapshot["count"] == 192
        # End-to-end latency includes device time, so it dominates wait.
        assert stationary.latency["mean_ms"] > stationary.queue_wait["mean_ms"]

    def test_streaming_watches_the_live_stream(self, stationary):
        assert stationary.iterations_consumed <= stationary.batches
        assert stationary.streaming_projection_error_pct >= 0.0
        # The union drift guard counts appearing SLs as drift, and a
        # 15-batch stream is still all SL-coverage growth — every check
        # after the first sees batches whose padded SL is new, so the
        # stability window keeps resetting instead of freezing an
        # early selection.
        assert stationary.drift_resets == 3

    def test_deterministic(self, engine, stationary):
        again = engine.run_traffic(traffic_spec())
        assert again.to_dict() == stationary.to_dict()

    def test_to_dict_json_serialisable(self, stationary):
        payload = json.loads(json.dumps(stationary.to_dict()))
        assert payload["spec"]["analysis"]["network"] == "gnmt"
        assert payload["requests"] == 192

    def test_spec_type_checked(self, engine):
        with pytest.raises(ConfigurationError, match="TrafficSpec"):
            engine.run_traffic(AnalysisSpec(network="gnmt", scale=0.02))


class TestDriftingMix:
    def test_disjoint_phases_fire_the_drift_guard(self, engine):
        result = engine.run_traffic(
            traffic_spec(
                requests=384,
                arrival="bursty",
                phases=[
                    {"fraction": 0.5, "quantile_hi": 0.55},
                    {"fraction": 0.5, "quantile_lo": 0.45},
                ],
                drift_rtol=0.01,
            )
        )
        assert result.drift_resets >= 1
        assert any(check.drift_reset for check in result.checks)


class TestProjections:
    def test_offline_projection_onto_other_configs(self, engine):
        result = engine.run_traffic(
            traffic_spec(
                arrival="offline", requests=128, targets=[1, 3],
                pad_multiple=1,
            )
        )
        by_config = {p.config: p for p in result.projections}
        assert set(by_config) == {1, 3}
        # Projecting onto the identification config itself is exact.
        assert by_config[1].error_pct == pytest.approx(0.0, abs=1e-9)
        assert by_config[3].actual_serving_s > 0.0
        assert by_config[3].error_pct < 5.0


class TestOfflineRequestCount:
    """Offline serving reports the requests it served, one latency each."""

    @pytest.mark.parametrize(
        "batch_size, requests, batches",
        [(256, 53, 1), (16, 48, 3)],  # one ragged batch; full batches only
    )
    def test_counts_served_requests(self, engine, batch_size, requests, batches):
        analysis = AnalysisSpec(network="gnmt", scale=0.02, batch_size=batch_size)
        assert len(engine.resolve(analysis).eval_data) == 53
        result = engine.run_traffic(TrafficSpec(analysis=analysis, arrival="offline"))
        assert (result.requests, result.batches) == (requests, batches)
        assert result.latency["count"] == requests
        assert result.queue_wait["count"] == requests
        assert result.queue_wait["max_ms"] == 0.0


class TestOfflineEquivalence:
    def test_inference_outcome_bit_identical_to_inline_path(self):
        """experiments/inference.py rerouted without changing a digit."""
        from repro.core.projection import project_total
        from repro.core.seqpoint import SeqPointSelector
        from repro.data.batching import PooledBucketing
        from repro.experiments.inference import inference_outcome
        from repro.experiments.setups import scenario
        from repro.hw.config import paper_config
        from repro.hw.device import GpuDevice
        from repro.train.inference import InferenceRunSimulator

        scale = 0.05
        for network in ("gnmt", "ds2"):
            setup = scenario(network, scale)

            def simulator(config_index):
                return InferenceRunSimulator(
                    setup.model,
                    setup.eval_data,
                    PooledBucketing(8),
                    GpuDevice(paper_config(config_index)),
                )

            base = simulator(1)
            trace = base.run_pass()
            selected = SeqPointSelector().select(trace)
            other = simulator(3)
            actual = other.run_pass().total_time_s
            projected = project_total(
                selected.selection,
                lambda point: other.measure_seq_len(
                    point.seq_len, point.tgt_len
                ),
            )
            legacy = {
                "requests": float(len(trace)),
                "seqpoints": float(len(selected.selection)),
                "ident_error_pct": selected.identification_error_pct,
                "config3_error_pct": abs(projected - actual) / actual * 100.0,
            }
            assert inference_outcome(network, scale) == legacy


class TestRepeatedRuns:
    def test_repeated_runs_retain_no_memory(self):
        # Each run times its unique shapes through freshly concatenated
        # work batches; nothing may keep them once the run is over.
        engine = AnalysisEngine()
        spec = TrafficSpec(
            analysis=AnalysisSpec(network="gnmt", scale=0.02), requests=2048
        )
        first = engine.run_traffic(spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                again = engine.run_traffic(spec)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20
        assert again.to_dict() == first.to_dict()


class TestTrafficPlanStore:
    def test_plan_store_populates_and_detaches(self, tmp_path, engine):
        from repro.models.plan import PLAN_CACHE

        store_dir = tmp_path / "plans"
        PLAN_CACHE.clear()  # force memory misses so the store is consulted
        cold = engine.run_traffic(
            traffic_spec(requests=64), plan_store_dir=str(store_dir)
        )
        assert list(store_dir.glob("*.npt"))  # lowerings persisted
        # The run-scoped store did not leak into the global cache.
        assert PLAN_CACHE.attach_store(None) is None

        artefacts = {
            path.name: path.stat().st_mtime_ns
            for path in store_dir.glob("*.npt")
        }
        PLAN_CACHE.clear()  # warm run must go back through the store
        warm = engine.run_traffic(
            traffic_spec(requests=64), plan_store_dir=str(store_dir)
        )
        assert warm.to_dict() == cold.to_dict()
        # Warm run loaded every plan: no artefact was rewritten.
        assert {
            path.name: path.stat().st_mtime_ns
            for path in store_dir.glob("*.npt")
        } == artefacts

    def test_default_run_attaches_no_store(self, engine):
        from repro.models.plan import PLAN_CACHE

        engine.run_traffic(traffic_spec(requests=64))
        assert PLAN_CACHE.attach_store(None) is None


class TestTrafficFeed:
    def test_chunks_group_by_formation_instant(self, engine):
        from repro.api.registry import BATCHING
        from repro.hw.config import paper_config
        from repro.hw.device import GpuDevice
        from repro.traffic import TrafficFeed, TrafficSimulator, form_batches
        from repro.traffic import sample_requests

        spec = traffic_spec()
        resolved = engine.resolve(spec.analysis)
        requests = sample_requests(
            resolved.train_data, spec.phases, spec.requests,
            spec.analysis.seed,
        )
        arrival_s = spec.build_arrivals().times(
            len(requests), spec.analysis.seed
        )
        batches = form_batches(
            arrival_s, requests.seq_len, requests.tgt_len,
            resolved.batching, spec.max_wait_s,
        )
        simulator = TrafficSimulator(
            resolved.model, spec.analysis.dataset, resolved.batching,
            GpuDevice(paper_config(spec.analysis.config)),
        )
        served = simulator.serve(requests, arrival_s, batches)
        feed = TrafficFeed(served)
        slices = list(feed)
        assert sum(s.stop - s.start for s in slices) == len(served.frame)
        form_times = np.asarray([b.form_time_s for b in batches])
        for chunk in slices:
            window = form_times[chunk.start:chunk.stop]
            assert np.all(window == window[0])
        boundaries = [chunk.start for chunk in slices][1:]
        for boundary in boundaries:
            assert form_times[boundary - 1] != form_times[boundary]


class TestTimedOncePerProcess:
    def test_second_simulator_times_nothing(self, engine):
        """A second simulator on the same model and config, serving the
        same batches (a projection target equal to the spec's config
        does this), reads every shape from the process-wide memo: no
        device call, the same frame and the same profile objects."""
        from repro.hw.config import paper_config
        from repro.traffic import TrafficSimulator, form_batches
        from repro.traffic import sample_requests
        from tests.conftest import CountingDevice

        spec = traffic_spec()
        resolved = engine.resolve(spec.analysis)
        requests = sample_requests(
            resolved.train_data, spec.phases, spec.requests,
            spec.analysis.seed,
        )
        arrival_s = spec.build_arrivals().times(
            len(requests), spec.analysis.seed
        )
        batches = form_batches(
            arrival_s, requests.seq_len, requests.tgt_len,
            resolved.batching, spec.max_wait_s,
        )

        def serve():
            device = CountingDevice(paper_config(spec.analysis.config))
            simulator = TrafficSimulator(
                resolved.model, spec.analysis.dataset, resolved.batching,
                device,
            )
            return simulator.serve(requests, arrival_s, batches), device

        first, _ = serve()
        second, device = serve()
        assert device.batches == 0
        for column in (
            "index", "epoch", "seq_len", "tgt_len", "time_s", "profile_id"
        ):
            assert np.array_equal(
                getattr(second.frame, column), getattr(first.frame, column)
            ), column
        assert len(second.frame.profiles) == len(first.frame.profiles)
        for ours, theirs in zip(second.frame.profiles, first.frame.profiles):
            assert ours is theirs
        assert np.array_equal(second.latency_s, first.latency_s)
