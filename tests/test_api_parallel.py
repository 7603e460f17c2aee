"""Unit tests for the process-parallel sweep engine.

The load-bearing guarantee is bit-identity: every execution mode must
reproduce, float for float, what a plain serial loop over
``AnalysisEngine.run`` produces for the expanded grid.
"""

import json

import pytest

from repro.api import (
    AnalysisEngine,
    SweepSpec,
    plan_sweep,
    run_sweep,
    trace_key,
)
from repro.api.spec import AnalysisSpec
from repro.errors import ConfigurationError

SCALE = 0.01


def small_sweep(**overrides) -> SweepSpec:
    payload = {
        "networks": ("gnmt",),
        "scales": (SCALE,),
        "seeds": (0, 1),
        "selectors": ("seqpoint", "frequent"),
    }
    payload.update(overrides)
    return SweepSpec(**payload)


def serial_reference(sweep: SweepSpec) -> list[dict]:
    engine = AnalysisEngine()
    projection = sweep.projection()
    return [engine.run(spec, projection).to_dict() for spec in sweep.expand()]


class TestSweepSpec:
    def test_scalar_axes_normalise(self):
        sweep = SweepSpec(networks="gnmt", scales=SCALE, seeds=3)
        assert sweep.networks == ("gnmt",)
        assert sweep.scales == (SCALE,)
        assert sweep.seeds == (3,)

    def test_axes_dedupe_preserving_order(self):
        sweep = SweepSpec(networks=("gnmt",), scales=(SCALE,), seeds=(2, 0, 2, 1))
        assert sweep.seeds == (2, 0, 1)

    def test_selector_forms(self):
        sweep = SweepSpec(
            networks=("gnmt",),
            scales=(SCALE,),
            selectors=(
                "frequent",
                {"selector": "seqpoint", "kwargs": {"error_threshold_pct": 0.5}},
                ("kmeans", {"k": 3}),
            ),
        )
        assert sweep.selectors == (
            ("frequent", ()),
            ("seqpoint", (("error_threshold_pct", 0.5),)),
            ("kmeans", (("k", 3),)),
        )

    def test_single_mapping_selector_is_scalar(self):
        sweep = SweepSpec(
            networks="gnmt",
            scales=SCALE,
            selectors={"selector": "seqpoint", "kwargs": {"error_threshold_pct": 0.5}},
        )
        assert sweep.selectors == (("seqpoint", (("error_threshold_pct", 0.5),)),)

    def test_unhashable_kwargs_survive_dedupe(self):
        from repro.api.parallel import _axis, _normalise_selector

        entry = {"selector": "seqpoint", "kwargs": {"w": [1, 2]}}
        deduped = _axis("selectors", (entry, entry), _normalise_selector)
        assert deduped == (("seqpoint", (("w", [1, 2]),)),)

    def test_serial_mode_reports_one_worker(self):
        assert run_sweep(small_sweep(), mode="serial", workers=8).workers == 1

    def test_expansion_order_and_len(self):
        sweep = small_sweep()
        points = sweep.expand()
        assert len(points) == len(sweep) == 4
        assert [(p.seed, p.selector) for p in points] == [
            (0, "seqpoint"), (0, "frequent"), (1, "seqpoint"), (1, "frequent"),
        ]

    def test_round_trips_through_json(self):
        sweep = small_sweep(targets=(1, 3))
        payload = json.loads(json.dumps(sweep.to_dict()))
        assert SweepSpec.from_dict(payload) == sweep

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown SweepSpec fields"):
            SweepSpec.from_dict({"networks": ["gnmt"], "selector": "seqpoint"})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds cannot be empty"):
            SweepSpec(networks=("gnmt",), scales=(SCALE,), seeds=())

    def test_unknown_network_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            SweepSpec(networks=("bert",), scales=(SCALE,))

    def test_bad_selector_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="selector entries"):
            SweepSpec(networks=("gnmt",), scales=(SCALE,), selectors=(42,))

    def test_targets_validated(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(networks=("gnmt",), scales=(SCALE,), targets=(99,))

    def test_projection(self):
        assert small_sweep().projection() is None
        assert small_sweep(targets=(1, 3)).projection().targets == (1, 3)


class TestPlan:
    def test_selectors_share_one_trace(self):
        plan = plan_sweep(small_sweep())
        assert len(plan.points) == 4
        # Two seeds, selectors deduped away.
        assert plan.unique_traces == 2

    def test_targets_schedule_extra_configs(self):
        plan = plan_sweep(small_sweep(targets=(1, 3)))
        assert plan.unique_traces == 4
        assert sorted({(s.seed, s.config) for s in plan.simulations}) == [
            (0, 1), (0, 3), (1, 1), (1, 3),
        ]

    def test_keys_match_engine(self):
        engine = AnalysisEngine()
        plan = plan_sweep(small_sweep(), noise_sigma=engine.noise_sigma)
        assert plan.trace_keys == tuple(
            engine.trace_key(spec) for spec in plan.simulations
        )

    def test_noise_sigma_changes_keys(self):
        spec = AnalysisSpec(network="gnmt", scale=SCALE)
        assert trace_key(spec, 0.0) != trace_key(spec, 0.02)


class TestRunSweep:
    def test_serial_matches_plain_loop(self):
        sweep = small_sweep()
        run = run_sweep(sweep, mode="serial")
        assert [r.to_dict() for r in run.results] == serial_reference(sweep)
        assert run.mode == "serial"
        assert run.unique_traces == 2

    def test_results_in_expansion_order(self):
        sweep = small_sweep()
        run = run_sweep(sweep, mode="serial")
        assert [r.spec for r in run.results] == list(sweep.expand())

    def test_engine_method_delegates(self):
        sweep = small_sweep()
        run = AnalysisEngine().run_sweep(sweep, mode="serial")
        assert [r.to_dict() for r in run.results] == serial_reference(sweep)

    def test_run_to_dict_shape(self):
        run = run_sweep(small_sweep(), mode="serial")
        payload = run.to_dict()
        assert payload["mode"] == "serial"
        assert payload["unique_traces"] == 2
        assert len(payload["results"]) == len(run) == 4
        assert payload["sweep"] == small_sweep().to_dict()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep mode"):
            run_sweep(small_sweep(), mode="fork-bomb")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_sweep(small_sweep(), workers=0)


class TestProcessPool:
    """One spawn-backed test: the expensive, load-bearing guarantee."""

    def test_process_matches_plain_loop(self, tmp_path):
        sweep = small_sweep(targets=(1, 3))
        run = run_sweep(sweep, mode="process", workers=2, cache_dir=tmp_path)
        assert [r.to_dict() for r in run.results] == serial_reference(sweep)
        assert run.mode == "process"
        # Workers left one artefact per unique trace in the shared cache.
        assert len(list(tmp_path.glob("*.npt"))) == run.unique_traces == 4
