"""Unit tests for the command-line interface."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.parallel import SweepSpec
from repro.api.spec import AnalysisSpec, ProjectionSpec
from repro.cli import ServeSpec, build_parser, main
from repro.stream.spec import StreamSpec
from repro.traffic.spec import TrafficSpec


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert f"repro {__version__}" in capsys.readouterr().out


class TestConfigs:
    def test_lists_five_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert out.count("config#") == 5
        assert "L1 off" in out
        assert "L2 off" in out


class TestIdentify:
    def test_prints_seqpoints(self, capsys):
        assert main(["identify", "--network", "ds2", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "SeqPoints:" in out
        assert "SL" in out

    def test_requires_network(self, capsys):
        with pytest.raises(SystemExit):
            main(["identify"])

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            main(["identify", "--network", "bert"])

    def test_json_format(self, capsys):
        assert main(
            ["identify", "--network", "ds2", "--scale", "0.01",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"] == "ds2"
        assert payload["k"] >= 0
        assert payload["seqpoints"]
        for point in payload["seqpoints"]:
            assert {"seq_len", "weight", "time_s"} <= set(point)


class TestAnalyze:
    def test_json_output(self, capsys):
        assert main(
            ["analyze", "--network", "gnmt", "--scale", "0.01",
             "--targets", "1,3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "seqpoint"
        assert payload["spec"]["dataset"] == "iwslt"
        assert [p["config"] for p in payload["projections"]] == [1, 3]
        for projection in payload["projections"]:
            assert {"projected_time_s", "actual_time_s", "error_pct",
                    "projected_uplift_pct"} <= set(projection)

    def test_table_output(self, capsys):
        assert main(
            ["analyze", "--network", "gnmt", "--scale", "0.01"]
        ) == 0
        out = capsys.readouterr().out
        assert "selected points" in out
        assert "projections" in out
        assert "config#1" in out

    def test_spec_file_matches_inline(self, tmp_path, capsys):
        assert main(
            ["analyze", "--network", "gnmt", "--scale", "0.01",
             "--targets", "1,3", "--format", "json"]
        ) == 0
        inline = json.loads(capsys.readouterr().out)

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(inline["spec"]), encoding="utf-8")
        assert main(
            ["analyze", "--spec", str(spec_file), "--targets", "1,3",
             "--format", "json"]
        ) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert from_file == inline

    def test_selector_args(self, capsys):
        assert main(
            ["analyze", "--network", "gnmt", "--scale", "0.01",
             "--selector", "kmeans", "--selector-arg", "k=3",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "kmeans"
        assert payload["spec"]["selector_kwargs"] == {"k": 3}
        assert len(payload["points"]) <= 3

    def test_inline_flags_override_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            '{"network": "gnmt", "scale": 0.01, "batch_size": 64}',
            encoding="utf-8",
        )
        assert main(
            ["analyze", "--spec", str(spec_file), "--batch-size", "32",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["batch_size"] == 32  # inline wins
        assert payload["spec"]["scale"] == 0.01  # file fields survive

    def test_missing_network(self, capsys):
        assert main(["analyze"]) == 2
        assert "--network" in capsys.readouterr().err

    def test_bad_selector_arg(self, capsys):
        assert main(
            ["analyze", "--network", "gnmt", "--selector-arg", "oops"]
        ) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_bad_spec_payload(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"network": "gnmt", "nope": 1}', encoding="utf-8")
        assert main(["analyze", "--spec", str(spec_file)]) == 2
        assert "unknown AnalysisSpec" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert main(["analyze", "--spec", "/does/not/exist.json"]) == 2
        assert "analyze:" in capsys.readouterr().err

    def test_matches_library_api(self, capsys):
        """CLI and programmatic engine produce identical numbers."""
        from repro.api import AnalysisEngine, AnalysisSpec, ProjectionSpec

        payload = json.dumps({"network": "gnmt", "scale": 0.01})
        spec = AnalysisSpec.from_dict(json.loads(payload))
        expected = AnalysisEngine().run(spec, ProjectionSpec(targets=(1, 3)))

        assert main(
            ["analyze", "--network", "gnmt", "--scale", "0.01",
             "--targets", "1,3", "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json.dumps(expected.to_dict())
        )

    def test_cache_dir(self, tmp_path, capsys):
        args = ["analyze", "--network", "gnmt", "--scale", "0.01",
                "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        cached = list(tmp_path.glob("*.npt"))
        assert len(cached) == 1
        assert main(args) == 0  # second run reuses the on-disk trace
        assert json.loads(capsys.readouterr().out) == first


class TestSweep:
    def test_json_output_matches_library(self, capsys):
        from repro.api import SweepSpec, run_sweep

        assert main(
            ["sweep", "--networks", "gnmt", "--scales", "0.01",
             "--seeds", "0,1", "--mode", "serial", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "serial"
        assert payload["unique_traces"] == 2
        assert len(payload["results"]) == 2

        expected = run_sweep(
            SweepSpec(networks=("gnmt",), scales=(0.01,), seeds=(0, 1)),
            mode="serial",
        )
        assert payload["results"] == json.loads(
            json.dumps([r.to_dict() for r in expected.results])
        )

    def test_table_output(self, capsys):
        assert main(
            ["sweep", "--networks", "gnmt", "--scales", "0.01",
             "--selectors", "seqpoint,frequent", "--mode", "serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep results" in out
        assert "frequent" in out
        assert "2 analysis points, 1 unique traces" in out

    def test_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(
            json.dumps({"networks": ["gnmt"], "scales": [0.01], "seeds": [0, 1]}),
            encoding="utf-8",
        )
        assert main(
            ["sweep", "--spec", str(spec_file), "--mode", "serial",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["seeds"] == [0, 1]

    def test_inline_flags_override_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(
            json.dumps({"networks": ["gnmt"], "scales": [0.5],
                        "seeds": [0, 1]}),
            encoding="utf-8",
        )
        assert main(
            ["sweep", "--spec", str(spec_file), "--scales", "0.01",
             "--mode", "serial", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"]["scales"] == [0.01]  # inline wins
        assert payload["sweep"]["seeds"] == [0, 1]  # file fields survive

    def test_missing_networks(self, capsys):
        assert main(["sweep"]) == 2
        assert "--networks" in capsys.readouterr().err

    def test_unknown_network_clean_error(self, capsys):
        assert main(["sweep", "--networks", "bert", "--mode", "serial"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, no traceback
        assert "unknown model 'bert'" in err

    def test_thread_mode_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--networks", "gnmt", "--mode", "thread"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'thread'" in err
        assert "Traceback" not in err


class TestStream:
    def test_json_output_matches_library(self, capsys):
        from repro.api import default_engine
        from repro.stream import StreamSpec

        args = ["stream", "--network", "gnmt", "--scale", "0.01",
                "--cadence", "8", "--patience", "2", "--rtol", "0.05",
                "--sl-rtol", "0.3", "--format", "json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["cadence"] == 8
        assert payload["epoch_iterations"] > 0
        assert payload["iterations_consumed"] <= payload["epoch_iterations"]
        assert payload["checks"]

        expected = default_engine().run_streaming(
            StreamSpec.from_dict(payload["spec"])
        )
        assert payload == json.loads(json.dumps(expected.to_dict()))

    def test_table_output(self, capsys):
        assert main(["stream", "--network", "gnmt", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "consumed" in out
        assert "selected points" in out
        assert "projected epoch" in out

    def test_spec_file_matches_inline(self, tmp_path, capsys):
        spec_file = tmp_path / "stream.json"
        spec_file.write_text(
            json.dumps({
                "analysis": {"network": "gnmt", "scale": 0.01},
                "cadence": 8, "patience": 2,
            }),
            encoding="utf-8",
        )
        assert main(["stream", "--spec", str(spec_file),
                     "--format", "json"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["stream", "--network", "gnmt", "--scale", "0.01",
                     "--cadence", "8", "--patience", "2",
                     "--format", "json"]) == 0
        inline = json.loads(capsys.readouterr().out)
        assert from_file == inline

    def test_inline_flags_override_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "stream.json"
        spec_file.write_text(
            json.dumps({"analysis": {"network": "gnmt", "scale": 0.01},
                        "cadence": 64, "patience": 2}),
            encoding="utf-8",
        )
        assert main(["stream", "--spec", str(spec_file), "--cadence", "8",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["cadence"] == 8  # inline wins
        assert payload["spec"]["patience"] == 2  # file knobs survive
        assert payload["spec"]["analysis"]["scale"] == 0.01

    def test_missing_network(self, capsys):
        assert main(["stream"]) == 2
        assert "--network" in capsys.readouterr().err

    def test_cache_dir_reuses_traces(self, tmp_path, capsys):
        args = ["stream", "--network", "gnmt", "--scale", "0.01",
                "--cache-dir", str(tmp_path), "--format", "json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert list(tmp_path.glob("*.npt"))
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == first


class TestTraffic:
    _FAST = ["--network", "gnmt", "--scale", "0.02", "--requests", "64",
             "--rate", "64", "--cadence", "4", "--patience", "2",
             "--rtol", "0.05"]

    def test_json_output_matches_library(self, capsys):
        from repro.api import default_engine
        from repro.traffic import TrafficSpec

        assert main(["traffic", *self._FAST, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["arrival"] == "poisson"
        assert payload["requests"] == 64
        assert payload["latency"]["count"] == 64

        expected = default_engine().run_traffic(
            TrafficSpec.from_dict(payload["spec"])
        )
        assert payload == json.loads(json.dumps(expected.to_dict()))

    def test_table_output(self, capsys):
        assert main(["traffic", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "request latency (SLO view)" in out
        assert "p95" in out
        assert "streaming" in out

    def test_inline_flags_override_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "traffic.json"
        spec_file.write_text(
            json.dumps({
                "analysis": {"network": "gnmt", "scale": 0.02},
                "requests": 512, "arrival": "deterministic",
                "cadence": 4, "patience": 2, "rtol": 0.05,
            }),
            encoding="utf-8",
        )
        assert main(["traffic", "--spec", str(spec_file),
                     "--requests", "64", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["requests"] == 64  # inline wins
        assert payload["spec"]["arrival"] == "deterministic"  # file survives
        assert payload["spec"]["analysis"]["scale"] == 0.02

    def test_offline_arrival_with_projections(self, capsys):
        assert main(
            ["traffic", *self._FAST, "--arrival", "offline",
             "--targets", "1,3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["config"] for p in payload["projections"]] == [1, 3]

    def test_missing_network(self, capsys):
        assert main(["traffic"]) == 2
        assert "--network" in capsys.readouterr().err

    def test_bad_phases_json_exits_2(self, capsys):
        assert main(["traffic", *self._FAST, "--phases", "{nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--phases" in err

    def test_bad_mix_exits_2(self, capsys):
        assert main(
            ["traffic", *self._FAST,
             "--phases", '[{"fraction": 0.0}]']
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "fraction" in err

    def test_plan_store_dir_flag_populates_store(self, tmp_path, capsys):
        from repro.models.plan import PLAN_CACHE

        PLAN_CACHE.clear()  # force lowerings through the attached store
        plans = tmp_path / "plans"
        assert main(
            ["traffic", *self._FAST, "--format", "json",
             "--plan-store-dir", str(plans)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["requests"] == 64
        assert list(plans.glob("*.npt"))


class TestCleanErrors:
    """Library failures exit 2 with one stderr line, never a traceback."""

    def test_analyze_unknown_selector_kwarg(self, capsys):
        assert main(["analyze", "--network", "gnmt", "--scale", "0.01",
                     "--selector-arg", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "rejected kwargs" in err
        assert "Traceback" not in err

    def test_stream_unknown_selector_kwarg(self, capsys):
        assert main(["stream", "--network", "gnmt", "--scale", "0.01",
                     "--selector-arg", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "rejected kwargs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("selector", "arg"),
        [
            ("seqpoint", "initial_bins=2.5"),
            ("seqpoint", "error_threshold_pct=\"tight\""),
            ("kmeans", "seed=1.5"),
            ("kmeans", "k=\"many\""),
            ("prior", "window=0.5"),
        ],
    )
    def test_wrongly_typed_selector_kwargs_fail_eagerly(
        self, capsys, selector, arg
    ):
        """Type confusion fails at spec construction, not mid-selection."""
        for command in ("analyze", "stream"):
            assert main([command, "--network", "gnmt", "--scale", "0.01",
                         "--selector", selector, "--selector-arg", arg]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "rejected kwargs" in err

    def test_stream_bad_cadence(self, capsys):
        assert main(["stream", "--network", "gnmt", "--scale", "0.01",
                     "--cadence", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cadence" in err

    def test_stream_unknown_spec_fields(self, tmp_path, capsys):
        spec_file = tmp_path / "stream.json"
        spec_file.write_text(
            '{"analysis": {"network": "gnmt"}, "nope": 1}', encoding="utf-8"
        )
        assert main(["stream", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown StreamSpec" in err

    def test_identify_bad_scale(self, capsys):
        assert main(["identify", "--network", "gnmt", "--scale", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "scale must lie in (0, 1]" in err

    def test_analyze_unknown_network_in_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"network": "bert"}', encoding="utf-8")
        assert main(["analyze", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown model 'bert'" in err

    def test_analyze_registered_model_without_pairing(self, capsys):
        """A downstream model with no paper dataset fails cleanly too."""
        from repro.api.registry import MODELS

        @MODELS.register("_cli_orphan")
        def _build():  # pragma: no cover - never invoked
            raise AssertionError

        try:
            assert main(["sweep", "--networks", "_cli_orphan",
                         "--mode", "serial"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "no default dataset" in err
        finally:
            MODELS._entries.pop("_cli_orphan")


class TestTraceConvert:
    """`repro trace convert` migrates artefacts between formats."""

    @staticmethod
    def seed_trace():
        from tests.conftest import make_trace

        return make_trace([(10, 1.0), (20, 2.0), (10, 1.0)])

    @staticmethod
    def payload(path):
        from repro.train.trace import TrainingTrace

        return json.dumps(
            TrainingTrace.load(path).frame().to_payload(), sort_keys=True
        )

    def test_v2_json_to_v3_binary(self, tmp_path, capsys):
        from repro.util.npt import is_npt

        src, dst = tmp_path / "t.json", tmp_path / "t.npt"
        self.seed_trace().save(src, version=2)
        assert main(["trace", "convert", str(src), str(dst)]) == 0
        out = capsys.readouterr().out
        assert "round trip verified" in out
        assert "3 iterations" in out
        assert is_npt(dst)
        assert self.payload(dst) == self.payload(src)

    def test_v3_binary_back_to_v2_json(self, tmp_path, capsys):
        trace = self.seed_trace()
        v2, v3, back = tmp_path / "a.json", tmp_path / "t.npt", tmp_path / "b.json"
        trace.save(v2, version=2)
        trace.save(v3)
        assert main(["trace", "convert", str(v3), str(back), "--to", "2"]) == 0
        # Byte-identical to a direct v2 dump: nothing lost in the binary hop.
        assert back.read_bytes() == v2.read_bytes()

    def test_unknown_target_version_clean_error(self, tmp_path, capsys):
        src = tmp_path / "t.json"
        self.seed_trace().save(src, version=2)
        assert main(
            ["trace", "convert", str(src), str(tmp_path / "o"), "--to", "99"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown trace format version 99" in err
        assert "Traceback" not in err

    def test_v1_is_not_a_target(self, tmp_path, capsys):
        src, dst = tmp_path / "t.json", tmp_path / "o.json"
        self.seed_trace().save(src, version=2)
        assert main(["trace", "convert", str(src), str(dst), "--to", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("trace: unknown trace format version 1")
        assert not dst.exists()

    def test_missing_source_clean_error(self, tmp_path, capsys):
        assert main(
            ["trace", "convert", str(tmp_path / "absent.json"),
             str(tmp_path / "o.npt")]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("trace:")


class TestSweepPlanStore:
    def test_plan_store_dir_flag_populates_store(self, tmp_path, capsys):
        from repro.models.plan import PLAN_CACHE

        PLAN_CACHE.clear()  # force lowerings through the attached store
        plans = tmp_path / "plans"
        assert main(
            ["sweep", "--networks", "gnmt", "--scales", "0.01",
             "--mode", "serial", "--format", "json",
             "--plan-store-dir", str(plans)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "serial"
        assert list(plans.glob("*.npt"))


class TestExperiments:
    def test_selected_ids(self, capsys):
        assert main(["experiments", "--scale", "0.01", "--ids", "table2"]) == 0
        out = capsys.readouterr().out
        assert "[table2]" in out

    def test_unknown_id_fails(self, capsys):
        assert main(["experiments", "--ids", "fig99"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "tables.txt"
        assert main(
            ["experiments", "--scale", "0.01", "--ids", "table2",
             "--output", str(target)]
        ) == 0
        assert "[table2]" in target.read_text()


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


_MODELS = ("cnn", "convs2s", "ds2", "gnmt", "transformer")
_SELECTORS = (
    "frequent", "kmeans", "median", "prior", "segmented", "segmented-drift",
    "seqpoint", "worst",
)
_S, _A = "_StoreAction", "_AppendAction"


def _opt(dest, type_=None, choices=None, default=None, action=_S, nargs=None):
    return (dest, type_, choices, default, action, nargs)


#: Flags shared verbatim by several subcommands.
_FORMAT = {"--format": _opt("format", None, ("table", "json"), "table")}
_SPEC = {"--spec": _opt("spec")}
_CACHE_DIR = {"--cache-dir": _opt("cache_dir")}
_PLAN_STORE_DIR = {"--plan-store-dir": _opt("plan_store_dir")}
_ANALYSIS = {
    "--network": _opt("network", None, _MODELS),
    "--dataset": _opt("dataset", None, ("iwslt", "librispeech")),
    "--batching": _opt(
        "batching", None, ("pooled", "shuffled", "sortagrad", "sorted")
    ),
    "--batch-size": _opt("batch_size", "int"),
    "--config": _opt("config", "int"),
    "--scale": _opt("scale", "float"),
    "--seed": _opt("seed", "int"),
    "--selector": _opt("selector", None, _SELECTORS),
    "--selector-arg": _opt("selector_arg", None, None, [], _A),
}
_KNOBS = {
    "--cadence": _opt("cadence", "int"),
    "--patience": _opt("patience", "int"),
    "--rtol": _opt("rtol", "float"),
    "--drift-rtol": _opt("drift_rtol", "float"),
    "--sl-rtol": _opt("sl_rtol", "float"),
    "--min-iterations": _opt("min_iterations", "int"),
}

#: The frozen flag surface of every subcommand: option string ->
#: (dest, type, choices, argparse default, action, nargs).
FLAG_SURFACE = {
    "configs": {},
    "identify": {
        "--network": _opt("network", None, _MODELS),
        "--scale": _opt("scale", "float", None, 0.1),
        "--threshold": _opt("threshold", "float", None, 1.0),
        **_FORMAT,
    },
    "analyze": {
        **_SPEC, **_ANALYSIS,
        "--targets": _opt("targets"),
        **_FORMAT, **_CACHE_DIR,
    },
    "sweep": {
        **_SPEC,
        "--networks": _opt("networks"),
        "--scales": _opt("scales"),
        "--configs": _opt("configs"),
        "--seeds": _opt("seeds"),
        "--batch-sizes": _opt("batch_sizes"),
        "--selectors": _opt("selectors"),
        "--targets": _opt("targets"),
        "--workers": _opt("workers", "int"),
        "--mode": _opt("mode", None, ("serial", "process"), "process"),
        **_CACHE_DIR, **_PLAN_STORE_DIR, **_FORMAT,
    },
    "stream": {
        **_SPEC, **_ANALYSIS, **_KNOBS,
        "--chunk-size": _opt("chunk_size", "int"),
        **_FORMAT, **_CACHE_DIR,
    },
    "traffic": {
        **_SPEC, **_ANALYSIS,
        "--arrival": _opt(
            "arrival", None, ("offline", "deterministic", "poisson", "bursty")
        ),
        "--rate": _opt("rate", "float"),
        "--requests": _opt("requests", "int"),
        "--max-wait": _opt("max_wait_s", "float"),
        "--burst-factor": _opt("burst_factor", "float"),
        "--on-fraction": _opt("on_fraction", "float"),
        "--period-s": _opt("period_s", "float"),
        "--phases": _opt("phases"),
        "--pad-multiple": _opt("pad_multiple", "int"),
        "--targets": _opt("targets"),
        **_PLAN_STORE_DIR, **_KNOBS, **_FORMAT, **_CACHE_DIR,
    },
    "serve": {
        **_SPEC,
        "--host": _opt("host"),
        "--port": _opt("port", "int"),
        "--workers": _opt("workers", "int"),
        "--sweep-mode": _opt("sweep_mode", None, ("serial", "process")),
        "--sweep-workers": _opt("sweep_workers", "int"),
        **_CACHE_DIR, **_PLAN_STORE_DIR,
        "--cache-max-bytes": _opt("cache_max_bytes", "int"),
        "--cache-max-entries": _opt("cache_max_entries", "int"),
        "--queue-depth": _opt("queue_depth", "int"),
        "--max-sessions": _opt("max_sessions", "int"),
        "--check": _opt("check", None, None, False, "_StoreTrueAction", 0),
    },
    "trace": {
        "trace_command": _opt(
            "trace_command", None, ("convert",), None, "_SubParsersAction",
            "A...",
        ),
    },
    "experiments": {
        "--scale": _opt("scale", "float", None, 0.1),
        "--ids": _opt("ids"),
        "--output": _opt("output"),
    },
}


def _subcommands(parser) -> dict:
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(commands.choices)


def _surface(parser) -> dict:
    surface = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = action.option_strings[0] if action.option_strings else action.dest
        assert action.option_strings in ([key], [])
        surface[key] = _opt(
            action.dest,
            getattr(action.type, "__name__", action.type),
            None if action.choices is None else tuple(action.choices),
            action.default,
            type(action).__name__,
            action.nargs,
        )
    return surface


class TestFlagSurface:
    """Every subcommand's flags, pinned: names, dests, types, defaults."""

    def test_subcommands(self):
        assert list(_subcommands(build_parser())) == list(FLAG_SURFACE)

    @pytest.mark.parametrize("command", list(FLAG_SURFACE))
    def test_flags(self, command):
        parser = _subcommands(build_parser())[command]
        assert _surface(parser) == FLAG_SURFACE[command]


def _field_flags(*specs) -> list[str]:
    """The flag each spec field declares, nested specs flattened."""
    flags = []
    for spec in specs:
        for spec_field in dataclasses.fields(spec):
            if spec_field.name == "analysis":
                flags += _field_flags(AnalysisSpec)
            else:
                name = "--" + spec_field.name.replace("_", "-")
                flags.append(spec_field.metadata.get("flag", name))
    return flags


class TestFlagsFromSpecs:
    """A spec-driven command's flags are its spec fields, one each."""

    #: Options of a run that are not spec fields.
    RUN_OPTIONS = {
        "analyze": {"--spec", "--format", "--cache-dir"},
        "sweep": {"--spec", "--workers", "--mode", "--cache-dir",
                  "--plan-store-dir", "--format"},
        "stream": {"--spec", "--format", "--cache-dir"},
        "traffic": {"--spec", "--plan-store-dir", "--format", "--cache-dir"},
        "serve": {"--spec", "--check"},
    }
    SPECS = {
        "analyze": (AnalysisSpec, ProjectionSpec),
        "sweep": (SweepSpec,),
        "stream": (StreamSpec,),
        "traffic": (TrafficSpec,),
        "serve": (ServeSpec,),
    }

    @pytest.mark.parametrize("command", list(SPECS))
    def test_one_flag_per_field(self, command):
        parser = _subcommands(build_parser())[command]
        options = {
            option
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        flags = _field_flags(*self.SPECS[command])
        assert len(flags) == len(set(flags))
        assert sorted(flags) == sorted(options - self.RUN_OPTIONS[command])

    def test_every_flag_reaches_its_field(self, capsys):
        """Each traffic flag, nested analysis included, sets its field."""
        assert main(
            ["traffic", "--network", "gnmt", "--dataset", "iwslt",
             "--batching", "sorted", "--batch-size", "32", "--config", "2",
             "--scale", "0.02", "--seed", "3", "--selector", "kmeans",
             "--selector-arg", "k=2", "--arrival", "bursty", "--rate", "32",
             "--requests", "48", "--max-wait", "0.25", "--burst-factor", "2",
             "--on-fraction", "0.25", "--period-s", "0.5",
             "--phases", '[{"fraction": 1.0, "quantile_hi": 0.9}]',
             "--pad-multiple", "4", "--targets", "1,3", "--cadence", "4",
             "--patience", "2", "--rtol", "0.05", "--drift-rtol", "0.1",
             "--sl-rtol", "0.2", "--min-iterations", "1", "--format", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["spec"] == {
            "analysis": {
                "network": "gnmt", "dataset": "iwslt", "batching": "sorted",
                "batch_size": 32, "config": 2, "scale": 0.02, "seed": 3,
                "selector": "kmeans", "selector_kwargs": {"k": 2},
            },
            "arrival": "bursty", "rate": 32.0, "requests": 48,
            "max_wait_s": 0.25, "burst_factor": 2.0, "on_fraction": 0.25,
            "period_s": 0.5,
            "phases": [{"fraction": 1.0, "quantile_lo": 0.0, "quantile_hi": 0.9}],
            "pad_multiple": 4, "targets": [1, 3], "cadence": 4, "patience": 2,
            "rtol": 0.05, "drift_rtol": 0.1, "sl_rtol": 0.2, "min_iterations": 1,
        }

    def test_every_field_has_help(self):
        for specs in self.SPECS.values():
            for spec in specs:
                for spec_field in dataclasses.fields(spec):
                    assert spec_field.name == "analysis" or spec_field.metadata["help"]

    def test_parser_does_not_import_the_daemon(self):
        """Building every command's flags leaves repro.serve unloaded."""
        code = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "loaded = [m for m in sys.modules if m.startswith('repro.serve')]; "
            "assert not loaded, loaded"
        )
        source = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [source, os.environ.get("PYTHONPATH", "")]
        )}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestServe:
    def test_check_smoke(self, capsys):
        """`repro serve --check` binds, self-requests, runs one job."""
        assert main(["serve", "--check", "--sweep-mode", "serial"]) == 0
        out = capsys.readouterr().out
        assert "serve check ok" in out
        assert "/stats" in out

    def test_check_with_disk_cache_and_budgets(self, tmp_path, capsys):
        assert main(
            ["serve", "--check", "--sweep-mode", "serial",
             "--cache-dir", str(tmp_path / "traces"),
             "--cache-max-entries", "4", "--workers", "1"]
        ) == 0
        assert "serve check ok" in capsys.readouterr().out
        assert (tmp_path / "traces").is_dir()

    def test_bad_worker_count_exits_2(self, capsys):
        assert main(["serve", "--check", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "workers must be positive" in err

    def test_bad_cache_budget_exits_2(self, capsys):
        assert main(["serve", "--check", "--cache-max-bytes", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "max_bytes" in err

    @pytest.mark.parametrize(
        "field",
        [
            "workers",
            "sweep_workers",
            "cache_max_bytes",
            "cache_max_entries",
            "queue_depth",
            "max_sessions",
        ],
    )
    def test_count_below_one_names_its_field(self, field, capsys):
        flag = "--" + field.replace("_", "-")
        assert main(["serve", "--check", "--sweep-mode", "serial", flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"serve: {field} must be positive, got 0")

    def test_unresolvable_host_exits_2(self, capsys):
        assert main(
            ["serve", "--check", "--host", "invalid.host.invalid"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot bind" in err

    def test_spec_file_supplies_options(self, tmp_path, capsys):
        spec_file = tmp_path / "serve.json"
        spec_file.write_text(
            json.dumps({"workers": 1, "sweep_mode": "serial"}),
            encoding="utf-8",
        )
        assert main(["serve", "--check", "--spec", str(spec_file)]) == 0
        assert "serve check ok" in capsys.readouterr().out

    def test_spec_unknown_field_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "serve.json"
        spec_file.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["serve", "--check", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bogus" in err

    def test_inline_flags_override_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "serve.json"
        spec_file.write_text(
            json.dumps({"workers": 0, "sweep_mode": "serial"}),
            encoding="utf-8",
        )
        # The file's bad worker count is overridden inline, so it binds.
        assert main(
            ["serve", "--check", "--spec", str(spec_file), "--workers", "1"]
        ) == 0
        assert "serve check ok" in capsys.readouterr().out

    def test_spec_with_unsupported_version_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "serve.json"
        spec_file.write_text(json.dumps({"v": 99}), encoding="utf-8")
        assert main(["serve", "--check", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "version 99 is not supported" in err

    def test_spec_with_wrongly_typed_field_names_it(self, tmp_path, capsys):
        spec_file = tmp_path / "serve.json"
        spec_file.write_text(json.dumps({"workers": "2"}), encoding="utf-8")
        assert main(["serve", "--check", "--spec", str(spec_file)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "workers must be int, got '2'" in err
