"""Unit tests for the service wire protocol: envelopes and parsing."""

import pytest

from repro.api.parallel import SweepSpec
from repro.api.spec import AnalysisSpec, ProjectionSpec
from repro.errors import ConfigurationError, ReproError
from repro.serve.protocol import (
    JOB_KINDS,
    PROTOCOL_VERSION,
    NotFoundError,
    ProtocolError,
    error_envelope,
    error_status,
    ok_envelope,
    one_line,
    parse_job_submission,
    parse_records,
    parse_stream_open,
)
from repro.stream.spec import StreamSpec
from repro.traffic.spec import TrafficSpec

ANALYSIS = AnalysisSpec(network="gnmt", scale=0.02).to_dict()
SWEEP = SweepSpec(networks=("gnmt",), scales=(0.02,)).to_dict()
STREAM = StreamSpec(analysis=AnalysisSpec(network="gnmt", scale=0.02)).to_dict()
TRAFFIC = TrafficSpec(
    analysis=AnalysisSpec(network="gnmt", scale=0.02), requests=64
).to_dict()


class TestEnvelopes:
    def test_ok_envelope_merges_payload(self):
        envelope = ok_envelope({"job": {"id": "job-1"}})
        assert envelope == {
            "v": PROTOCOL_VERSION, "ok": True, "job": {"id": "job-1"},
        }

    def test_ok_envelope_empty(self):
        assert ok_envelope() == {"v": PROTOCOL_VERSION, "ok": True}

    def test_error_envelope_is_structured_and_one_line(self):
        envelope = error_envelope(ConfigurationError("bad\n  spec\tfield"))
        assert envelope["v"] == PROTOCOL_VERSION
        assert envelope["ok"] is False
        assert envelope["error"] == {
            "type": "ConfigurationError", "message": "bad spec field",
        }
        assert "\n" not in envelope["error"]["message"]

    def test_one_line_collapses_whitespace(self):
        assert one_line("a\nb\t c  d") == "a b c d"
        assert one_line("") == "unknown error"

    @pytest.mark.parametrize(
        ("exc", "status"),
        [
            (NotFoundError("gone"), 404),
            (ProtocolError("bad"), 400),
            (ConfigurationError("bad"), 400),
            (ReproError("bad"), 400),
            (RuntimeError("bug"), 500),
        ],
    )
    def test_error_status_mapping(self, exc, status):
        assert error_status(exc) == status


class TestParseJobSubmission:
    def test_analyze_round_trips_the_spec(self):
        request = parse_job_submission({"kind": "analyze", "spec": ANALYSIS})
        assert request.kind == "analyze"
        assert request.spec == AnalysisSpec.from_dict(ANALYSIS)
        assert request.projection is None
        assert "gnmt" in request.describe()

    def test_analyze_with_projection(self):
        request = parse_job_submission(
            {
                "kind": "analyze",
                "spec": ANALYSIS,
                "projection": {"targets": [1, 3]},
            }
        )
        assert request.projection == ProjectionSpec(targets=(1, 3))

    def test_sweep_with_mode_and_workers(self):
        request = parse_job_submission(
            {"kind": "sweep", "spec": SWEEP, "mode": "serial", "workers": 2}
        )
        assert request.kind == "sweep"
        assert request.spec == SweepSpec.from_dict(SWEEP)
        assert request.mode == "serial"
        assert request.workers == 2
        assert "points" in request.describe()

    def test_stream(self):
        request = parse_job_submission({"kind": "stream", "spec": STREAM})
        assert request.kind == "stream"
        assert request.spec == StreamSpec.from_dict(STREAM)

    @pytest.mark.parametrize("payload", [None, [], "analyze", 7])
    def test_non_object_payload_rejected(self, payload):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_job_submission(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            parse_job_submission({"kind": "bogus", "spec": ANALYSIS})
        assert "analyze" in str(JOB_KINDS)

    def test_missing_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            parse_job_submission({"spec": ANALYSIS})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job fields: extra"):
            parse_job_submission(
                {"kind": "analyze", "spec": ANALYSIS, "extra": 1}
            )

    def test_missing_spec_rejected(self):
        with pytest.raises(ProtocolError, match="spec must be a JSON object"):
            parse_job_submission({"kind": "analyze"})

    def test_traffic_job_parses_its_spec(self):
        request = parse_job_submission({"kind": "traffic", "spec": TRAFFIC})
        assert request.kind == "traffic"
        assert request.spec == TrafficSpec.from_dict(TRAFFIC)
        assert request.describe() == "traffic gnmt (64 requests)"

    def test_traffic_kind_registered(self):
        assert "traffic" in JOB_KINDS

    def test_projection_rejected_for_traffic(self):
        with pytest.raises(ProtocolError, match="projection only applies"):
            parse_job_submission(
                {
                    "kind": "traffic",
                    "spec": TRAFFIC,
                    "projection": {"targets": [1]},
                }
            )

    def test_sweep_options_rejected_for_traffic(self):
        with pytest.raises(ProtocolError, match="only apply to sweep"):
            parse_job_submission(
                {"kind": "traffic", "spec": TRAFFIC, "workers": 2}
            )

    def test_projection_rejected_for_sweeps(self):
        with pytest.raises(ProtocolError, match="projection only applies"):
            parse_job_submission(
                {
                    "kind": "sweep",
                    "spec": SWEEP,
                    "projection": {"targets": [1]},
                }
            )

    def test_mode_rejected_for_analyze(self):
        with pytest.raises(ProtocolError, match="only apply to sweep"):
            parse_job_submission(
                {"kind": "analyze", "spec": ANALYSIS, "mode": "serial"}
            )

    def test_unknown_sweep_mode_rejected(self):
        with pytest.raises(ProtocolError, match="unknown sweep mode"):
            parse_job_submission(
                {"kind": "sweep", "spec": SWEEP, "mode": "quantum"}
            )

    def test_thread_sweep_mode_is_unknown(self):
        """Thread mode was removed: a GIL-bound pool never beat serial."""
        with pytest.raises(
            ProtocolError,
            match="unknown sweep mode 'thread'; expected one of: serial, process",
        ):
            parse_job_submission(
                {"kind": "sweep", "spec": SWEEP, "mode": "thread"}
            )

    @pytest.mark.parametrize("workers", [0, -1, True, "four", 2.5])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ProtocolError, match="workers must be"):
            parse_job_submission(
                {"kind": "sweep", "spec": SWEEP, "workers": workers}
            )

    def test_invalid_spec_contents_surface_configuration_error(self):
        bad = dict(ANALYSIS, network="bert")
        with pytest.raises(ConfigurationError, match="bert"):
            parse_job_submission({"kind": "analyze", "spec": bad})


class TestParseStreamOpen:
    def test_defaults_to_live(self):
        spec, replay = parse_stream_open({"spec": STREAM})
        assert spec == StreamSpec.from_dict(STREAM)
        assert replay is False

    def test_replay_flag(self):
        _, replay = parse_stream_open({"spec": STREAM, "replay": True})
        assert replay is True

    def test_non_boolean_replay_rejected(self):
        with pytest.raises(ProtocolError, match="replay must be a boolean"):
            parse_stream_open({"spec": STREAM, "replay": 1})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown stream fields"):
            parse_stream_open({"spec": STREAM, "mode": "fast"})

    def test_missing_spec_rejected(self):
        with pytest.raises(ProtocolError, match="spec must be a JSON object"):
            parse_stream_open({"replay": True})


class TestParseRecords:
    def test_normalises_defaults(self):
        parsed = parse_records(
            {
                "records": [
                    {"seq_len": 10, "time_s": 0.1},
                    {"seq_len": 20, "time_s": 0.2, "tgt_len": 5, "epoch": 2},
                ]
            }
        )
        assert parsed == [
            {"seq_len": 10, "time_s": 0.1, "tgt_len": None, "epoch": 0},
            {"seq_len": 20, "time_s": 0.2, "tgt_len": 5, "epoch": 2},
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"records": []},
            {"records": "lots"},
        ],
    )
    def test_missing_or_empty_records_rejected(self, payload):
        with pytest.raises(ProtocolError, match="non-empty 'records'"):
            parse_records(payload)

    def test_non_object_record_rejected(self):
        with pytest.raises(ProtocolError, match=r"records\[1\]"):
            parse_records({"records": [{"seq_len": 1, "time_s": 0.1}, 7]})

    def test_unknown_record_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fields: speed"):
            parse_records(
                {"records": [{"seq_len": 1, "time_s": 0.1, "speed": 9}]}
            )

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ProtocolError, match="integer seq_len"):
            parse_records({"records": [{"seq_len": 1}]})

    def test_non_positive_values_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            parse_records({"records": [{"seq_len": 0, "time_s": 0.1}]})
        with pytest.raises(ConfigurationError, match="positive"):
            parse_records({"records": [{"seq_len": 1, "time_s": 0.0}]})
