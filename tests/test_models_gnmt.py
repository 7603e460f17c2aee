"""Unit tests for the GNMT model builder."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.config import paper_config
from repro.models.gnmt import GnmtModel, build_gnmt
from repro.models.spec import IterationInputs
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestStructure:
    def test_paper_layer_inventory(self):
        model = build_gnmt()
        # Eight encoder layers, the first bidirectional.
        assert len(model.encoder) == 8
        assert model.encoder[0].bidirectional
        assert all(not layer.bidirectional for layer in model.encoder[1:])
        # Eight decoder layers, attention, classifier.
        assert len(model.decoder) == 8
        assert model.classifier.out_features == 36549

    def test_paper_dimensions(self):
        model = build_gnmt()
        assert model.vocab == 36549
        assert model.hidden == 1024

    def test_param_count_magnitude(self):
        # GNMT at these dimensions carries a few hundred million params.
        assert 150e6 < build_gnmt().param_count() < 500e6

    def test_too_few_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            GnmtModel(encoder_layers=1)


class TestLowering:
    def test_schedule_scales_with_src(self):
        model = build_gnmt()
        short = model.lower_iteration(IterationInputs(64, 10, 11), CONFIG)
        long_ = model.lower_iteration(IterationInputs(64, 100, 110), CONFIG)
        assert long_.launch_count > 5 * short.launch_count
        assert long_.total_flops > 5 * short.total_flops

    def test_classifier_gemm_matches_table1(self):
        model = build_gnmt()
        schedule = model.lower_iteration(IterationInputs(64, 80, 94), CONFIG)
        assert (36549, 64 * 94, 1024) in schedule.gemm_shapes()

    def test_tgt_len_defaults_to_ratio(self):
        model = build_gnmt()
        assert model.target_steps(IterationInputs(64, 100)) == 110

    def test_explicit_tgt_len_respected(self):
        model = build_gnmt()
        assert model.target_steps(IterationInputs(64, 100, 57)) == 57

    def test_forward_subset_of_iteration(self):
        model = build_gnmt()
        inputs = IterationInputs(64, 20, 22)
        fwd = model.lower_forward(inputs, CONFIG)
        full = model.lower_iteration(inputs, CONFIG)
        assert full.launch_count > fwd.launch_count
        assert full.total_flops > 2 * fwd.total_flops

    def test_sequence_dependent(self):
        assert build_gnmt().sequence_dependent

    def test_optimizer_updates_present(self):
        model = build_gnmt()
        schedule = model.lower_iteration(IterationInputs(64, 10, 11), CONFIG)
        ops = {inv.op for inv, _ in schedule}
        assert "sgd_momentum" in ops

    def test_same_inputs_same_schedule(self, device1):
        # Key Observation 4: lowering is a pure function of the inputs.
        model = build_gnmt()
        inputs = IterationInputs(64, 33, 36)
        a = model.lower_iteration(inputs, CONFIG)
        b = model.lower_iteration(inputs, CONFIG)
        time_a = sum(one_row(device1.run_batch, inv.work).time_s * c for inv, c in a)
        time_b = sum(one_row(device1.run_batch, inv.work).time_s * c for inv, c in b)
        assert time_a == time_b
