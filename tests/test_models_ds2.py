"""Unit tests for the DS2 model builder."""


from repro.hw.config import paper_config
from repro.models.ds2 import build_ds2
from repro.models.layers.conv2d import Conv2dLayer
from repro.models.layers.recurrent import GRULayer
from repro.models.spec import IterationInputs
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestStructure:
    def test_paper_layer_inventory(self):
        model = build_ds2()
        convs = [l for l in model.layers if isinstance(l, Conv2dLayer)]
        grus = [l for l in model.layers if isinstance(l, GRULayer)]
        assert len(convs) == 2
        assert len(grus) == 5
        assert all(gru.bidirectional for gru in grus)

    def test_paper_dimensions(self):
        model = build_ds2()
        assert model.alphabet == 29
        assert model.hidden == 800
        assert model.freq_bins == 161

    def test_classifier_features_are_bidirectional_width(self):
        model = build_ds2()
        classifier = model.layers[-1]
        assert classifier.in_features == 1600
        assert classifier.out_features == 29


class TestLowering:
    def test_conv_stride_halves_steps(self):
        model = build_ds2()
        # SL 804 frames reach the GRUs (and classifier) as 402 steps.
        assert model.final_steps(IterationInputs(64, 804)) == 402

    def test_classifier_gemm_matches_table1(self):
        model = build_ds2()
        schedule = model.lower_iteration(IterationInputs(64, 804), CONFIG)
        assert (29, 25728, 1600) in schedule.gemm_shapes()
        schedule_short = model.lower_iteration(IterationInputs(64, 118), CONFIG)
        assert (29, 3776, 1600) in schedule_short.gemm_shapes()

    def test_runtime_scales_with_frames(self, device1):
        model = build_ds2()

        def iteration_time(seq_len):
            schedule = model.lower_iteration(IterationInputs(64, seq_len), CONFIG)
            return sum(one_row(device1.run_batch, inv.work).time_s * c for inv, c in schedule)

        assert iteration_time(800) > 3 * iteration_time(200)

    def test_ctc_loss_present(self):
        model = build_ds2()
        ops = {
            inv.op
            for inv, _ in model.lower_iteration(IterationInputs(64, 100), CONFIG)
        }
        assert "ctc_alpha" in ops and "ctc_beta" in ops

    def test_param_count_magnitude(self):
        # DS2 at these dimensions carries tens of millions of params.
        assert 30e6 < build_ds2().param_count() < 120e6

    def test_sequence_dependent(self):
        assert build_ds2().sequence_dependent
