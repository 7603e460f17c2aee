"""Unit tests for the ConvS2S-style model (paper §VII-B)."""

from repro.hw.config import paper_config
from repro.models.convs2s import build_convs2s
from repro.models.spec import IterationInputs
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestConvS2S:
    def test_sequence_length_preserved(self):
        model = build_convs2s(layers=3)
        # "Same" padding: the classifier sees the input length.
        assert model.final_steps(IterationInputs(8, 57)) == 57

    def test_classifier_positions_scale_with_sl(self):
        model = build_convs2s(vocab=5000, hidden=128, layers=2)
        schedule = model.lower_iteration(IterationInputs(8, 40), CONFIG)
        assert any(
            shape == (5000, 8 * 40, 128) for shape in schedule.gemm_shapes()
        )

    def test_runtime_near_linear_in_sl(self, device1):
        model = build_convs2s(layers=4)

        def iteration_time(steps):
            schedule = model.lower_iteration(IterationInputs(16, steps), CONFIG)
            return sum(one_row(device1.run_batch, inv.work).time_s * c for inv, c in schedule)

        ratio = iteration_time(200) / iteration_time(100)
        assert 1.6 < ratio < 2.4

    def test_all_kernels_batched(self):
        model = build_convs2s(layers=2)
        schedule = model.lower_iteration(IterationInputs(8, 64), CONFIG)
        assert all(count == 1 for _, count in schedule)

    def test_param_count_positive(self):
        assert build_convs2s().param_count() > 10e6
