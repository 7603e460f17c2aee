"""Unit tests for the fixed-input CNN (the Fig 3 contrast)."""


from repro.hw.config import paper_config
from repro.models.cnn import build_cnn
from repro.models.spec import IterationInputs
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestCnn:
    def test_not_sequence_dependent(self):
        assert not build_cnn().sequence_dependent

    def test_iteration_identical_across_seq_lens(self, device1):
        model = build_cnn()

        def iteration_time(seq_len):
            schedule = model.lower_iteration(IterationInputs(64, seq_len), CONFIG)
            return sum(one_row(device1.run_batch, inv.work).time_s * c for inv, c in schedule)

        assert iteration_time(10) == iteration_time(500)

    def test_classifier_runs_once_per_image(self):
        model = build_cnn()
        schedule = model.lower_iteration(IterationInputs(32, 7), CONFIG)
        assert (1000, 32, 512) in schedule.gemm_shapes()

    def test_param_count_positive(self):
        assert build_cnn().param_count() > 1e6

    def test_forward_cheaper_than_iteration(self):
        model = build_cnn()
        inputs = IterationInputs(64, 1)
        assert (
            model.lower_forward(inputs, CONFIG).total_flops
            < model.lower_iteration(inputs, CONFIG).total_flops
        )
