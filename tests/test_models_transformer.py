"""Unit tests for the Transformer encoder (paper §VII-B)."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.config import paper_config
from repro.models.layers.transformer import TransformerEncoderLayer
from repro.models.spec import IterationInputs
from repro.models.transformer import build_transformer
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestEncoderLayer:
    def test_attention_work_quadratic_in_sl(self):
        layer = TransformerEncoderLayer("enc", hidden=768, heads=12)

        def flops(steps):
            return sum(
                inv.flops * count for inv, count in layer.forward(8, steps, CONFIG)
            )

        # FFN is linear, attention quadratic: doubling SL more than
        # doubles total work but less than quadruples it.
        assert 2.0 < flops(512) / flops(256) < 4.0

    def test_no_per_step_kernels(self):
        # Unlike RNNs, every kernel launches exactly once.
        layer = TransformerEncoderLayer("enc", hidden=256, heads=4)
        assert all(
            count == 1 or inv.op.startswith("ln")
            for inv, count in layer.forward(8, 64, CONFIG)
        )

    def test_hidden_divisible_by_heads_required(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            TransformerEncoderLayer("enc", hidden=100, heads=12)

    def test_param_count_bert_base_layer(self):
        layer = TransformerEncoderLayer("enc", hidden=768, heads=12)
        # BERT-base layer: ~7.1M parameters.
        assert 6.5e6 < layer.param_count() < 8e6


class TestTransformerModel:
    def test_bert_base_param_magnitude(self):
        model = build_transformer()
        assert 80e6 < model.param_count() < 180e6

    def test_runtime_grows_superlinearly(self, device1):
        model = build_transformer(layers=2)

        def iteration_time(steps):
            schedule = model.lower_iteration(IterationInputs(16, steps), CONFIG)
            return sum(one_row(device1.run_batch, inv.work).time_s * c for inv, c in schedule)

        assert iteration_time(512) > 2.0 * iteration_time(256)

    def test_sequence_dependent(self):
        assert build_transformer(layers=1).sequence_dependent

    def test_mlm_head_over_all_positions(self):
        model = build_transformer(layers=1, vocab=1000, hidden=128, heads=8)
        schedule = model.lower_iteration(IterationInputs(4, 32), CONFIG)
        # MLM head forward: [vocab, batch*steps, hidden].
        assert (1000, 4 * 32, 128) in schedule.gemm_shapes()
