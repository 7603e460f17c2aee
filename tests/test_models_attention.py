"""Unit tests for the attention layer."""

import pytest

from repro.errors import LoweringError
from repro.hw.config import paper_config
from repro.models.layers.attention import AttentionLayer
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestAttention:
    def layer(self, src: int = 50) -> AttentionLayer:
        attention = AttentionLayer("attn", hidden=1024)
        attention.bind_source(src)
        return attention

    def test_requires_bound_source(self):
        attention = AttentionLayer("attn", hidden=64)
        with pytest.raises(LoweringError, match="bind_source"):
            list(attention.forward(4, 5, CONFIG))

    def test_per_step_kernels_count_decoder_steps(self):
        counts = [
            count for inv, count in self.layer().forward(64, 30, CONFIG)
            if inv.group == "GEMM-2"
        ]
        assert counts and all(count == 30 for count in counts)

    def test_quadratic_traffic_term(self, device1):
        # The additive-attention tensor is [B, src, H]: doubling both
        # source and target more than doubles attention time.
        def total(src, tgt):
            layer = self.layer(src)
            return sum(
                one_row(device1.run_batch, inv.work).time_s * count
                for inv, count in layer.forward(64, tgt, CONFIG)
            )

        assert total(100, 100) > 2.5 * total(50, 50)

    def test_source_length_in_score_shape(self):
        shapes = [
            inv.shape for inv, _ in self.layer(77).forward(64, 10, CONFIG)
            if inv.op == "gemm"
        ]
        assert any(77 in shape for shape in shapes)

    def test_rebinding_changes_lowering(self):
        attention = AttentionLayer("attn", hidden=64)
        attention.bind_source(10)
        small = sum(inv.flops * c for inv, c in attention.forward(4, 5, CONFIG))
        attention.bind_source(100)
        large = sum(inv.flops * c for inv, c in attention.forward(4, 5, CONFIG))
        assert large > small

    def test_invalid_source_rejected(self):
        attention = AttentionLayer("attn", hidden=64)
        with pytest.raises(LoweringError):
            attention.bind_source(0)

    def test_param_count(self):
        assert AttentionLayer("attn", 64).param_count() == 64 * 64 + 64 + 2 * 64 * 64
