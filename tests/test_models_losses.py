"""Unit tests for the loss layers."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.config import paper_config
from repro.models.layers.losses import CTCLossLayer, SoftmaxCrossEntropyLayer
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestSoftmaxCrossEntropy:
    def test_vocab_dominates_traffic(self, device1):
        # Key Observation 6: vocabulary size drives loss-layer cost.
        small = SoftmaxCrossEntropyLayer("ce", vocab=1000)
        large = SoftmaxCrossEntropyLayer("ce", vocab=36549)

        def total(layer):
            return sum(
                one_row(device1.run_batch, inv.work).time_s * count
                for inv, count in layer.forward(64, 20, CONFIG)
            )

        assert total(large) > 10 * total(small)

    def test_reduction_span_is_vocab(self):
        layer = SoftmaxCrossEntropyLayer("ce", vocab=5000)
        spans = [
            inv.shape[1] for inv, _ in layer.forward(8, 4, CONFIG)
            if inv.op in ("softmax_max", "softmax_sum")
        ]
        assert spans == [5000, 5000]

    def test_backward_single_gradient_kernel(self):
        layer = SoftmaxCrossEntropyLayer("ce", vocab=100)
        kernels = list(layer.backward(8, 4, CONFIG))
        assert len(kernels) == 1
        assert kernels[0][0].op == "softmax_grad"

    def test_invalid_vocab_rejected(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropyLayer("ce", vocab=0)


class TestCTCLoss:
    def test_alpha_beta_per_step(self):
        layer = CTCLossLayer("ctc", alphabet=29)
        per_step = [
            (inv.op, count) for inv, count in layer.forward(64, 40, CONFIG)
            if inv.op in ("ctc_alpha", "ctc_beta")
        ]
        assert per_step == [("ctc_alpha", 40), ("ctc_beta", 40)]

    def test_lattice_width_scales_with_steps(self):
        layer = CTCLossLayer("ctc", alphabet=29)
        assert layer._lattice_width(100) > layer._lattice_width(20)

    def test_alphabet_in_softmax(self):
        layer = CTCLossLayer("ctc", alphabet=29)
        span = next(
            inv.shape[1] for inv, _ in layer.forward(8, 10, CONFIG)
            if inv.op == "ctc_softmax"
        )
        assert span == 29

    def test_invalid_alphabet_rejected(self):
        with pytest.raises(ConfigurationError):
            CTCLossLayer("ctc", alphabet=-1)
