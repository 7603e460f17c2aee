"""Unit tests for LSTM/GRU layers — the heterogeneity mechanism."""


from repro.hw.config import paper_config
from repro.models.layers.recurrent import GRULayer, LSTMLayer
from tests.conftest import one_row

CONFIG = paper_config(1)


class TestLSTMForward:
    def test_per_step_kernels_scale_in_count(self):
        layer = LSTMLayer("lstm", 1024, 1024)
        counts = {
            inv.group: count
            for inv, count in layer.forward(64, 100, CONFIG)
            if inv.op == "gemm"
        }
        assert counts["GEMM-1"] == 1     # batched input projection
        assert counts["GEMM-2"] == 100   # per-step recurrent GEMM

    def test_batched_kernel_scales_in_size(self):
        layer = LSTMLayer("lstm", 1024, 1024)

        def input_proj(steps):
            for inv, _ in layer.forward(64, steps, CONFIG):
                if inv.group == "GEMM-1":
                    return inv
            raise AssertionError("no batched GEMM")

        assert input_proj(100).shape[0] == 10 * input_proj(10).shape[0]

    def test_recurrent_gemm_fixed_size(self):
        layer = LSTMLayer("lstm", 1024, 1024)

        def recurrent(steps):
            for inv, _ in layer.forward(64, steps, CONFIG):
                if inv.group == "GEMM-2":
                    return inv
            raise AssertionError("no recurrent GEMM")

        # Key Observation: per-step kernels keep their shape across SLs.
        assert recurrent(10).shape == recurrent(200).shape == (64, 4096, 1024)

    def test_gate_fusion_per_step(self):
        layer = LSTMLayer("lstm", 256, 256)
        gate_counts = [
            count for inv, count in layer.forward(8, 37, CONFIG)
            if inv.op == "lstm_gates"
        ]
        assert gate_counts == [37]


class TestBidirectional:
    def test_doubles_directions(self):
        uni = LSTMLayer("uni", 256, 256)
        bi = LSTMLayer("bi", 256, 256, bidirectional=True)
        uni_gemms = sum(
            count for inv, count in uni.forward(8, 10, CONFIG) if inv.op == "gemm"
        )
        bi_gemms = sum(
            count for inv, count in bi.forward(8, 10, CONFIG) if inv.op == "gemm"
        )
        assert bi_gemms == 2 * uni_gemms

    def test_concat_emitted(self):
        bi = LSTMLayer("bi", 256, 256, bidirectional=True)
        ops = [inv.op for inv, _ in bi.forward(8, 10, CONFIG)]
        assert "concat" in ops

    def test_out_features(self):
        assert LSTMLayer("bi", 256, 300, bidirectional=True).out_features == 600
        assert LSTMLayer("uni", 256, 300).out_features == 300

    def test_param_count_doubles(self):
        uni = LSTMLayer("uni", 256, 256)
        bi = LSTMLayer("bi", 256, 256, bidirectional=True)
        assert bi.param_count() == 2 * uni.param_count()


class TestGRUvsLSTM:
    def test_gru_has_three_gates(self):
        gru = GRULayer("gru", 1600, 800)
        gemm_n = next(
            inv.shape[1] for inv, _ in gru.forward(64, 10, CONFIG)
            if inv.op == "gemm"
        )
        assert gemm_n == 3 * 800

    def test_lstm_has_four_gates(self):
        lstm = LSTMLayer("lstm", 1024, 1024)
        gemm_n = next(
            inv.shape[1] for inv, _ in lstm.forward(64, 10, CONFIG)
            if inv.op == "gemm"
        )
        assert gemm_n == 4 * 1024

    def test_lstm_params_exceed_gru(self):
        assert (
            LSTMLayer("l", 512, 512).param_count()
            > GRULayer("g", 512, 512).param_count()
        )

    def test_gru_gate_ops_named(self):
        gru = GRULayer("gru", 64, 64)
        ops = {inv.op for inv, _ in gru.forward(4, 5, CONFIG)}
        assert "gru_gates" in ops


class TestBackward:
    def test_backward_heavier_than_forward(self, device1):
        layer = LSTMLayer("lstm", 1024, 1024)

        def total(stream):
            return sum(
                one_row(device1.run_batch, inv.work).time_s * count for inv, count in stream
            )

        fwd = total(layer.forward(64, 50, CONFIG))
        bwd = total(layer.backward(64, 50, CONFIG))
        assert bwd > fwd

    def test_backward_includes_weight_gradients(self):
        layer = LSTMLayer("lstm", 512, 256)
        shapes = [
            inv.shape for inv, _ in layer.backward(8, 10, CONFIG)
            if inv.op == "gemm"
        ]
        assert (512, 1024, 80) in shapes  # dW_input
        assert (256, 1024, 80) in shapes  # dW_recurrent
