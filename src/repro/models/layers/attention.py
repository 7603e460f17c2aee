"""Attention layer (GNMT's encoder-decoder attention).

Scores every decoder step against every encoder position, so its work
grows with the *product* of source and target lengths — the strongest
SL dependence in the network.  Score/context kernels launch once per
decoder step (like the recurrent group); the output projection is one
batched GEMM.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError, LoweringError
from repro.hw.config import HardwareConfig
from repro.kernels.elementwise import elementwise
from repro.kernels.gemm import gemm
from repro.kernels.reduction import reduction
from repro.models.layers.base import KernelStream, Layer

__all__ = ["AttentionLayer"]


class AttentionLayer(Layer):
    """Dot-product attention from decoder states to encoder outputs."""

    def __init__(self, name: str, hidden: int):
        super().__init__(name)
        if hidden <= 0:
            raise ConfigurationError(f"{name}: hidden must be positive")
        self.hidden = hidden
        # Thread-local: the bound length is per-iteration scratch state,
        # and models are shared across an engine's runners — concurrent
        # lowering of different configs (run_many, serve worker
        # threads) must not see each other's bindings.
        self._source = threading.local()

    def bind_source(self, src_steps: int) -> None:
        """Set the encoder length for the current iteration."""
        if src_steps <= 0:
            raise LoweringError(f"{self.name}: src_steps must be positive")
        self._source.src_steps = src_steps

    def _require_source(self) -> int:
        src_steps = getattr(self._source, "src_steps", None)
        if src_steps is None:
            raise LoweringError(
                f"{self.name}: bind_source() must be called before lowering"
            )
        return src_steps

    def forward(
        self, batch: int, steps: int, config: HardwareConfig
    ) -> KernelStream:
        src = self._require_source()
        # Per decoder step (Bahdanau additive scoring): project the
        # query, broadcast-add it to the precomputed key tensor
        # [B, src, H] under a tanh — the quadratic-traffic term that
        # makes attention's share of the iteration grow with SL — then
        # reduce with the scoring vector, softmax, and form the context.
        yield gemm(batch, self.hidden, self.hidden, config, group="GEMM-2"), steps
        yield elementwise(
            "attn_tanh_add", batch * src * self.hidden,
            reads_per_element=2, writes_per_element=1, flops_per_element=3,
        ), steps
        yield gemm(batch * src, 1, self.hidden, config, group="GEMM-2"), steps
        yield reduction("attn_softmax", batch, src), steps
        yield elementwise(
            "attn_scale", batch * src,
            reads_per_element=2, writes_per_element=1, flops_per_element=2,
            inner_dim=src,
        ), steps
        yield gemm(batch, self.hidden, src, config, group="GEMM-2"), steps
        # Attentional hidden state: combine context with decoder output.
        yield gemm(
            batch * steps, self.hidden, 2 * self.hidden, config, group="GEMM-1"
        ), 1

    def backward(
        self, batch: int, steps: int, config: HardwareConfig
    ) -> KernelStream:
        src = self._require_source()
        yield gemm(
            2 * self.hidden, self.hidden, batch * steps, config, group="GEMM-1"
        ), 1
        yield gemm(
            batch * steps, 2 * self.hidden, self.hidden, config, group="GEMM-1"
        ), 1
        # Per step: gradients through context, softmax, scores, and the
        # additive tanh (re-touching the [B, src, H] tensor).
        yield gemm(batch, src, self.hidden, config, group="GEMM-2"), steps
        yield elementwise(
            "attn_softmax_grad", batch * src,
            reads_per_element=3, writes_per_element=1, flops_per_element=4,
            inner_dim=src,
        ), steps
        yield elementwise(
            "attn_tanh_grad", batch * src * self.hidden,
            reads_per_element=2, writes_per_element=1, flops_per_element=2,
        ), steps
        yield gemm(batch, self.hidden, src, config, group="GEMM-2"), steps

    def param_count(self) -> int:
        # Query projection [H -> H], scoring vector, combine [2H -> H].
        return self.hidden * self.hidden + self.hidden + 2 * self.hidden * self.hidden
