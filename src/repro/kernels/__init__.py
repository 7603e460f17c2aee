"""Kernel zoo: the library layer between models and the GPU model.

Models lower to :class:`~repro.kernels.base.KernelInvocation` streams;
each invocation names a concrete kernel *variant* (as a BLAS/DNN library
would) and carries the :class:`~repro.hw.timing.WorkProfile` the GPU
model times.  Variant selection is size-dependent — exactly like
rocBLAS/MIOpen tile selection — which is what makes different sequence
lengths invoke different kernel sets (paper Fig 5) and shift the kernel
runtime distribution (Figs 6 and 8).
"""

from repro.kernels.base import KernelInvocation, make_invocation
from repro.kernels.gemm import clear_gemm_caches, gemm, gemm_variants
from repro.kernels.elementwise import elementwise
from repro.kernels.reduction import reduction
from repro.kernels.conv import _im2col, conv2d_im2col
from repro.kernels.embedding import embedding_gather, embedding_scatter_grad
from repro.kernels.memops import copy_transform
from repro.kernels.registry import KernelRegistry, default_registry

__all__ = [
    "KernelInvocation",
    "gemm",
    "gemm_variants",
    "elementwise",
    "reduction",
    "conv2d_im2col",
    "embedding_gather",
    "embedding_scatter_grad",
    "copy_transform",
    "KernelRegistry",
    "default_registry",
    "clear_lowering_caches",
]


def clear_lowering_caches() -> None:
    """Drop every lowering-side memo in the kernel zoo.

    Benchmarks that measure genuinely *cold* epoch simulation call this
    (plus ``PLAN_CACHE.clear()``) so no prior run's invocations, variant
    races, or dispatch decisions leak into the measurement.
    """
    clear_gemm_caches()
    make_invocation.cache_clear()
    elementwise.cache_clear()
    reduction.cache_clear()
    copy_transform.cache_clear()
    embedding_gather.cache_clear()
    embedding_scatter_grad.cache_clear()
    _im2col.cache_clear()
