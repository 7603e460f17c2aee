"""Kernel invocation record shared by every kernel family.

A :class:`KernelInvocation` is what a profiler sees: a kernel *name*
(the concrete compiled variant — two invocations with the same name are
"the same kernel", possibly at different sizes, per the paper's Key
Observation 3), a logical *op*, a reporting *group* used by the kernel
distribution figures (GEMM-1 / GEMM-2 / reduce / scalar-op / ...), the
logical shape, and the hardware-facing :class:`WorkProfile`.

Invocations are frozen and hashable so schedules and compiled plans
can deduplicate repeated launches (an LSTM re-launches its recurrent
GEMM once per time step).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.hw.cache import TrafficProfile
from repro.hw.compute import ComputeProfile
from repro.hw.timing import WorkProfile

__all__ = ["KernelInvocation", "make_invocation", "FLOAT_BYTES"]

#: All tensors in the modelled networks are FP32.
FLOAT_BYTES = 4


@dataclass(frozen=True)
class KernelInvocation:
    """One kernel launch as seen by a profiler."""

    name: str
    op: str
    group: str
    shape: tuple[int, ...]
    work: WorkProfile

    @property
    def flops(self) -> float:
        return self.work.compute.flops

    def __hash__(self) -> int:
        # Schedules merge and plans compile by invocation equality, and
        # the generated dataclass hash re-hashes three nested profile
        # dataclasses on every lookup — cache it per (frozen) instance.
        # Matches the generated hash: the tuple of all fields.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.op, self.group, self.shape, self.work))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # String hashes are salted per process: never ship a cached
        # hash through pickle (e.g. to sweep workers).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"<{self.name} op={self.op} shape={dims}>"


@lru_cache(maxsize=1 << 17)
def make_invocation(
    name: str,
    op: str,
    group: str,
    shape: tuple[int, ...],
    *,
    flops: float,
    work_items: int,
    read_bytes: float,
    write_bytes: float,
    issue_efficiency: float,
    workgroup_size: int = 256,
    l1_reuse_fraction: float = 0.0,
    l1_working_set: float = 0.0,
    l2_reuse_fraction: float = 0.0,
    l2_working_set: float = 0.0,
) -> KernelInvocation:
    """Assemble an invocation from flat parameters.

    Exists so the kernel family modules construct profiles in one
    consistent way instead of each nesting three dataclasses by hand.
    Memoised: invocations are frozen values, every model re-requests
    the same kernels each epoch, and the four nested dataclass
    constructions are a measurable share of lowering time.  A cache hit
    also returns the *identical* object, which lets schedule merging
    and plan compilation short-circuit equality checks.
    """
    work = WorkProfile(
        compute=ComputeProfile(
            flops=flops,
            work_items=work_items,
            issue_efficiency=issue_efficiency,
            workgroup_size=workgroup_size,
        ),
        traffic=TrafficProfile(
            read_bytes=read_bytes,
            write_bytes=write_bytes,
            l1_reuse_fraction=l1_reuse_fraction,
            l1_working_set=l1_working_set,
            l2_reuse_fraction=l2_reuse_fraction,
            l2_working_set=l2_working_set,
        ),
    )
    return KernelInvocation(name=name, op=op, group=group, shape=shape, work=work)
