"""Kernel schedule: the lowered form of an iteration.

A schedule is an ordered list of ``(invocation, count)`` entries.
Counts capture repeated launches of an identical kernel — an LSTM
launches its recurrent GEMM once per time step — without materialising
thousands of identical objects, which keeps whole-epoch simulation
cheap (the executor measures each distinct invocation once and
multiplies).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import LoweringError
from repro.kernels.base import KernelInvocation
from repro.util.stats import sequential_sum

__all__ = ["KernelSchedule"]


class KernelSchedule:
    """Ordered ``(invocation, count)`` entries for one pass."""

    def __init__(
        self, entries: Iterable[tuple[KernelInvocation, int]] = ()
    ) -> None:
        self._entries: list[tuple[KernelInvocation, int]] = []
        for invocation, count in entries:
            self.add(invocation, count)

    def add(self, invocation: KernelInvocation, count: int = 1) -> None:
        if count <= 0:
            raise LoweringError(
                f"kernel count must be positive, got {count} for {invocation.name}"
            )
        self._entries.append((invocation, count))

    def extend(self, entries: Iterable[tuple[KernelInvocation, int]]) -> None:
        # Inlined add(): lowering funnels every kernel through here, so
        # the per-entry method call is measurable on the epoch hot path.
        append = self._entries.append
        for entry in entries:
            if entry[1] <= 0:
                raise LoweringError(
                    f"kernel count must be positive, got {entry[1]} "
                    f"for {entry[0].name}"
                )
            append(entry)

    def __iter__(self) -> Iterator[tuple[KernelInvocation, int]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def launch_count(self) -> int:
        """Total kernel launches including per-step repetitions."""
        return sum(count for _, count in self._entries)

    @property
    def total_flops(self) -> float:
        return sequential_sum(inv.flops * count for inv, count in self._entries)

    def unique_kernel_names(self) -> set[str]:
        """Distinct kernel variants launched (the Fig 5 statistic)."""
        return {invocation.name for invocation, _ in self._entries}

    def merged(self) -> "KernelSchedule":
        """Schedule with identical invocations coalesced (summed counts).

        Order is first-appearance; useful for compact trace storage.
        """
        totals: dict[KernelInvocation, int] = {}
        for invocation, count in self._entries:
            totals[invocation] = totals.get(invocation, 0) + count
        return KernelSchedule(totals.items())

    def gemm_shapes(self) -> list[tuple[int, int, int]]:
        """All GEMM problem shapes in launch order (for autotune cost)."""
        return [
            (inv.shape[0], inv.shape[1], inv.shape[2])
            for inv, _ in self._entries
            if inv.op == "gemm"
        ]

    def compiled(self):
        """Compile into a frozen columnar :class:`~repro.models.plan.SchedulePlan`.

        The plan merges identical invocations exactly like
        :meth:`merged` and is what the batched timing pipeline consumes.
        """
        from repro.models.plan import compile_plan

        return compile_plan(self)
