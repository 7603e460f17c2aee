"""Dynamic batching: forming device batches from a live arrival queue.

The epoch-oriented policies in :mod:`repro.data.batching` already
encode *how requests should be grouped* (FIFO for shuffled pipelines,
length-bucketed for pooled/sorted ones, padded to the policy's
``pad_multiple``); this module adds the serving-side question of *when*
a batch may form.  Two triggers close a batch:

* **max-batch** — the waiting pool reaches the policy's capacity
  (``batch_size`` for FIFO policies, ``pool_factor * batch_size`` for
  pooled bucketing, unbounded for fully sorted policies, which only
  ever flush on the wait trigger), and
* **max-wait** — the oldest waiting request has been queued for
  ``max_wait_s``, at which point *everything* waiting is flushed
  (ragged tail included) so no request waits unboundedly.

Formation is a pure function of arrivals and lengths — no randomness —
so a seeded arrival process plus any policy yields a bit-deterministic
batch sequence (a property test asserts this).

:func:`form_batches` computes every flush point and batch as arrays.
The arrival-by-arrival event loop it replaced is kept as test code
(``tests/reference.py``); tests/test_properties_traffic.py checks that
both form bit-identical batches across policies × arrival processes ×
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batching import (
    BatchingPolicy,
    PooledBucketing,
    ShuffledBatching,
    SortaGradBatching,
    SortedBatching,
)
from repro.errors import ConfigurationError
from repro.train.frame import NO_TGT

__all__ = [
    "BatchColumns",
    "FormedBatch",
    "FormedBatchList",
    "DynamicBatcher",
    "form_batches",
]


@dataclass(frozen=True)
class FormedBatch:
    """One device batch as the dynamic batcher closed it.

    ``members`` are request indices into the arrival stream, in the
    order the policy packed them; ``seq_len``/``tgt_len`` are the
    padded batch maxima (``NO_TGT`` when the corpus has no target
    side), exactly as an epoch iteration would record them.
    """

    form_time_s: float
    members: np.ndarray
    seq_len: int
    tgt_len: int

    def __len__(self) -> int:
        return int(self.members.size)


@dataclass(frozen=True)
class BatchColumns:
    """Columnar form of a formed-batch list.

    Formation computes every per-batch quantity as an array before
    materialising :class:`FormedBatch` objects; keeping those arrays
    lets :meth:`~repro.traffic.simulator.TrafficSimulator.serve` stay
    columnar end to end instead of re-gathering fields batch by batch.
    ``members`` is the full request permutation in batch order; batch
    ``b`` owns ``members[starts[b]:starts[b] + sizes[b]]``.
    """

    form_s: np.ndarray
    seq_len: np.ndarray
    tgt_len: np.ndarray
    sizes: np.ndarray
    members: np.ndarray
    starts: np.ndarray


class FormedBatchList(list):
    """A ``list[FormedBatch]`` carrying its :class:`BatchColumns`."""

    def __init__(self, batches, columns: BatchColumns):
        super().__init__(batches)
        self.columns = columns


def _policy_queue(policy: BatchingPolicy) -> tuple[bool, int | None]:
    """``(bucketed, capacity)`` the serving queue derives from a policy.

    Mirrors what each policy does to an epoch: shuffled pipelines keep
    arrival order and dispatch as soon as one batch is full; pooled
    bucketing sorts within a ``pool_factor``-batch pool; fully sorted
    policies (DS2's SortaGrad identification epoch) sort everything
    they can see, so only the wait deadline bounds their pool.
    """
    if isinstance(policy, PooledBucketing):
        return True, policy.pool_factor * policy.batch_size
    if isinstance(policy, (SortedBatching, SortaGradBatching)):
        return True, None
    if isinstance(policy, ShuffledBatching):
        return False, policy.batch_size
    return True, policy.batch_size


def form_batches(
    arrival_s: np.ndarray,
    seq_len: np.ndarray,
    tgt_len: np.ndarray,
    policy: BatchingPolicy,
    max_wait_s: float,
) -> FormedBatchList:
    """Form serving batches from an arrival-ordered request stream.

    Flush pools are contiguous arrival ranges, so the arrival/deadline
    event loop collapses to: from pool start ``s``, the deadline break
    is the first request arriving strictly after
    ``arrival[s] + max_wait`` (one ``searchsorted`` over precomputed
    deadlines); the capacity trigger wins iff the pool fills before
    that break, flushing at the capacity-filling arrival, else the
    whole range flushes at the deadline (end-of-stream included — same
    formula).  Within-pool ordering is one global stable lexsort (pool
    id major, seq_len minor) instead of one argsort per flush; per-batch
    padded maxima come from ``np.maximum.reduceat``.  An empty stream
    forms no batches.
    """
    if not max_wait_s > 0.0:
        raise ConfigurationError(
            f"max_wait_s must be positive, got {max_wait_s}"
        )
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    seq_len = np.asarray(seq_len, dtype=np.int64)
    tgt_len = np.asarray(tgt_len, dtype=np.int64)
    if not (arrival_s.size == seq_len.size == tgt_len.size):
        raise ConfigurationError(
            f"arrival/seq/tgt columns disagree on length: "
            f"{arrival_s.size}/{seq_len.size}/{tgt_len.size}"
        )
    if arrival_s.size and np.any(np.diff(arrival_s) < 0):
        raise ConfigurationError("arrival times must be non-decreasing")
    total = int(arrival_s.size)
    bucketed, capacity = _policy_queue(policy)
    batch_size = policy.batch_size
    # Per-request deadline; breaks[s] = first index arriving strictly
    # later.
    deadline = arrival_s + max_wait_s
    breaks = np.searchsorted(arrival_s, deadline, side="right")

    pool_of = np.empty(total, dtype=np.int64)
    pool_start_of = np.empty(total, dtype=np.int64)
    pool_flush: list[float] = []
    start = 0
    while start < total:
        brk = int(breaks[start])
        if capacity is not None and start + capacity <= brk:
            stop = start + capacity
            flush_time = float(arrival_s[stop - 1])
        else:
            stop = brk
            flush_time = float(deadline[start])
        pool_of[start:stop] = len(pool_flush)
        pool_start_of[start:stop] = start
        pool_flush.append(flush_time)
        start = stop

    if bucketed:
        order = np.lexsort((seq_len, pool_of)).astype(np.int64)
    else:
        order = np.arange(total, dtype=np.int64)
    position = np.arange(total, dtype=np.int64) - pool_start_of
    batch_starts = np.flatnonzero(position % batch_size == 0)
    batch_stops = np.append(batch_starts[1:], total)
    seq_max = np.maximum.reduceat(seq_len[order], batch_starts)
    tgt_max = np.maximum.reduceat(tgt_len[order], batch_starts)
    seq_pad = policy._pad_column(seq_max)
    tgt_pad = np.where(
        tgt_max == NO_TGT, NO_TGT, policy._pad_column(tgt_max)
    )
    batch_pool = pool_of[batch_starts]
    flush_s = np.asarray(pool_flush, dtype=np.float64)
    columns = BatchColumns(
        form_s=flush_s[batch_pool],
        seq_len=seq_pad.astype(np.int64, copy=False),
        tgt_len=tgt_pad.astype(np.int64, copy=False),
        sizes=batch_stops - batch_starts,
        members=order,
        starts=batch_starts,
    )
    return FormedBatchList(
        (
            FormedBatch(
                form_time_s=pool_flush[int(batch_pool[b])],
                members=order[batch_starts[b]:batch_stops[b]],
                seq_len=int(seq_pad[b]),
                tgt_len=int(tgt_pad[b]),
            )
            for b in range(batch_starts.size)
        ),
        columns,
    )


class DynamicBatcher:
    """A policy plus a wait bound, reusable across request streams."""

    def __init__(self, policy: BatchingPolicy, max_wait_s: float = 0.5):
        if not max_wait_s > 0.0:
            raise ConfigurationError(
                f"max_wait_s must be positive, got {max_wait_s}"
            )
        self.policy = policy
        self.max_wait_s = max_wait_s

    def form(
        self,
        arrival_s: np.ndarray,
        seq_len: np.ndarray,
        tgt_len: np.ndarray,
    ) -> FormedBatchList:
        return form_batches(
            arrival_s, seq_len, tgt_len, self.policy, self.max_wait_s
        )
