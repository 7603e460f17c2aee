"""Columnar kernel IR: the compiled, batchable form of a schedule.

A :class:`~repro.models.schedule.KernelSchedule` is what lowering
produces — an ordered list of per-invocation Python dataclasses.  That
shape is convenient to build but expensive to *consume*: timing it
means a Python loop over entries with per-entry hashing, dataclass
construction, and counter arithmetic.  A :class:`SchedulePlan` is the
same information compiled once into parallel numpy columns:

* one row per **merged** entry (identical invocations coalesced with
  summed counts, in first-appearance order — exactly
  :meth:`KernelSchedule.merged`), carrying the ten
  :class:`~repro.hw.timing.WorkBatch` work columns plus launch counts;
* interned string tables for kernel-group and kernel-variant names,
  with integer id columns (``group_id``/``name_id``) mapping rows onto
  them;
* the GEMM problem dims in original launch order (autotune accounting
  follows launch order, not merged order);
* the plan's config-free skeleton: which merged rows are GEMMs, and
  their ``(m, n, k)``.

Plans are frozen; the executor times them with
:meth:`~repro.hw.device.GpuDevice.run_batch` and reduces with the same
left-to-right accumulation as the per-invocation loop in
``tests/reference.py``, so results are bit-identical (asserted in
tests/test_plan_equivalence.py).

:class:`PlanCache` is the process-wide store keyed by
``(model plan key, pass kind, batch, seq_len, tgt_len, hardware
config)``.  Lowering is deterministic in exactly those inputs (the
paper's Key Observation 4 as a structural property), so every executor,
simulator, and sweep worker in the process shares one compiled plan per
unique shape instead of re-lowering it, and one timed result
(:meth:`PlanCache.results`) instead of re-timing it.

The hardware config enters lowering only through each GEMM's
macro-tile choice (:func:`~repro.kernels.gemm.gemm`): kernel list, merge
pattern, counts, groups and GEMM dims are the same on every config.  So
a shape is lowered once with no config, every GEMM a placeholder, and
:func:`resolve_plans` builds the shape's plan on each config from that
config-free plan, racing only the GEMM rows, equal in every field to
lowering and compiling it with the config.  The cache keeps the first
resolved plan of each (model, pass, shape) as that shape's skeleton,
from which later configs resolve the same way; the config-free plan
itself is dropped once resolved.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Any

import numpy as np

from repro.errors import StorageError
from repro.hw.config import HardwareConfig
from repro.hw.timing import WorkBatch
from repro.kernels.gemm import candidate_times_many, gemm_work, race_exact
from repro.models.schedule import KernelSchedule
from repro.util.filelock import file_lock
from repro.util.npt import CORRUPT_ERRORS, ColumnStore, quarantine, write_columns

__all__ = [
    "SchedulePlan",
    "compile_plan",
    "resolve_plans",
    "PlanCache",
    "PlanStore",
    "PLAN_CACHE",
    "PLAN_SCHEMA",
]

PLAN_SCHEMA = "repro.schedule-plan.v1"

#: WorkBatch columns in serialisation order.
_WORK_COLUMNS = (
    "flops",
    "work_items",
    "issue_efficiency",
    "workgroup_size",
    "read_bytes",
    "write_bytes",
    "l1_reuse_fraction",
    "l1_working_set",
    "l2_reuse_fraction",
    "l2_working_set",
)


@dataclass(frozen=True, eq=False)
class SchedulePlan:
    """Frozen columnar form of one lowered pass.

    Compares by identity (``eq=False``): the :data:`PLAN_CACHE` hands
    out one object per unique plan.
    """

    work: WorkBatch
    #: Launches per row (the merged entry's repeat count).
    counts: np.ndarray
    #: Row -> index into :attr:`groups` / :attr:`names`.
    group_id: np.ndarray
    name_id: np.ndarray
    #: Interned tables, in first-appearance order over merged entries.
    groups: tuple[str, ...]
    names: tuple[str, ...]
    #: GEMM problem dims in launch order (unmerged), for autotune cost.
    gemm_shapes: tuple[tuple[int, int, int], ...]
    #: The config-free skeleton: one ``(row, m, n, k)`` line per merged
    #: GEMM row (int64, ``(G, 4)``), shared by the shape's plans on
    #: every config.  ``None`` when the plan cannot be resolved onto
    #: configs (loaded from a :class:`PlanStore`, or a GEMM outside
    #: :func:`~repro.kernels.gemm.race_exact`, whose shape is lowered
    #: with each config instead).
    gemm_rows: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def launch_count(self) -> int:
        """Total kernel launches including per-step repetitions."""
        return int(self.counts.sum())

    @property
    def total_flops(self) -> float:
        return float((self.work.flops * self.counts).sum())


def compile_plan(schedule: KernelSchedule) -> SchedulePlan:
    """Compile a lowered schedule into its frozen columnar plan.

    Merging runs in two passes: a vectorized pre-merge keyed on object
    *identity* (kernel constructors are memoised, so repeated launches
    of one kernel are almost always the same object — no hashing of
    nested dataclasses, and the per-entry work is numpy grouping), then
    an equality merge over the few surviving distinct objects.
    First-appearance order is preserved through both and integer counts
    add associatively, so the result coalesces exactly like
    :meth:`KernelSchedule.merged`.
    """
    entries = list(schedule)
    n = len(entries)
    invocations = [entry[0] for entry in entries]
    id_column = np.fromiter(map(id, invocations), np.int64, n)
    count_column = np.fromiter((entry[1] for entry in entries), np.int64, n)

    # Group by identity, ranked by first appearance (the dedupe_shapes
    # idiom from repro.train.frame).
    _, first_index, inverse = np.unique(
        id_column, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    appearance = np.argsort(first_index, kind="stable")
    rank = np.empty(appearance.size, dtype=np.int64)
    rank[appearance] = np.arange(appearance.size)
    object_row = rank[inverse]
    # Integer-valued float sums below 2**53 are exact.
    object_counts = np.bincount(
        object_row, weights=count_column, minlength=appearance.size
    ).astype(np.int64)
    unique_invocations = [
        invocations[i] for i in first_index[appearance].tolist()
    ]

    # Equality merge across distinct-but-equal objects (rare).
    totals: dict = {}
    rows: list = []
    row_counts: list[int] = []
    for position, invocation in enumerate(unique_invocations):
        row = totals.get(invocation)
        if row is None:
            totals[invocation] = len(rows)
            rows.append(invocation)
            row_counts.append(int(object_counts[position]))
        else:
            row_counts[row] += int(object_counts[position])

    # GEMM dims in launch order: a gemm invocation's shape IS (m, n, k).
    is_gemm = np.fromiter(
        (inv.op == "gemm" for inv in unique_invocations),
        np.bool_,
        len(unique_invocations),
    )
    shapes = [inv.shape for inv in unique_invocations]
    gemm_entries = np.flatnonzero(is_gemm[object_row])
    gemm_shapes = tuple(
        shapes[position] for position in object_row[gemm_entries].tolist()
    )

    group_table: dict[str, int] = {}
    name_table: dict[str, int] = {}
    group_id = np.empty(len(rows), dtype=np.int64)
    name_id = np.empty(len(rows), dtype=np.int64)
    gemm_rows = []
    for row, invocation in enumerate(rows):
        group_id[row] = group_table.setdefault(
            invocation.group, len(group_table)
        )
        name_id[row] = name_table.setdefault(invocation.name, len(name_table))
        if invocation.op == "gemm":
            gemm_rows.append((row, *invocation.shape))
    resolvable = all(race_exact(m, n, k) for _, m, n, k in gemm_rows)

    return SchedulePlan(
        work=WorkBatch.from_profiles([inv.work for inv in rows]),
        counts=np.array(row_counts, dtype=np.int64),
        group_id=group_id,
        name_id=name_id,
        groups=tuple(group_table),
        names=tuple(name_table),
        gemm_shapes=gemm_shapes,
        gemm_rows=(
            np.array(gemm_rows, dtype=np.int64).reshape(-1, 4)
            if resolvable
            else None
        ),
    )


def resolve_plans(
    plans: Sequence[SchedulePlan], config: HardwareConfig
) -> list[SchedulePlan]:
    """Each plan's shape compiled on ``config``, from its skeleton: a
    config-free plan (lowered with ``config=None``) or the shape's plan
    on any config.

    Only the GEMM rows depend on the config.  All the plans' GEMM
    problems are raced together
    (:func:`~repro.kernels.gemm.candidate_times_many`, through the race
    memo), their work columns and kernel names rebuilt as arrays
    (:func:`~repro.kernels.gemm.gemm_work`) and spliced into copies of
    the plans' columns, and each name table re-interned in row order;
    every other field is shared with the skeleton.  Each result equals
    ``compile_plan(model.lower_*(inputs, config))`` in every field
    (tests/test_plan_equivalence.py).
    """
    if not plans:
        return []
    skeletons = np.concatenate([plan.gemm_rows for plan in plans])
    dims = skeletons[:, 1:]
    variants = np.argmin(candidate_times_many(dims, config), axis=1)
    gemm_batch, gemm_names = gemm_work(variants, dims)
    starts = np.cumsum([0] + [len(plan) for plan in plans]).tolist()
    rows = skeletons[:, 0] + np.repeat(
        starts[:-1], [len(plan.gemm_rows) for plan in plans]
    )
    columns = {}
    for name in _WORK_COLUMNS:
        column = np.concatenate([getattr(plan.work, name) for plan in plans])
        column[rows] = getattr(gemm_batch, name)
        columns[name] = column
    resolved = []
    gemm_offset = 0
    for plan, lo, hi in zip(plans, starts, starts[1:]):
        row_names = list(map(plan.names.__getitem__, plan.name_id.tolist()))
        gemm_end = gemm_offset + len(plan.gemm_rows)
        for row, name in zip(
            plan.gemm_rows[:, 0].tolist(), gemm_names[gemm_offset:gemm_end]
        ):
            row_names[row] = name
        gemm_offset = gemm_end
        # Interned in first-appearance order, as compile_plan does.
        names = tuple(dict.fromkeys(row_names))
        name_table = dict(zip(names, range(len(names))))
        name_id = np.fromiter(
            map(name_table.__getitem__, row_names), np.int64, len(row_names)
        )
        resolved.append(
            SchedulePlan(
                work=WorkBatch(
                    **{name: column[lo:hi] for name, column in columns.items()}
                ),
                counts=plan.counts,
                group_id=plan.group_id,
                name_id=name_id,
                groups=plan.groups,
                names=names,
                gemm_shapes=plan.gemm_shapes,
                gemm_rows=plan.gemm_rows,
            )
        )
    return resolved


def _plan_columns(
    plan: SchedulePlan,
) -> tuple[dict[str, Any], list[tuple[str, np.ndarray]]]:
    """The (meta, columns) serialisation of one plan."""
    meta = {"groups": list(plan.groups), "names": list(plan.names)}
    columns: list[tuple[str, np.ndarray]] = [
        (name, getattr(plan.work, name)) for name in _WORK_COLUMNS
    ]
    columns.append(("counts", plan.counts))
    columns.append(("group_id", plan.group_id))
    columns.append(("name_id", plan.name_id))
    columns.append(
        (
            "gemm_shapes",
            np.asarray(plan.gemm_shapes, dtype=np.int64).reshape(
                len(plan.gemm_shapes), 3
            ),
        )
    )
    return meta, columns


def _plan_from_store(store: ColumnStore) -> SchedulePlan:
    """Rebuild a plan over a container's zero-copy column views.

    WorkBatch columns come back as contiguous read-only views into the
    mapping; the timing engine only reads them, so mmap-backed plans
    time bit-identically to freshly compiled ones.
    """
    if store.schema != PLAN_SCHEMA:
        raise StorageError(
            f"{store.path}: unknown plan schema {store.schema!r}; "
            f"expected {PLAN_SCHEMA!r}"
        )
    return SchedulePlan(
        work=WorkBatch(**{name: store.column(name) for name in _WORK_COLUMNS}),
        counts=store.column("counts"),
        group_id=store.column("group_id"),
        name_id=store.column("name_id"),
        groups=tuple(store.meta["groups"]),
        names=tuple(store.meta["names"]),
        gemm_shapes=tuple(
            tuple(row) for row in store.column("gemm_shapes").tolist()
        ),
    )


class PlanStore:
    """Content-addressed on-disk store of compiled plans.

    Keys are stable hashes of structural plan fingerprints (model
    hyperparameters + pass kind + shape + hardware config — see
    :meth:`~repro.models.spec.Model.plan_fingerprint`), so *any*
    process on the machine that needs the same lowering finds the
    artefact instead of recompiling.  Writes follow the trace cache's
    protocol: a per-key advisory file lock for the duration of a miss
    plus atomic temp-file + rename publication, so racing spawn workers
    lower each unique plan exactly once machine-wide.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(fingerprint: Mapping[str, Any]) -> str:
        """Stable content hash of a plan fingerprint mapping."""
        canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npt"

    def get_or_compute(
        self,
        fingerprint: Mapping[str, Any],
        build: Callable[[], SchedulePlan],
    ) -> SchedulePlan:
        """The stored plan for ``fingerprint``, building it on a miss.

        The whole miss runs under the per-key file lock, so concurrent
        processes racing on one fingerprint produce exactly one
        lowering — the loser blocks, then loads the winner's artefact.
        A malformed artefact (torn, emptied, foreign) is renamed to
        ``{key}.npt.corrupt`` and the plan built again.
        """
        key = self.key_for(fingerprint)
        path = self._path(key)
        with file_lock(self.directory, key):
            if path.exists():
                try:
                    plan = _plan_from_store(ColumnStore(path))
                except CORRUPT_ERRORS:
                    quarantine(path)
                else:
                    with self._lock:
                        self.hits += 1
                    return plan
            plan = build()
            meta, columns = _plan_columns(plan)
            staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            write_columns(staging, PLAN_SCHEMA, meta, columns)
            os.replace(staging, path)
            with self._lock:
                self.misses += 1
            return plan

    def stats(self) -> dict[str, int]:
        entries = 0
        if self.directory.is_dir():
            entries = sum(1 for _ in self.directory.glob("*.npt"))
        with self._lock:
            return {"entries": entries, "hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        return f"PlanStore({str(self.directory)!r})"


class PlanCache:
    """Process-wide store of compiled plans, with hit/miss counters.

    Thread-safe; compilation happens under the lock so every caller of
    one key observes the *same* plan object.  Compiles are pure and
    GIL-bound, so holding the lock costs no parallelism.

    Keys end with the hardware config; the rest of a key names one
    (model, pass, shape).  Next to the first resolvable plan stored for
    each (model, pass, shape), the cache keeps that plan as the shape's
    skeleton (:meth:`skeleton`), from which :func:`resolve_plans` builds
    the shape's plan on other configs.

    A :class:`PlanStore` may be attached, in which case memory misses
    whose caller supplies a structural fingerprint fall through to the
    on-disk tier before compiling — that is what lets a pool of spawn
    workers share lowerings machine-wide.

    Beside the plans it keeps their timed results (:meth:`results`) and
    the kernel-name sets those share (:meth:`intern_names`); results,
    like plans, are read-only shared values.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, SchedulePlan] = {}
        self._skeletons: dict[tuple, SchedulePlan] = {}
        self._results: dict[tuple, dict] = {}
        self._name_sets: dict[frozenset[str], frozenset[str]] = {}
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._store: PlanStore | None = None

    @property
    def store(self) -> PlanStore | None:
        """The attached on-disk tier, if any."""
        return self._store

    def attach_store(self, store: PlanStore | None) -> PlanStore | None:
        """Attach (or detach with ``None``) the on-disk tier.

        Returns the previously attached store so callers scoping a
        store to one operation can restore the prior state in a
        ``finally`` block.
        """
        with self._lock:
            previous = self._store
            self._store = store
            return previous

    def get_or_compile(
        self,
        key: tuple,
        build: Callable[[], SchedulePlan],
        fingerprint: Mapping[str, Any] | None = None,
    ) -> SchedulePlan:
        """The plan under ``key``, compiling (and storing) it on a miss.

        When a store is attached and ``fingerprint`` is not ``None``,
        the miss path delegates to the store, which loads a previously
        persisted lowering or compiles-and-publishes exactly once
        across processes.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
                return plan
            self._misses += 1
            store = self._store
            if store is not None and fingerprint is not None:
                plan = store.get_or_compute(fingerprint, build)
            else:
                plan = build()
            self._plans[key] = plan
            if plan.gemm_rows is not None:
                self._skeletons.setdefault(key[:-1], plan)
            return plan

    def get(self, key: tuple) -> SchedulePlan | None:
        """The plan under ``key`` (counted as a hit), or ``None``.

        A ``None`` counts nothing: the caller's
        :meth:`get_or_compile` for the key counts the miss.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._hits += 1
            return plan

    def skeleton(self, key: tuple) -> SchedulePlan | None:
        """A plan of ``key``'s (model, pass, shape) on any config, from
        which :func:`resolve_plans` can build it on ``key``'s config."""
        with self._lock:
            return self._skeletons.get(key[:-1])

    def results(self, key: tuple) -> dict:
        """The shape -> timed result memo of one executor key.

        ``key`` is (model plan key, pass kind, hardware config, host
        overhead): a result depends on nothing else, since the device
        holds only its config and noise is applied after timing.  A hit
        takes no lock (a dict read is atomic), since every executor call
        makes one.  The caller fills the dict without the lock: two
        threads missing one shape both time it, and as their results are
        bit-identical, whichever write lands last is correct.
        """
        memo = self._results.get(key)
        if memo is None:
            with self._lock:
                memo = self._results.setdefault(key, {})
        return memo

    def intern_names(self, names: frozenset[str]) -> frozenset[str]:
        """The one shared copy of a kernel-name set."""
        with self._lock:
            return self._name_sets.setdefault(names, names)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        """Drop all plans, results and counters (for cold benchmarking)."""
        with self._lock:
            self._plans.clear()
            self._skeletons.clear()
            self._results.clear()
            self._name_sets.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: The process-wide cache every executor and sweep worker shares.
PLAN_CACHE = PlanCache()
