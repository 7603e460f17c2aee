"""GEMM kernel family with rocBLAS-style macro-tile variants.

A GEMM ``C[M,N] = A[M,K] @ B[K,N]`` is served by one of several compiled
variants, each specialised for a macro-tile ``MT_m x MT_n``.  Variant
choice is size-dependent: big square tiles amortise loads best but waste
lanes on small or skinny problems, so a 64-token classifier GEMM and a
6000-token one select *different kernels* — the mechanism behind the
paper's Fig 5 (kernel sets differ across sequence lengths) and Key
Observation 3 (one kernel, different dims across iterations).

Selection is by predicted runtime on the target device (the library's
autotune ground truth); :mod:`repro.kernels.autotune` layers the "first
epoch tries everything" behaviour on top.

Lowering with no config (``gemm(m, n, k, None)``) leaves the choice
open: each GEMM is a placeholder carrying only its ``(m, n, k)`` and
group, and :func:`~repro.models.plan.resolve_plans` races every
placeholder of a plan, or of many plans, as one array per config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from threading import Lock

import numpy as np

from repro.errors import KernelSelectionError
from repro.hw.cache import TrafficProfile, capacity_factor
from repro.hw.compute import _LATENCY_HIDING_WAVES, ComputeProfile
from repro.hw.config import HardwareConfig
from repro.hw.timing import (
    _INFLIGHT_BYTES_PER_WAVE,
    WorkBatch,
    WorkProfile,
    time_work_batch,
)
from repro.kernels.base import FLOAT_BYTES, KernelInvocation, make_invocation

__all__ = [
    "GemmVariant",
    "GEMM_VARIANTS",
    "gemm",
    "gemm_variants",
    "gemm_work",
    "build_gemm",
    "candidate_times",
    "candidate_times_many",
    "race_exact",
    "clear_gemm_caches",
]


@dataclass(frozen=True)
class GemmVariant:
    """A compiled GEMM kernel specialised for one macro-tile."""

    tile_m: int
    tile_n: int
    #: K-slice streamed through LDS per buffer swap.
    depth_u: int
    #: Fraction of peak a fully utilised tile reaches (bigger tiles
    #: have denser inner loops).
    issue_efficiency: float

    @property
    def name(self) -> str:
        return f"Cijk_Ailk_Bljk_SB_MT{self.tile_m}x{self.tile_n}x{self.depth_u}"


#: Line-granularity locality within a K-slice of both panels — shared
#: by :func:`build_gemm` and the constant-folded race in
#: :func:`_race_env`, which must agree bit for bit.
_L1_REUSE_FRACTION = 0.30

#: The variant family.  Tile sizes and efficiencies follow the usual
#: rocBLAS assembly-kernel ladder: large square tiles near peak, small
#: and skinny tiles progressively cheaper per tile but less efficient.
GEMM_VARIANTS: tuple[GemmVariant, ...] = (
    GemmVariant(tile_m=128, tile_n=128, depth_u=16, issue_efficiency=0.88),
    GemmVariant(tile_m=128, tile_n=64, depth_u=16, issue_efficiency=0.84),
    GemmVariant(tile_m=64, tile_n=128, depth_u=16, issue_efficiency=0.84),
    GemmVariant(tile_m=64, tile_n=64, depth_u=16, issue_efficiency=0.78),
    GemmVariant(tile_m=64, tile_n=32, depth_u=32, issue_efficiency=0.70),
    GemmVariant(tile_m=32, tile_n=64, depth_u=32, issue_efficiency=0.70),
    GemmVariant(tile_m=32, tile_n=32, depth_u=32, issue_efficiency=0.60),
    GemmVariant(tile_m=16, tile_n=64, depth_u=32, issue_efficiency=0.52),
    GemmVariant(tile_m=16, tile_n=16, depth_u=64, issue_efficiency=0.40),
)

#: Per-variant tile constants as columns, for :func:`gemm_work`.
_TILE_M = np.array([v.tile_m for v in GEMM_VARIANTS], dtype=np.int64)
_TILE_N = np.array([v.tile_n for v in GEMM_VARIANTS], dtype=np.int64)
_DEPTH_U = np.array([v.depth_u for v in GEMM_VARIANTS], dtype=np.int64)
_ISSUE_EFFICIENCY = np.array([v.issue_efficiency for v in GEMM_VARIANTS])
#: Kernel names by ``2 * variant index + edge``.
_NAMES = tuple(
    variant.name + suffix for variant in GEMM_VARIANTS for suffix in ("", "_edge")
)


@lru_cache(maxsize=65536)
def build_gemm(
    variant: GemmVariant, m: int, n: int, k: int, group: str = "gemm"
) -> KernelInvocation:
    """Materialise ``variant`` for a concrete ``M x N x K`` problem.

    Memoised: invocations are frozen values, models re-request the same
    problem every epoch, and the four nested dataclass constructions
    dominate lowering cost for recurrent networks.
    """
    if min(m, n, k) <= 0:
        raise KernelSelectionError(f"GEMM dims must be positive, got {(m, n, k)}")
    tiles_m = math.ceil(m / variant.tile_m)
    tiles_n = math.ceil(n / variant.tile_n)
    workgroups = tiles_m * tiles_n
    padded_m = tiles_m * variant.tile_m
    padded_n = tiles_n * variant.tile_n
    # Libraries compile separate exact-tile and edge-tile kernels; which
    # one dispatches depends on whether the problem divides the tile —
    # a per-sequence-length property (one source of the Fig 5 effect).
    edge_suffix = "" if (m % variant.tile_m == 0 and n % variant.tile_n == 0) else "_edge"

    # Each workgroup streams an A panel (tile_m x K) and a B panel
    # (K x tile_n) through LDS; L1 sees each panel once per workgroup.
    read_bytes = workgroups * (variant.tile_m + variant.tile_n) * k * FLOAT_BYTES
    unique_bytes = (m * k + k * n) * FLOAT_BYTES
    l2_reuse = 0.0
    if read_bytes > 0:
        l2_reuse = max(0.0, 1.0 - unique_bytes / read_bytes)

    return make_invocation(
        name=variant.name + edge_suffix,
        op="gemm",
        group=group,
        shape=(m, n, k),
        # Padded tiles execute wasted lanes: they cost time and VALU
        # instructions just like the real kernels do.
        flops=2.0 * padded_m * padded_n * k,
        work_items=workgroups * 256,
        read_bytes=read_bytes,
        write_bytes=m * n * FLOAT_BYTES,
        issue_efficiency=variant.issue_efficiency,
        l1_reuse_fraction=_L1_REUSE_FRACTION,
        l1_working_set=(variant.tile_m + variant.tile_n)
        * variant.depth_u
        * FLOAT_BYTES,
        l2_reuse_fraction=l2_reuse,
        l2_working_set=unique_bytes,
    )


def gemm_variants(m: int, n: int, k: int, group: str = "gemm") -> list[KernelInvocation]:
    """All candidate invocations for this problem (the autotune menu)."""
    return [build_gemm(variant, m, n, k, group) for variant in GEMM_VARIANTS]


def race_exact(m: int, n: int, k: int) -> bool:
    """Whether the columnar GEMM paths are bit-exact for this problem.

    :func:`gemm_work` and :func:`candidate_times_many` hold
    :func:`build_gemm`'s integer intermediates (read, write and unique
    bytes, padded dims) in int64 and divide them as float64, which
    matches Python's exact-integer arithmetic while every one of them
    stays below 2**53.  This product bounds them all for every variant.
    """
    return 4 * (m + 128) * (n + 128) * (k + 1) < 2**53


def _gemm_columns(variant: np.ndarray, m, n, k) -> tuple[dict, np.ndarray]:
    """:func:`build_gemm`'s work fields as float64 columns.

    ``variant`` indexes :data:`GEMM_VARIANTS`; it broadcasts against the
    dims.  Returns the :class:`~repro.hw.timing.WorkBatch` columns and
    the edge-tile flags.  Integer fields are computed exactly in int64
    and converted once, and the float expressions keep
    :func:`build_gemm`'s association order, so every value equals the
    scalar field bit for bit (within :func:`race_exact`).
    """
    tile_m = _TILE_M[variant]
    tile_n = _TILE_N[variant]
    tiles_m = -(-m // tile_m)
    tiles_n = -(-n // tile_n)
    workgroups = tiles_m * tiles_n
    read_bytes = workgroups * (tile_m + tile_n) * k * FLOAT_BYTES
    unique_bytes = (m * k + k * n) * FLOAT_BYTES
    shape = np.broadcast_shapes(np.shape(variant), np.shape(m))
    columns = {
        "flops": 2.0 * (tiles_m * tile_m) * (tiles_n * tile_n) * k,
        "work_items": workgroups * 256,
        "issue_efficiency": _ISSUE_EFFICIENCY[variant],
        "workgroup_size": 256,
        "read_bytes": read_bytes,
        "write_bytes": m * n * FLOAT_BYTES,
        "l1_reuse_fraction": _L1_REUSE_FRACTION,
        "l1_working_set": (tile_m + tile_n) * _DEPTH_U[variant] * FLOAT_BYTES,
        "l2_reuse_fraction": np.maximum(0.0, 1.0 - unique_bytes / read_bytes),
        "l2_working_set": unique_bytes,
    }
    for name, column in columns.items():
        columns[name] = np.broadcast_to(column, shape).astype(np.float64).ravel()
    edge = (m % tile_m != 0) | (n % tile_n != 0)
    return columns, edge


def gemm_work(
    variants: np.ndarray, dims: np.ndarray
) -> tuple[WorkBatch, list[str]]:
    """:func:`build_gemm` for many problems at once, as columns.

    ``variants[i]`` indexes :data:`GEMM_VARIANTS` and ``dims[i]`` is
    that problem's ``(m, n, k)``.  Returns the invocations' work as a
    :class:`~repro.hw.timing.WorkBatch` and their kernel names, each
    row equal to ``build_gemm(GEMM_VARIANTS[variants[i]], *dims[i])``.
    """
    variants = np.asarray(variants, dtype=np.int64)
    dims = np.asarray(dims, dtype=np.int64).reshape(-1, 3)
    columns, edge = _gemm_columns(variants, dims[:, 0], dims[:, 1], dims[:, 2])
    names = [_NAMES[code] for code in (2 * variants + edge).tolist()]
    return WorkBatch(**columns), names


@lru_cache(maxsize=64)
def _race_env(config: HardwareConfig):
    """Constant-folded per-variant/config terms of the candidate race.

    Everything here depends only on the variant's tile constants and the
    hardware configuration, never on the problem dims, so the race loop
    in :func:`candidate_times` recomputes none of it.  Each folded value
    is produced by the *same* expression the timing model evaluates
    (e.g. ``l1_hit = l1_reuse_fraction * capacity_factor(...)``), so
    folding preserves bit-identity.
    """
    wave_slots = config.num_cus * _LATENCY_HIDING_WAVES
    resident_cap = float(config.num_cus * config.max_waves_per_cu)
    peak_flops = config.peak_flops
    l1_bandwidth = config.l1_bandwidth
    l2_bandwidth = config.l2_bandwidth
    per_variant = []
    for variant in GEMM_VARIANTS:
        l1_working_set = (
            (variant.tile_m + variant.tile_n) * variant.depth_u * FLOAT_BYTES
        )
        l1_capture = capacity_factor(l1_working_set, config.l1_bytes)
        l1_hit = _L1_REUSE_FRACTION * l1_capture if config.l1_enabled else 0.0
        spilled = _L1_REUSE_FRACTION - l1_hit
        # _average_latency_cycles_batch's L1 term: hit fraction x L1 latency.
        l1_latency_term = l1_hit * config.l1_latency_cycles
        per_variant.append(
            (
                variant.tile_m,
                variant.tile_n,
                l1_working_set,
                variant.issue_efficiency,
                l1_hit,
                spilled,
                l1_latency_term,
            )
        )
    return wave_slots, resident_cap, peak_flops, l1_bandwidth, l2_bandwidth, per_variant


#: The race memo, ``(m, n, k, config)`` -> read-only candidate times:
#: what :func:`gemm`'s selection and the autotuner read through
#: :func:`candidate_times`, and what :func:`candidate_times_many`
#: seeds.  Bounded, dropping the oldest row first.
_RACE_ROWS: dict[tuple, np.ndarray] = {}
_RACE_LOCK = Lock()
_MAX_RACE_ROWS = 65536


def candidate_times(
    m: int, n: int, k: int, config: HardwareConfig
) -> np.ndarray:
    """Predicted runtime of every variant on this problem (one entry per
    :data:`GEMM_VARIANTS` row).

    The shared primitive behind library dispatch (:func:`gemm` takes the
    argmin) and the autotune phase (:class:`~repro.kernels.autotune.Autotuner`
    sums its pruned candidate subset).  Each entry is bit-identical to
    timing ``build_gemm(variant, m, n, k).work`` on ``config`` with
    :func:`~repro.hw.timing.time_work_batch` (tests/test_plan_equivalence.py
    checks it against the scalar oracle in ``tests/reference.py``).
    Memoised in the race memo, which :func:`candidate_times_many` also
    seeds.
    """
    key = (m, n, k, config)
    times = _RACE_ROWS.get(key)
    if times is None:
        times = _candidate_times_scalar(m, n, k, config)
        with _RACE_LOCK:
            if len(_RACE_ROWS) >= _MAX_RACE_ROWS and key not in _RACE_ROWS:
                _RACE_ROWS.pop(next(iter(_RACE_ROWS)))
            times = _RACE_ROWS.setdefault(key, times)
    return times


def _candidate_times_scalar(
    m: int, n: int, k: int, config: HardwareConfig
) -> np.ndarray:
    """One problem's race as a constant-folded scalar loop.

    Nine candidates sit below numpy's dispatch break-even, so a single
    problem is not raced through
    :func:`~repro.hw.timing.time_work_batch`: every problem-independent
    term is precomputed per config by :func:`_race_env`, and the
    remaining expressions replicate :func:`build_gemm` and the timing
    model (:mod:`repro.hw.timing`, :mod:`repro.hw.compute`,
    :mod:`repro.hw.cache`) one kernel at a time, inlined and
    constant-folded (integer intermediates stay integers, same
    association order, and only the runtime is computed — no breakdown
    or counters).
    """
    if min(m, n, k) <= 0:
        raise KernelSelectionError(f"GEMM dims must be positive, got {(m, n, k)}")
    env = _race_env(config)
    wave_slots, resident_cap, peak_flops, l1_bandwidth, l2_bandwidth, variants = env
    # Hoist every config scalar and builtin out of the 9-way loop.
    wave_size = config.wave_size
    num_cus = config.num_cus
    l1_enabled = config.l1_enabled
    l2_enabled = config.l2_enabled
    l2_bytes = config.l2_bytes
    dram_bandwidth = config.dram_bandwidth
    l2_latency = config.l2_latency_cycles
    dram_latency = config.dram_latency_cycles
    gclk_hz = config.gclk_hz
    launch_s = config.kernel_launch_s
    ceil = math.ceil

    unique_bytes = (m * k + k * n) * FLOAT_BYTES
    write_bytes = m * n * FLOAT_BYTES
    values = []
    for (
        tile_m,
        tile_n,
        l1_working_set,
        issue_efficiency,
        l1_hit,
        spilled,
        l1_latency_term,
    ) in variants:
        # build_gemm's geometry (all-integer, exact).
        tiles_m = ceil(m / tile_m)
        tiles_n = ceil(n / tile_n)
        workgroups = tiles_m * tiles_n
        padded_m = tiles_m * tile_m
        padded_n = tiles_n * tile_n
        flops = 2.0 * padded_m * padded_n * k
        work_items = workgroups * 256
        read_bytes = workgroups * (tile_m + tile_n) * k * FLOAT_BYTES
        l2_reuse = 0.0
        if read_bytes > 0:
            l2_reuse = max(0.0, 1.0 - unique_bytes / read_bytes)

        # resolve_traffic_batch.  capacity_factor is inlined for the enabled
        # case; its working set max(unique, l1_ws) is always positive.
        l2_reads = read_bytes * (1.0 - l1_hit)
        if l2_enabled:
            l2_candidate = min(1.0, l2_reuse + spilled)
            l2_capture = min(
                1.0, l2_bytes / max(unique_bytes, l1_working_set)
            )
            l2_hit = l2_candidate * l2_capture
        else:
            l2_hit = 0.0
        dram_reads = l2_reads * (1.0 - l2_hit)

        # compute_time_batch (flops > 0 for any valid problem).
        waves = max(1.0, work_items / wave_size)
        occupancy = min(1.0, waves / wave_slots)
        workgroup_count = max(1, ceil(work_items / 256))
        rounds = ceil(workgroup_count / num_cus)
        tail = workgroup_count / (rounds * num_cus)
        efficiency = issue_efficiency * (occupancy * tail)
        achievable = peak_flops * max(efficiency, 1e-6)
        compute_s = flops / achievable

        # _bandwidth_time_batch.
        bandwidth_s = (dram_reads + write_bytes) / dram_bandwidth
        if l2_enabled:
            bandwidth_s = max(
                bandwidth_s, (l2_reads + write_bytes) / l2_bandwidth
            )
        if l1_enabled:
            bandwidth_s = max(bandwidth_s, read_bytes / l1_bandwidth)

        # _latency_time_batch (read_bytes > 0 for any valid problem).
        l2_served = (l2_reads - dram_reads) / max(read_bytes, 1e-30)
        dram_fraction = dram_reads / read_bytes
        cycles_per_round = (
            l1_latency_term
            + max(l2_served, 0.0) * l2_latency
            + dram_fraction * dram_latency
        )
        resident_waves = min(waves, resident_cap)
        inflight_bytes = max(resident_waves * _INFLIGHT_BYTES_PER_WAVE, 1.0)
        latency_s = read_bytes / inflight_bytes * cycles_per_round / gclk_hz

        values.append(launch_s + max(compute_s, bandwidth_s, latency_s))
    times = np.array(values, dtype=np.float64)
    times.setflags(write=False)
    return times


def candidate_times_many(dims, config: HardwareConfig) -> np.ndarray:
    """:func:`candidate_times` for many problems: a ``(P, 9)`` array.

    ``dims`` holds one ``(m, n, k)`` per row.  Problems already in the
    race memo reuse their rows; the rest are raced together as one
    columnar (problems x variants) evaluation — :func:`_gemm_columns`
    builds every candidate's work and
    :func:`~repro.hw.timing.time_work_batch` times it — and seeded into
    the memo, so later :func:`candidate_times` calls hit.  Rows are
    bit-identical to the scalar loop's (property-tested in
    tests/test_properties_extra.py) for valid problems within
    :func:`race_exact` — the ones :func:`~repro.models.plan.compile_plan`
    records in a plan's skeleton.
    """
    dims = np.asarray(dims, dtype=np.int64).reshape(-1, 3)
    if not len(dims):
        return np.empty((0, len(GEMM_VARIANTS)))
    # Dedupe by lexsort (several times faster than np.unique(axis=0)).
    order = np.lexsort(dims.T[::-1])
    ordered = dims[order]
    first = np.ones(len(dims), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(dims), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    unique = ordered[first]
    keys = [(m, n, k, config) for m, n, k in unique.tolist()]
    found = [_RACE_ROWS.get(key) for key in keys]
    table = np.empty((len(keys), len(GEMM_VARIANTS)))
    hits = [i for i, times in enumerate(found) if times is not None]
    if hits:
        table[hits] = [found[i] for i in hits]
    if len(hits) < len(keys):
        missing = [i for i, times in enumerate(found) if times is None]
        problems = unique[missing]
        columns, _ = _gemm_columns(
            np.arange(len(GEMM_VARIANTS))[None, :],
            problems[:, :1],
            problems[:, 1:2],
            problems[:, 2:],
        )
        times = time_work_batch(WorkBatch(**columns), config)[0]
        times = times.reshape(len(missing), len(GEMM_VARIANTS))
        times.setflags(write=False)
        table[missing] = times
        with _RACE_LOCK:
            for i, row in zip(missing, times):
                _RACE_ROWS.setdefault(keys[i], row)
            while len(_RACE_ROWS) > _MAX_RACE_ROWS:
                _RACE_ROWS.pop(next(iter(_RACE_ROWS)))
    return table[inverse]


@lru_cache(maxsize=65536)
def _select(m: int, n: int, k: int, config: HardwareConfig) -> GemmVariant:
    """Pick the fastest variant for this shape on ``config``.

    ``np.argmin`` returns the first minimum: on a tie the earlier
    variant wins, as a strict ``<`` scan over the variants would pick.
    """
    return GEMM_VARIANTS[int(np.argmin(candidate_times(m, n, k, config)))]


#: The kernel name and work every placeholder shares.  Neither is ever
#: timed: :func:`~repro.models.plan.resolve_plans` replaces both on each
#: GEMM row, and no placeholder's name survives into a resolved plan.
_PLACEHOLDER_NAME = "gemm_unresolved"
_PLACEHOLDER_WORK = WorkProfile(
    compute=ComputeProfile(flops=0.0, work_items=1),
    traffic=TrafficProfile(read_bytes=0.0, write_bytes=0.0),
)


@lru_cache(maxsize=65536)
def _placeholder(m: int, n: int, k: int, group: str) -> KernelInvocation:
    """The one config-free invocation of this problem and group.

    Placeholders are equal exactly when their ``(m, n, k, group)`` is,
    as the dispatched invocations are on any one config (equal problems
    pick equal variants, and the shape is part of the invocation), so a
    config-free schedule merges as every config's does.
    """
    if min(m, n, k) <= 0:
        raise KernelSelectionError(f"GEMM dims must be positive, got {(m, n, k)}")
    return KernelInvocation(
        name=_PLACEHOLDER_NAME,
        op="gemm",
        group=group,
        shape=(m, n, k),
        work=_PLACEHOLDER_WORK,
    )


def clear_gemm_caches() -> None:
    """Drop every memo in this module (for cold benchmarks)."""
    build_gemm.cache_clear()
    with _RACE_LOCK:
        _RACE_ROWS.clear()
    _select.cache_clear()
    _race_env.cache_clear()
    _placeholder.cache_clear()
    gemm.cache_clear()


@lru_cache(maxsize=65536)
def gemm(
    m: int, n: int, k: int, config: HardwareConfig | None, group: str = "gemm"
) -> KernelInvocation:
    """The invocation the library would dispatch for this GEMM on
    ``config``, or with ``config=None`` its config-free placeholder.

    The placeholder (op ``"gemm"``, shape ``(m, n, k)``, one shared
    name and work profile) is what plans are built from: the plan cache
    lowers each shape once with no config and resolves the placeholders
    onto each config as one array race
    (:func:`~repro.models.plan.resolve_plans`).  With a config, the
    problem is raced alone (:func:`_select`); direct callers and GEMMs
    outside :func:`race_exact` take that path.

    Memoised on the full request: recurrent models re-request the same
    dispatch thousands of times per epoch, and even two warm cache
    lookups (selection + build) per call are measurable on the lowering
    hot path.
    """
    if config is None:
        return _placeholder(m, n, k, group)
    return build_gemm(_select(m, n, k, config), m, n, k, group)
