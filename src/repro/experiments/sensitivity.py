"""Shared implementation of Figs 13 and 14 (sensitivity studies).

Two sensitivity axes, as in the paper's evaluation:

* **per-SL hardware sensitivity** (:func:`sensitivity_curves`) — for a
  sweep of sequence lengths, the percentage throughput uplift of
  config #1 over each other config; the curves whose SL-dependence
  motivates representative selection for speedup studies (and whose
  flat region O1/O2 explains `prior`'s occasional luck on DS2).
* **target-count sensitivity** (:func:`threshold_sensitivity`) — how
  the number of selected SeqPoints, and the projection quality across
  every Table II configuration, respond to the identification error
  budget ``e``.  This study is a grid of analyses and runs on the
  declarative sweep engine (:mod:`repro.api.parallel`): one
  :class:`SweepSpec` over seqpoint thresholds × all five hardware
  targets, sharing one identification epoch through the trace cache.
"""

from __future__ import annotations

import numpy as np

from repro.api.engine import AnalysisEngine, default_engine
from repro.api.parallel import SweepSpec, run_sweep
from repro.experiments.base import ExperimentResult
from repro.experiments.setups import runner, scenario
from repro.util.stats import mean

__all__ = [
    "sensitivity_curves",
    "threshold_sweep",
    "threshold_sensitivity",
    "threshold_run_violations",
    "build_result",
    "THRESHOLDS",
]

_POINTS = 10

#: Identification error budgets ``e`` (percent) the target-count study
#: sweeps; the paper's default is 1.0.
THRESHOLDS = (0.5, 1.0, 2.0, 4.0)


def sensitivity_curves(
    network: str, scale: float = 1.0
) -> dict[int, list[tuple[int, float]]]:
    """config index -> [(seq_len, uplift % of #1 over that config)]."""
    lengths = sorted({s.length for s in scenario(network, scale).train_data.samples})
    picks = sorted(
        {lengths[int(q * (len(lengths) - 1))] for q in np.linspace(0, 1, _POINTS)}
    )
    base = runner(network, 1, scale)
    curves: dict[int, list[tuple[int, float]]] = {}
    for config_index in range(2, 6):
        other = runner(network, config_index, scale)
        curve = []
        for seq_len in picks:
            t_base = base.measure_seq_len(seq_len)
            t_other = other.measure_seq_len(seq_len)
            curve.append((seq_len, (t_other / t_base - 1.0) * 100.0))
        curves[config_index] = curve
    return curves


def threshold_sweep(
    network: str,
    scale: float = 1.0,
    thresholds: tuple[float, ...] = THRESHOLDS,
) -> SweepSpec:
    """The target-count sensitivity grid as a declarative sweep."""
    # Dedupe upfront so callers can zip thresholds against the sweep's
    # results positionally (SweepSpec dedupes its axes anyway).
    thresholds = tuple(dict.fromkeys(float(t) for t in thresholds))
    return SweepSpec(
        networks=(network,),
        scales=(scale,),
        selectors=tuple(
            {"selector": "seqpoint", "kwargs": {"error_threshold_pct": t}}
            for t in thresholds
        ),
        targets=(1, 2, 3, 4, 5),
    )


def threshold_sensitivity(
    network: str,
    scale: float = 1.0,
    thresholds: tuple[float, ...] = THRESHOLDS,
    *,
    engine: AnalysisEngine | None = None,
    mode: str = "serial",
    workers: int | None = None,
) -> list[tuple[float, int, int, float, float]]:
    """``(threshold, k, points, ident err %, worst cross-config err %)``
    per error budget, in ``thresholds`` order.

    Defaults to the process-wide engine in serial mode so experiment
    runs share epoch traces with Figs 11/12/15/16; pass
    ``mode="process"`` and a worker count to fan a large grid out.
    """
    sweep = threshold_sweep(network, scale, thresholds)
    run = run_sweep(
        sweep, engine=engine or default_engine(), mode=mode, workers=workers
    )
    rows = []
    # Recover the (deduped) thresholds from the sweep itself so rows
    # always align with results, whatever the caller passed.
    swept = [dict(kwargs)["error_threshold_pct"] for _, kwargs in sweep.selectors]
    for threshold, result in zip(swept, run.results):
        worst = max(abs(p.error_pct) for p in result.projections)
        rows.append(
            (
                float(threshold),
                result.k if result.k is not None else len(result),
                len(result),
                result.identification_error_pct,
                worst,
            )
        )
    return rows


def threshold_run_violations(run) -> list[str]:
    """Consistency checks for a :func:`threshold_sweep` run.

    Returns human-readable violations (empty when consistent): the
    grid must share one epoch per (network, config) pair, a looser
    error budget must never need more bins, and each point must meet
    its budget unless SeqPoint kept every SL or capped out.  Shared by
    the Fig 13/14 benches so the semantics live in one place.
    """
    violations = []
    thresholds = [
        dict(kwargs)["error_threshold_pct"] for _, kwargs in run.sweep.selectors
    ]
    if len(run.results) != len(thresholds):
        violations.append(
            f"{len(thresholds)} thresholds but {len(run.results)} results"
        )
        return violations
    if run.unique_traces != 5 * len(run.sweep.networks):
        violations.append(
            f"expected one epoch per (network, config), got "
            f"{run.unique_traces} unique traces"
        )
    ks = [result.k for result in run.results]
    if not all(a >= b for a, b in zip(ks, ks[1:])):
        violations.append(f"bin counts not monotone in the budget: {ks}")
    for threshold, result in zip(thresholds, run.results):
        capped = result.k is None or result.k >= result.unique_seq_lens
        within = result.identification_error_pct < threshold
        if not (capped or result.k == 0 or within):
            violations.append(
                f"e={threshold:g}%: k={result.k} but ident err "
                f"{result.identification_error_pct:.3f}%"
            )
    return violations


def build_result(
    network: str, experiment_id: str, paper_variation_pct: int, scale: float = 1.0
) -> ExperimentResult:
    curves = sensitivity_curves(network, scale)
    seq_lens = [sl for sl, _ in curves[2]]
    rows = []
    for i, seq_len in enumerate(seq_lens):
        rows.append(
            [seq_len] + [round(curves[c][i][1], 2) for c in range(2, 6)]
        )
    notes = []
    for config_index in range(2, 6):
        values = [u for _, u in curves[config_index]]
        span = (max(values) - min(values)) / mean(values) * 100
        notes.append(
            f"config#{config_index}->1 uplift varies {span:.0f}% across SLs"
        )
    notes.append(
        f"paper: uplift varies by up to ~{paper_variation_pct}% across SLs; "
        "curves rise with SL and flatten (the O2 plateau)"
    )
    for threshold, k, points, error, worst in threshold_sensitivity(network, scale):
        notes.append(
            f"target-count sweep e={threshold:g}%: {points} SeqPoints "
            f"(k={k}), ident err {error:.3f}%, worst cross-config err "
            f"{worst:.2f}%"
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"{network.upper()} per-SL throughput uplift vs config #1 (%)",
        headers=["seq_len", "cfg2->1", "cfg3->1", "cfg4->1", "cfg5->1"],
        rows=rows,
        notes=notes,
    )
