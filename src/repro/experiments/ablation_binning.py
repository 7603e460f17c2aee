"""Design-choice ablation: equal-width vs equal-mass SL bins.

The paper's equal-width contiguous binning (the "bin the unique SLs"
step of the mechanism summarised at the top of the README) is a choice
worth ablating: equal-mass (quantile) bins put the same number
of iterations in every bin at the cost of wider bins in sparse SL
regions.  Both feed the same representative selection and weighting.
"""

from __future__ import annotations

from repro.core.binning import bin_stats, bin_stats_equal_mass
from repro.core.projection import project_epoch_time
from repro.core.selection import Selection, select_from_bin
from repro.core.sl_stats import SlStatistics
from repro.experiments.base import ExperimentResult
from repro.experiments.selectors import seqpoint_result
from repro.experiments.setups import epoch_trace, runner
from repro.util.stats import geomean, percent_error

__all__ = ["run", "compare"]


def _selection_with(binning, statistics: SlStatistics, k: int) -> Selection:
    bins = binning(statistics, k)
    return Selection(
        method="seqpoint", points=tuple(select_from_bin(b) for b in bins)
    )


def compare(network: str, scale: float = 1.0) -> dict[str, float]:
    """Geomean cross-config time-projection error % per binning."""
    statistics = SlStatistics.from_trace(epoch_trace(network, 1, scale))
    k = max(seqpoint_result(network, scale).k, 1)
    candidates = {
        "equal_width": _selection_with(bin_stats, statistics, k),
        "equal_mass": _selection_with(bin_stats_equal_mass, statistics, k),
    }
    outcome: dict[str, float] = {}
    for label, selection in candidates.items():
        errors = []
        for config_index in range(1, 6):
            actual = epoch_trace(network, config_index, scale).total_time_s
            projected = project_epoch_time(
                selection, runner(network, config_index, scale)
            )
            errors.append(percent_error(projected, actual))
        outcome[label] = geomean(errors)
    return outcome


def run(scale: float = 1.0) -> ExperimentResult:
    rows = []
    for network in ("gnmt", "ds2"):
        outcome = compare(network, scale)
        rows.append(
            [
                network,
                round(outcome["equal_width"], 3),
                round(outcome["equal_mass"], 3),
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_binning",
        title="Equal-width vs equal-mass SL binning "
        "(geomean time-projection error %, same k)",
        headers=["network", "equal_width", "equal_mass"],
        rows=rows,
        notes=["equal-width is the paper's choice"],
    )
