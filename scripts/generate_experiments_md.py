"""Regenerate EXPERIMENTS.md from a full-scale run of every experiment.

Usage:  python scripts/generate_experiments_md.py [scale]

With the default scale of 1.0 this simulates the paper-sized corpora on
all five hardware configurations (under ten seconds on a 2-CPU host)
and rewrites EXPERIMENTS.md with the measured tables plus the
paper-vs-measured summary.

EXPERIMENTS.md renders rounded numbers, so the script also rewrites
EXPERIMENTS.digests.json: one SHA-256 per experiment, and one for the
headline table, each over ``float.hex`` of every float the table
renders, taken before the renderer rounds it.  A one-ulp change moves
a digest even where the rounded text stays the same.  Both outputs are
deterministic: CI regenerates them and fails if either committed file
differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Iterable
from pathlib import Path

from repro.experiments import registry
from repro.experiments.selectors import seqpoint_result
from repro.experiments.speedup_projection import speedup_projection_errors
from repro.experiments.time_projection import time_projection_errors
from repro.experiments.profiling_speedups import speedups_for
from repro.util.stats import geomean

_PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Generated by `python scripts/generate_experiments_md.py` at corpus scale
{scale}.  The substrate is the analytical GPU model in `src/repro/hw/`
(the README's "Architecture" section follows a kernel into it), so the
comparison targets *shapes* — who wins, rough factors, where crossovers
fall — not the authors' absolute numbers.  All runs are deterministic
(seeded corpora, seeded measurement noise).

## Headline comparison

| Quantity | Paper | Measured |
|---|---|---|
| GNMT training-time projection error (geomean over Table II configs) | 0.53% | {gnmt_time:.2f}% |
| DS2 training-time projection error (geomean) | 0.11% | {ds2_time:.2f}% |
| GNMT speedup-projection error (geomean, percentage points) | 1.50% | {gnmt_speedup:.2f} pp |
| DS2 speedup-projection error (geomean, percentage points) | 0.13% | {ds2_speedup:.2f} pp |
| SeqPoints identified (GNMT / DS2) | 15 / 8 | {gnmt_points} / {ds2_points} |
| Profiling reduction, serial (DS2 / GNMT) | 72x / 40x | {ds2_serial:.0f}x / {gnmt_serial:.0f}x |
| Profiling reduction, parallel (DS2 / GNMT) | 345x / 214x | {ds2_par:.0f}x / {gnmt_par:.0f}x |

Error orderings match the paper everywhere: `seqpoint` beats `median`,
`prior`, `frequent`, and `worst` on both metrics and both networks;
`worst` demonstrates the hazard of arbitrary single-iteration selection
(hundreds of percent for GNMT); `prior` is competitive only where DS2's
sorted first epoch hands it a runtime-dominating window (§VI-D).

Our SeqPoint counts are smaller than the paper's because the simulated
runtime-vs-SL relation is cleaner than real-hardware measurements, so
the Fig 10 loop meets its threshold with fewer bins; the counts remain
two orders of magnitude below the epochs they represent, which is the
claim that matters.

Known shape deviations (documented, not hidden):
* Fig 4 counter variation is strong for GNMT (write stalls >60%) but
  weak for DS2 (~2-6% vs paper's ~24-27%) — our DS2 kernel mix is
  almost scale-invariant in SL, the real stack's is not.
* Figs 13/14 sensitivity spans are somewhat smaller for DS2 (~12-19%
  vs up to 45%), with the same rising-then-plateau shape.
* The DS2 SL axis is spectrogram frames (2x the paper's post-conv
  steps); Table I's post-conv shapes match the paper exactly.

## Per-experiment tables

"""


def float_digest(values: Iterable[object]) -> str:
    """SHA-256 over ``float.hex`` of every float in ``values``, in order."""
    digest = hashlib.sha256()
    for value in values:
        if isinstance(value, float):
            digest.update(float.hex(value).encode("ascii") + b"\n")
    return digest.hexdigest()


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0

    gnmt_time = geomean(
        [v for v in time_projection_errors("gnmt", scale)["seqpoint"].values()]
    )
    ds2_time = geomean(
        [v for v in time_projection_errors("ds2", scale)["seqpoint"].values()]
    )
    gnmt_speedup = geomean(
        list(speedup_projection_errors("gnmt", scale)[0]["seqpoint"].values())
    )
    ds2_speedup = geomean(
        list(speedup_projection_errors("ds2", scale)[0]["seqpoint"].values())
    )
    gnmt_prof = speedups_for("gnmt", scale)
    ds2_prof = speedups_for("ds2", scale)
    headline = dict(
        scale=scale,
        gnmt_time=gnmt_time,
        ds2_time=ds2_time,
        gnmt_speedup=gnmt_speedup,
        ds2_speedup=ds2_speedup,
        gnmt_points=len(seqpoint_result("gnmt", scale).selection),
        ds2_points=len(seqpoint_result("ds2", scale).selection),
        ds2_serial=ds2_prof.serial_speedup,
        gnmt_serial=gnmt_prof.serial_speedup,
        ds2_par=ds2_prof.parallel_speedup,
        gnmt_par=gnmt_prof.parallel_speedup,
    )

    parts = [_PREAMBLE.format(**headline)]
    digests = {"headline": float_digest(headline.values())}
    for experiment_id, run in registry().items():
        print(f"running {experiment_id}...", flush=True)
        result = run(scale)
        digests[experiment_id] = float_digest(
            cell for row in result.rows for cell in row
        )
        parts.append("```")
        parts.append(result.render())
        parts.append("```")
        parts.append("")

    root = Path(__file__).resolve().parent.parent
    target = root / "EXPERIMENTS.md"
    target.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {target}")
    pins = root / "EXPERIMENTS.digests.json"
    pins.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {pins}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
