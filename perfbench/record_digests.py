#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current program's answers.

Run from the repository root::

    python3 perfbench/record_digests.py

Every benchmark run answers its workload's whole input universe and
compares each answer with the digest recorded here, so a change that
moves a published number fails the run's ``correct`` check.  Record
again only when a change is meant to move those numbers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from closed import WORKLOADS  # noqa: E402
from measure import DIGESTS_PATH  # noqa: E402
from serveopen import ServeOpen  # noqa: E402


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, workdir, {})
            workload.setup()
            for item in workload.universe:
                workload.prepare(item)
                try:
                    if not workload.verify(item, workload.op(item)):
                        raise RuntimeError(f"{name}: {item!r} is not deterministic")
                finally:
                    workload.cleanup(item)
            digests[name] = {
                f"{key}#{index}": digest
                for key, answer_digests in sorted(workload.references.items())
                for index, digest in enumerate(answer_digests)
            }
        serve = ServeOpen(0, workdir, {}, ROOT)
        try:
            serve.setup()
            digests[serve.name] = dict(sorted(serve.references.items()))
        finally:
            serve.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
