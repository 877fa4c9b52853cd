"""Record the reference outcome digests for the default seed.

    python3 perfbench/reference.py

Runs every cell of every workload once at ``workloads.DEFAULT_SEED`` and
rewrites ``perfbench/reference.json``.  ``run.py`` counts a cell as
failed when its digest at that seed differs, so rerun this only for a
change that is meant to alter simulated outcomes, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    seed = workloads.DEFAULT_SEED
    digests = {
        workload: {cell.name: cell.run().digest
                   for cell in workloads.cells_for(workload, seed)}
        for workload in workloads.WORKLOADS
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps({"seed": seed, "digests": digests}, indent=1) + "\n")
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
