"""Record each workload's output_digest for some seeds in digests.json.

    python3 perfbench/record_digests.py SEED [SEED ...]

Runs every task of each workload once, untimed, and stores the digest when
no task failed.  A benchmark run on a recorded seed then fails if any exact
answer changed.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main(seeds: list[int]) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            lab, pool = run.setup(workload, seed)
            ledger = run.Ledger(pool)
            run.run_pass(lab, ledger, run.seeded_order(pool, seed))
            if ledger.failures:
                print(f"{workload} seed {seed}: not recorded, failures "
                      f"{ledger.failures}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = ledger.output_digest()
            print(f"{workload} seed {seed}: {ledger.output_digest()}")
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(),
                                      key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
