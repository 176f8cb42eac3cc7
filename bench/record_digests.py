"""Record the output digest of every workload for every pool master seed.

Run from the repository root after a deliberate, named change of the
simulator's output:

    python3 bench/record_digests.py

Each (workload, master seed) round runs twice with different list orders in
its configs; the two digests must agree before one is written to
`digests.json`.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(workload, master: int, scratch: str) -> str:
    digests = set()
    for order_seed in (master, master + workloads.POOL_SIZE):
        directory = os.path.join(scratch, f"{workload.name}-{master}-{order_seed}")
        run._write_configs(directory, workloads.config_files(workload, master, order_seed))
        result = run._worker({"mode": "round", "workload": workload.name,
                              "dir": directory, "trace": False})
        if "error" in result:
            raise RuntimeError(f"{workload.name} seed {master}: {result['error']}")
        digests.add(result["digest"])
        shutil.rmtree(directory)
    if len(digests) != 1:
        raise RuntimeError(f"{workload.name} seed {master}: output depends on list order")
    return digests.pop()


def main() -> int:
    scratch = os.path.join(run.ROOT, ".bench_out", "record")
    table = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {str(m): record(workload, m, scratch)
                       for m in range(workloads.POOL_SIZE)}
        print(f"{name}: {workloads.POOL_SIZE} digests", file=sys.stderr)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
