"""Write reference.json: each workload's check values at the default seed.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/make_reference.py

Regenerate only for a change that is meant to alter results, and say why in
that change; the values are what every later run of the default seed is
compared with.
"""

import json
import os
import shutil
import sys

from workloads import WORKLOADS

SEED = 1
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    reference = {"seed": SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        workdir = os.path.join(os.path.dirname(BENCH_DIR), ".bench_work", "reference")
        os.makedirs(workdir, exist_ok=True)
        try:
            inputs = workload.setup(SEED, workdir)
            result = workload.results(inputs, workload.run(inputs))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = sorted(k for k, ok in result["flags"].items() if not ok)
        if bad:
            print(f"{name}: flags failed: {bad}", file=sys.stderr)
            return 1
        reference["workloads"][name] = {key: result[key]
                                        for key in ("values", "flags", "monitors")}
        print(f"{name}: {len(result['values'])} values", file=sys.stderr)
    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
