#!/usr/bin/env python3
"""Record the golden outputs: one verdict of each workload at the default seed.

    python3 perfbench/record_golden.py [workload ...]

Writes perfbench/golden/<workload>.json.  Record only on the commit whose
numbers are the reference; afterwards every run at the default seed compares
each unit with these files at 1e-12 absolute.
"""

import json
import sys

import run


def main(names) -> int:
    run.import_package()
    from workloads import WORKLOADS

    run.GOLDEN.mkdir(exist_ok=True)
    for name in names or run.WORKLOAD_NAMES:
        verdict = run.run_verdict(WORKLOADS[name](run.DEFAULT_SEED), run.NullTracer())
        misses = [f"{k}: {m}" for k, ms in verdict["problems"].items() for m in ms]
        if misses:
            print(f"{name}: not recorded, paper checks missed: {misses}")
            return 1
        path = run.GOLDEN / f"{name}.json"
        path.write_text(json.dumps(verdict["outputs"], indent=1) + "\n")
        print(f"{name}: {len(verdict['outputs'])} units -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
