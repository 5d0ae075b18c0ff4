#!/usr/bin/env python3
"""Compare the unit outputs of two result files at the golden tolerance.

    python3 perfbench/compare.py A.json B.json

A and B are files that run.py wrote to perfbench/out/ (for instance the same
workload and seed run on two commits), or golden files.  Exits 1 and lists
every output that differs by more than 1e-12 absolute.
"""

import json
import sys

from run import deviations


def outputs(path: str) -> dict:
    data = json.loads(open(path).read())
    return data.get("outputs", data)


def main(a: str, b: str) -> int:
    found = deviations(outputs(b), outputs(a))
    for line in found:
        print(line)
    print(f"{len(found)} outputs differ by more than 1e-12")
    return 1 if found else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(*sys.argv[1:]))
