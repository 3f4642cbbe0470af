"""Regenerate perfbench/pins.json.

    python3 perfbench/pin.py --seeds 0-15 [--workload NAME ...]

For each workload and seed it runs the command sequence once, checks the
outputs with every check except the pins themselves (oracle score rows, PCA,
dictionary, flatten, EER recount), and records the verify EER, the rank-1
accuracy per classifier and the sweep EER per component count.  Run it only
when a workload's definition changes: the pins are what later code must
reproduce.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run as bench
import checks as chk
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    pins = chk.load_pins()
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        for seed in range(first, last + 1):
            work = bench.WORK / f"pin-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            paths = bench.workload_paths(work)
            checks, tally = chk.Checks(), {"attempted": 0, "failed": 0}
            try:
                bench.write_inputs(w, paths, seed)
                bench.timed_run(w, seed, 0, paths, {}, checks, tally)
                obs = chk.observed(w, paths)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if tally["failed"] or checks.failed:
                print(f"{name} seed {seed}: checks failed, not pinned: {checks.failed}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = obs
            print(f"{name} seed {seed}: {obs}", flush=True)
    chk.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
