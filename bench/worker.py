"""The process one workload runs in, started by run.py.

It imports the program from the checkout, builds the workload's inputs,
prints `ready` with the host-speed scale sampled during set-up (its
reference-seconds factor and the seconds spent sampling, see hostspeed.py)
and waits for one line on stdin: `run` starts the measured
passes, anything else (or end of input) ends the process after set-up,
which is how run.py takes repeated set-up samples.  The result is one JSON
line on stdout.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import hostspeed  # noqa: E402

SETUP_SAMPLER = hostspeed.Sampler(interval=0.01)
SETUP_SAMPLER.start()

from harness import DERIVED, Run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    run = Run(args.workload, args.seed, bool(args.trace))
    SETUP_SAMPLER.stop()
    scale, sampling = SETUP_SAMPLER.scale()
    print(f"ready {scale!r} {sampling!r}", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    result = run.measure(args.seconds)
    if args.trace:
        result["spans"] = run.tracer.spans
        result["derived"] = DERIVED
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
