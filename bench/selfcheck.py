"""Self-check of the benchmark's correctness gate.

    python3 bench/selfcheck.py

Runs one small-many pass per case, in process:

1. seeds 1 and 2 must both pass and give the same answers on every
   fixed-gallery query (the seed only shapes the generated inputs);
2. with one pinned answer corrupted (symmetry's minimum length 5 -> 6) the
   run must report failed queries and `correct: false`, which run.py turns
   into a non-zero exit.

Exits 0 when both hold, 1 otherwise.
"""

import copy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent), str(BENCH)]

from harness import Run  # noqa: E402
from workloads import PINNED  # noqa: E402


def one_pass(seed: int, pinned=PINNED) -> dict:
    return Run("small-many", seed, trace=False, pinned=pinned).measure(0)


def main() -> int:
    first, second = one_pass(1), one_pass(2)
    same = first["answers"] == second["answers"]
    seeds_ok = first["correct"] and second["correct"] and same
    print(f"seeds 1 and 2: correct {first['correct']}/{second['correct']}, "
          f"{len(first['answers'])} fixed answers {'equal' if same else 'DIFFER'}")

    corrupted = copy.deepcopy(PINNED)
    corrupted["length"]["symmetry"] = 6
    bad = one_pass(1, corrupted)
    caught = not bad["correct"] and bad["failed"] > 0
    print(f"corrupted pin: correct {bad['correct']}, {bad['failed']} failed queries")
    for line in bad["problems"][:3]:
        print(f"  {line}")

    ok = seeds_ok and caught
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
