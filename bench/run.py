"""Run one workload of the modalmin benchmark and print its metrics.

    python3 bench/run.py --workload lob4-basic --seed 1 --seconds 36 --trace 0

Run it from anywhere; it benchmarks the checkout it lives in (src/ and
tests/oracles.py next to this directory).  The workload runs in a fresh
worker process as a closed loop: one query at a time, whole passes over the
query set until --seconds is used up, at least one pass.  Set-up (interpreter
start, `import modalmin`, witness sets and seeded inputs) is timed from
process start to the worker's `ready` line, on nine fresh processes.
Times are reported in reference seconds, which cancel the host's drifting
speed (see hostspeed.py); the metadata line holds the raw seconds too.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The line before it holds
the run's metadata (machine, Python, revision, seed, samples, failure
rate).  The full record, spans included for traced runs, is written to
bench/out/.  The exit code is 0 when every answer checked out, 1 when one
did not or the worker failed, 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

SETUP_PROBES = 4  # before and after the measured worker
DEADLINE_S = 170


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class WorkerError(RuntimeError):
    pass


def _start_worker(args) -> tuple[subprocess.Popen, tuple[float, float]]:
    """A fresh worker and its set-up time, from process start to `ready`.

    The time, less the worker's host-speed sampling, is given twice: in
    reference seconds, scaled by the host speed the worker sampled during
    set-up, and raw.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    words = line.split()
    if len(words) != 3 or words[0] != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not finish set-up (exit {proc.returncode})")
    scale, sampling = float(words[1]), float(words[2])
    return proc, ((setup - sampling) * scale, setup - sampling)


def _probe_setup(args, deadline: float) -> tuple[float, float]:
    """Set-up time of a fresh worker that is ended right after set-up."""
    proc, setup = _start_worker(args)
    _finish(proc, "\n", deadline)
    return setup


def _finish(proc: subprocess.Popen, command: str, deadline: float) -> str:
    try:
        out, _ = proc.communicate(command, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker passed the run deadline") from None
    return out


def _measure(args, deadline: float) -> tuple[dict, list[tuple[float, float]]]:
    """The measured worker's result and set-up samples taken around it.

    Set-up samples come from the measured worker and from extra workers
    started before and after it, so that they span the whole run.
    """
    setups = [_probe_setup(args, deadline) for _ in range(SETUP_PROBES)]
    proc, setup = _start_worker(args)
    out = _finish(proc, "run\n", deadline)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker failed (exit {proc.returncode})")
    setups.append(setup)
    setups += [_probe_setup(args, deadline) for _ in range(SETUP_PROBES)]
    return json.loads(lines[-1]), setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/modalmin/__init__.py", "tests/oracles.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        result, setups = _measure(args, deadline)
    except (WorkerError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(s for s, _ in setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
    absent = sorted(set(units) - set(values))
    if absent:
        print(f"bench: no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": result["passes"],
        "setup_samples": [s for s, _ in setups],
        "samples": result.get("samples"),
        "raw_metrics": result.get("raw", {}) | (
            {"setup_s": statistics.median(raw for _, raw in setups)} if not args.trace else {}),
        "ref_unit_s": hostspeed.REF_UNIT_S,
        "unit_s": result.get("unit_s"),
        "host_samples": result.get("host_samples"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failure_rate": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "derived": result.get("derived"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "revision": _git_revision(),
    }
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "answers": result["answers"],
              "spans": result.get("spans")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
