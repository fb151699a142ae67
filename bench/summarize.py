"""Summarize run records from bench/out into one baseline document.

    python3 bench/summarize.py bench/out/*-trace0.json bench/out/*-trace1.json

Untraced records give, per workload and end-to-end metric, the median,
the quartiles and the spread (interquartile distance over the median) of
the per-run values, and the median of the raw seconds behind the reference
seconds, with the seeds and run count.  Traced records give the
per-layer values of each workload's traced run.  Prints JSON on stdout.
"""

import json
import statistics
import sys
from collections import defaultdict


def main(paths: list[str]) -> int:
    runs = defaultdict(list)
    traced = {}
    machine = None
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        meta = record["meta"]
        if meta["failed"]:
            print(f"{path}: {meta['failed']} failed queries", file=sys.stderr)
            return 1
        machine = {k: meta[k] for k in ("nproc", "cpu", "python", "revision")}
        if meta["trace"]:
            traced[meta["workload"]] = {
                "seed": meta["seed"],
                "metrics": {k: v["value"] for k, v in record["metrics"].items()},
            }
        else:
            runs[meta["workload"]].append(record)

    workloads = {}
    for workload, records in sorted(runs.items()):
        summary = {
            "runs": len(records),
            "seeds": sorted(r["meta"]["seed"] for r in records),
            "passes_per_run": sorted(r["meta"]["passes"] for r in records),
            "attempted": sum(r["meta"]["attempted"] for r in records),
            "failed": 0,
            "metrics": {},
        }
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary["metrics"][name] = {
                "unit": records[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
            }
            raw = [r["meta"]["raw_metrics"].get(name) for r in records]
            if None not in raw:
                summary["metrics"][name]["raw_median"] = statistics.median(raw)
        if workload in traced:
            summary["traced"] = traced[workload]
        workloads[workload] = summary
    json.dump({"machine": machine, "workloads": workloads}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
