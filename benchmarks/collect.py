"""Summarize the runs in benchmarks/out/ into benchmarks/BENCH_<label>.json.

    python3 benchmarks/collect.py --label baseline

For each workload: the median, quartiles and spread (interquartile range
over median, as statistics.quantiles(values, n=4) gives the quartiles) of
every end-to-end metric over the untraced runs, the seeds, the job counts,
and the per-layer metrics of each traced run. All runs must come from one
source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def describe(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(OUT.glob("result-*.json"))]
    if not records:
        print("collect.py: no results in benchmarks/out/", file=sys.stderr)
        return 1
    trees = {r["env"]["src_sha256"] for r in records}
    if len(trees) != 1:
        print("collect.py: results come from different source trees", file=sys.stderr)
        return 1
    workloads = {}
    for r in sorted(records, key=lambda r: (r["env"]["workload"], r["env"]["seed"])):
        w = workloads.setdefault(
            r["env"]["workload"],
            {"seeds": [], "attempted": 0, "failed": 0, "runs": [], "traced": []},
        )
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        metrics = {k: m["value"] for k, m in r["metrics"].items()}
        if r["traced"] is None:
            w["seeds"].append(r["env"]["seed"])
            w["runs"].append((metrics, {k: m["unit"] for k, m in r["metrics"].items()}))
        else:
            w["traced"].append({"seed": r["env"]["seed"], "metrics": metrics})
    summary = {}
    for name, w in workloads.items():
        end_to_end = {}
        if len(w["runs"]) >= 2:
            units = w["runs"][0][1]
            for metric, unit in units.items():
                values = [m[metric] for m, _ in w["runs"]]
                end_to_end[metric] = dict(unit=unit, **describe(values))
        summary[name] = {
            "seeds": w["seeds"],
            "attempted": w["attempted"],
            "failed": w["failed"],
            "end_to_end": end_to_end,
            "per_layer": w["traced"],
        }
    env = dict(records[0]["env"])
    for key in ("workload", "seed"):
        env.pop(key)
    payload = {"label": args.label, "env": env, "workloads": summary}
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    for name, w in summary.items():
        for metric, d in w["end_to_end"].items():
            print(f"{name:14s} {metric:12s} median {d['median']:.4f} spread {d['spread']:.3f}")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
