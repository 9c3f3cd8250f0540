"""Summarise benchmark run records and write a baseline.

    python3 bench/collect.py RECORD.json... [--baseline OUT.json] [--against OLD.json]

Each RECORD is a file written by `bench/run.py --out`.  For every workload
and end-to-end metric of the timed records this prints the median over the
runs, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  Traced records contribute their per-layer metrics.
--baseline writes all of it, with each run's output digest and metadata,
as one JSON file.  --against compares the output digests with those of an
earlier baseline, seed by seed, to show whether the outputs stayed
byte-identical.  Records of one workload and seed must share one digest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    mid = statistics.median(values)
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "min": min(values),
            "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("records", nargs="+")
    ap.add_argument("--baseline", default=None)
    ap.add_argument("--against", default=None)
    opts = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}

    runs: dict[str, list] = {}
    traced = []
    for path in opts.records:
        with open(path) as handle:
            rec = json.load(handle)
        row = {"seed": rec["meta"]["seed"], "commit": rec["meta"]["commit"],
               "attempted": rec["attempted"], "failed": rec["failed"],
               "digests": rec["digests"], "meta": rec["meta"],
               "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
               "extras": {k: v["value"] for k, v in rec["extras"].items()}}
        (traced if rec["meta"]["trace"] else runs.setdefault(rec["meta"]["workload"], [])
         ).append(row)

    summary = {}
    ok = True
    for workload, rows in sorted(runs.items()):
        summary[workload] = {}
        failed = sum(r["failed"] for r in rows)
        print(f"# {workload}: {len(rows)} runs, failed operations {failed}")
        ok &= failed == 0
        for name in [*rows[0]["metrics"], *rows[0]["extras"]]:
            values = [r["metrics"].get(name, r["extras"].get(name)) for r in rows]
            s = summarise(values)
            s["bound"] = bounds.get(name)
            summary[workload][name] = s
            flag = ""
            if s["bound"] is not None and name != "setup_s":
                steady = s["spread"] <= s["bound"]
                ok &= steady
                flag = "ok" if s["spread"] < s["bound"] / 3 else ("within bound" if steady
                                                                   else "TOO WIDE")
            print(f"  {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" bound {s['bound']} {flag}" if s["bound"] is not None else ""))

    digests: dict[str, set] = {}
    for workload, rows in runs.items():
        for r in rows:
            digests.setdefault(f"{workload}/{r['seed']}", set()).update(r["digests"])
    for key, found in sorted(digests.items()):
        if len(found) != 1:
            ok = False
            print(f"# DIGEST MISMATCH {key}: {sorted(found)}")
    if opts.against:
        with open(opts.against) as handle:
            old = {f"{w}/{r['seed']}": set(r["digests"])
                   for w, rows in json.load(handle)["runs"].items() for r in rows}
        shared = sorted(set(old) & set(digests))
        same = [k for k in shared if old[k] == digests[k]]
        print(f"# output digests byte-identical to {opts.against}: {len(same)} of "
              f"{len(shared)} shared workload/seed pairs"
              + "".join(f"\n#   changed: {k}" for k in shared if k not in same))

    per_layer = {}
    if traced:
        names = traced[0]["metrics"]
        per_layer = {name: statistics.median([t["metrics"][name] for t in traced])
                     for name in names}
        print(f"# per-layer metrics: {len(per_layer)} from {len(traced)} traced runs")

    if opts.baseline:
        with open(opts.baseline, "w") as handle:
            json.dump({"summary": summary, "runs": runs, "traced": traced,
                       "per_layer_median": per_layer}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
