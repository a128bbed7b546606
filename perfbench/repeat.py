"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/repeat.py --seeds 1-10 [--traced-seeds 1-3] \
        [--workloads estimate,sample,audit] [--label TEXT] [--record]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. Per-layer metrics from the traced seeds
are given as min / median / max, since the default thread pool makes the
solver's counts vary from run to run. With --record the summary is appended
to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--label", default="")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    entry = {"label": args.label, "date": datetime.date.today().isoformat(), "run_seconds": seconds,
             "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        values, attempted, failed, steal = {}, 0, 0, []
        for seed in entry["seeds"]:
            res, prov = _run(workload, seed, seconds, 0)
            steal.append(prov["host_steal_s"])
            attempted += res["attempted"]
            failed += res["failed"]
            for key, m in res["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
                  + f" host_steal_s={prov['host_steal_s']}", flush=True)
        entry["provenance"] = {k: v for k, v in prov.items() if k not in ("seed", "passes", "host_steal_s")}
        summary = {"attempted": attempted, "failed": failed, "host_steal_s": steal, "end_to_end": {},
                   "per_layer": {}}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary["end_to_end"][key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:9s} {key:12s} median {med:10.4g}  spread {spread:6.3f}  bound {bounds[key]}")
        layers = {}
        for seed in _seeds(args.traced_seeds) if args.traced_seeds else []:
            res, _ = _run(workload, seed, seconds, 1)
            for key, m in res["metrics"].items():
                layers.setdefault(key, []).append(m["value"])
        for key, vals in layers.items():
            summary["per_layer"][key] = {"min": min(vals), "median": statistics.median(vals), "max": max(vals)}
        print(f"{workload:9s} failed {failed} of {attempted}", flush=True)
        entry["workloads"][workload] = summary
    if args.record:
        path = os.path.join(HERE, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path) as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(path, "w") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
