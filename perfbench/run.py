"""Benchmark of the jointwork CLI: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload estimate|sample|audit|all --seed N \
        [--seconds 35] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Each workload runs in fresh interpreters:

- set-up: five fresh interpreters each import ``jointwork.cli`` and build the
  workload's inputs from the seed; ``setup_s`` is the median of their wall
  times, which is what a CLI user pays on every command;
- measurement: one more interpreter runs passes of the workload for
  ``--seconds`` and checks every output against the repository's own gates;
  ``wall_s`` and ``cpu_s`` are the medians over passes, ``peak_rss_mb`` is
  that process's peak resident memory.

With ``--trace 1`` the measuring process alternates untraced and traced
passes and reports the per-layer metrics instead (see tracer.py), plus the
import profile of ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, ``failed_frac`` and the provenance.
``JOINTWORK_*`` variables are removed from the workers' environment, so
the program's defaults are measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("estimate", "sample", "audit")
SETUP_PROBES = 5
IMPORT_PROBES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import jointwork.cli; print(time.perf_counter() - t)"


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "probes", "spans") or last.startswith(("solves_", "iters_")):
        return "count"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio"),
                         ("computed_bytes", "B_computed"), ("ns_per_traj", "ns")):
        if last.endswith(suffix):
            return unit
    if last.startswith("us_per_iter"):
        return "us"
    raise KeyError(name)


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("JOINTWORK_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _steal_s():
    """Host steal time of this machine so far (Linux); a run during which it
    grows a lot was slowed by other guests, not by the program."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _setup_probe(workload, seed, workdir, env):
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--workdir", workdir,
         "--setup-only"],
        env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _import_probe(env):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
    )
    special = 0.0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
        if m and m.group(2) == "scipy.special":
            special = int(m.group(1)) / 1e6
            break
    return float(proc.stdout.strip().splitlines()[-1]), special


def run_workload(workload, seed, seconds, trace):
    env = _env()
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    steal0 = _steal_s()
    try:
        if trace:
            probes = [_import_probe(env) for _ in range(IMPORT_PROBES)]
        else:
            setups = [_setup_probe(workload, seed, workdir, env) for _ in range(SETUP_PROBES)]
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--workdir", workdir,
             "--seconds", str(seconds), "--trace", str(trace)],
            env=env, cwd=ROOT, check=True, timeout=seconds + 120, stdout=subprocess.PIPE, text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    passes = [p for p in res["passes"] if not p["traced"]]
    failures = [f for p in res["passes"] for f in p["failures"]]
    attempted = sum(p["attempted"] for p in res["passes"])
    if trace:
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = statistics.median(p[0] for p in probes)
        metrics["setup.import_scipy_special_s"] = statistics.median(p[1] for p in probes)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    prov = dict(res["provenance"], seed=seed, commit=_commit(), passes=len(passes),
                host_steal_s=round(_steal_s() - steal0, 2),
                jointwork_env_cleared=sorted(k for k in os.environ if k.startswith("JOINTWORK_")))
    return metrics, attempted, failures, prov, [p["wall_s"] for p in passes]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jointwork", "cli.py")):
        print(f"error: no jointwork sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            metrics, n, failures, prov, walls = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print(f"provenance {name} {json.dumps(prov, sort_keys=True)}")
        if prov["backend"] != "numpy":
            print(f"warning: backend {prov['backend']} is not numpy; no claim may rest on this run")
        for msg in failures:
            print(f"failed {name}: {msg}")
        print(f"{name:9s} pass wall_s " + " ".join(f"{w:.3f}" for w in walls))
        for key, value in metrics.items():
            print(f"{name:9s} {key:44s} {value:14.6g} {_unit(key)}")
        print(f"{name:9s} {'failed_frac':44s} {len(failures) / n:14.6g} ratio ({len(failures)}/{n})")
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in metrics.items():
            combined[prefix + key] = {"value": value, "unit": _unit(key)}
        attempted += n
        failed += len(failures)
        correct = correct and not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
