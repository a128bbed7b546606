"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --setup-only
    python3 perfbench/worker.py --workload W --seed N --workdir DIR --seconds S --trace 0|1

With --setup-only it imports jointwork.cli, builds the workload's inputs
and exits: run.py times that from outside. Otherwise it runs passes of the
workload until the next one would overrun --seconds (at least one) and
prints one JSON object: each pass's wall and CPU time, the operations
attempted and failed, the peak resident memory and the provenance. With
--trace 1 it alternates untraced and traced passes on the same inputs and
adds the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def _provenance():
    import numpy
    import scipy

    from jointwork import _kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": _kernels.ACTIVE_BACKEND,
        "have_numba": bool(_kernels.HAVE_NUMBA),
    }


def _run_pass(workload, i, tracer=None):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    attempted, failures = 0, []
    for label, op in workload.ops(i):
        start = time.perf_counter()
        try:
            n, errors = op()
        except Exception as exc:  # a raising command is a failed operation, not a crash
            n, errors = 1, [f"{label}: {type(exc).__name__}: {exc}"]
        if tracer is not None:
            tracer.mark(label, start, time.perf_counter())
        attempted += n
        failures += errors
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "attempted": attempted,
        "failures": failures,
        "traced": tracer is not None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import jointwork.cli  # noqa: F401  (the import every CLI user pays)

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(jointwork.cli.__file__).startswith(src + os.sep):
        print(f"error: jointwork imported from {jointwork.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = []
    start = time.perf_counter()
    i = 0
    while True:
        # with tracing, each input set runs untraced and traced, the order
        # alternating so that the first pass's warm-up cost falls on both sides
        order = (False,) if tracer is None else (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            if not traced:
                passes.append(_run_pass(workload, i))
                continue
            tracer.install()
            try:
                passes.append(_run_pass(workload, i, tracer))
            finally:
                tracer.uninstall()
        i += 1
        step = time.perf_counter() - start
        if step / i * (i + 1) > args.seconds:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    }
    if tracer is not None:
        from tracer import layer_metrics

        traced = [p["wall_s"] for p in passes if p["traced"]]
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        layers = layer_metrics(tracer, len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
