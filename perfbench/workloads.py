"""The three workloads: inputs built from a seed, and the checks on each output.

Every workload drives the user entry point ``jointwork.cli.main(argv)``
in-process. A workload is a list of operations per pass; an operation runs
one command (or one direct library call) and returns how many checked
outputs it produced and a message for each one that failed its gate.

Why these three: nearly all of the program's time is in one of three
computations, and each workload isolates one of them.

- ``estimate`` is the Dykstra feasibility probe behind the critical
  visibility (bisection, the solver, the kernel and the thread pool that
  fans unitaries out and cancels queued solves). No sampler runs.
- ``sample`` is the sequential two-point sampler behind the fluctuation
  and Jarzynski checks, over d = 2..8 so the sampler's O(N*m) broadcast
  shows. No solver and no thread pool run.
- ``audit`` is the exact joint-observable algebra (``verify``, ``bounds``
  and the Choi positivity margin): every case is computed, none is
  cancelled, and neither the solver nor the sampler runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

ESTIMATE_DIMS = (2, 3)
ESTIMATE_UNITARIES = 20
# The default iteration budget (20000) lets a few near-critical solves set
# the time of an estimate: one d=3 estimate took 7 to 21 s across seeds. A
# pass (d=2 then d=3) still varied by 12% at 4000, across seeds and between
# repeats of one seed (the thread pool cancels a varying number of solves),
# and by 7% at 1500, which a run of five passes can hold steady. The
# estimates pass the 0.01 gate at every budget tried; solves that reach the
# budget still show as feasibility.solves_max_iterations.
ESTIMATE_MAX_ITER = 1500
ESTIMATE_GATE = 0.01  # acceptance criterion 10
SAMPLE_SIZES = {2: 2_000_000, 3: 2_000_000, 4: 1_500_000, 6: 1_000_000, 8: 1_000_000}
SAMPLE_SIGMAS = 5.0
FLUCTUATION_LIMIT = 1e-11
JARZYNSKI_LIMIT = 1e-10
VERIFY_DIMS = (2, 3, 4, 5)
VERIFY_CASES = 200
CHOI_DIMS = (2, 3, 4, 5, 6)
CHOI_GRID = 3  # lambda values x gamma values per dimension
BOUNDS_RANGE = (2, 64)


def _cli(argv, out_path):
    """Run one CLI command; returns (exit code, output records)."""
    from jointwork import cli

    if os.path.exists(out_path):
        os.remove(out_path)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--output", out_path, "--format", "json-lines", "--precision", "15"])
    records = []
    if os.path.exists(out_path):
        with open(out_path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    return code, records


def _seed(rng) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _levels(rng, d):
    gaps = rng.random(d - 1) + 0.05
    return [float(x) for x in np.concatenate(([0.0], np.cumsum(gaps))) + rng.normal(0.0, 0.2)]


def _unitary_entries(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [[[float(v.real), float(v.imag)] for v in row] for row in q]


class Estimate:
    name = "estimate"

    def __init__(self, seed, workdir):
        from jointwork.bloch import symmetric_critical_visibility

        self.seed = seed
        self.out = os.path.join(workdir, "feasibility.jsonl")
        self.analytic = {d: symmetric_critical_visibility(d) for d in ESTIMATE_DIMS}

    def ops(self, i):
        # each pass draws fresh unitaries, so a run's median spans several draws
        rng = np.random.default_rng([self.seed, i])
        return [(f"estimate.d{d}", self._estimate(d, _seed(rng))) for d in ESTIMATE_DIMS]

    def _estimate(self, d, seed):
        def op():
            argv = ["feasibility", "--dim", str(d), "--unitaries", str(ESTIMATE_UNITARIES),
                    "--max-iter", str(ESTIMATE_MAX_ITER), "--seed", str(seed)]
            code, records = _cli(argv, self.out)
            if code != 0:
                return 1, [f"feasibility d={d} seed={seed}: exit {code}"]
            est = next(r["critical_visibility"] for r in records if r["record"] == "estimate")
            dev = abs(est - self.analytic[d])
            if not dev < ESTIMATE_GATE:
                return 1, [f"feasibility d={d} seed={seed}: deviation {dev:.4f}"]
            return 1, []

        return op


class Sample:
    name = "sample"

    def __init__(self, seed, workdir):
        from jointwork.bloch import gamma_bound

        rng = np.random.default_rng(seed)
        self.out = os.path.join(workdir, "sample.jsonl")
        self.specs = {}
        for d, n in SAMPLE_SIZES.items():
            lam = float(rng.uniform(0.4, 0.9))
            gam = float(rng.uniform(0.3, 0.9)) * min(gamma_bound(d, lam), 1.0)
            spec = {
                "dimension": d,
                "hamiltonian_a": {"energies": _levels(rng, d)},
                "hamiltonian_b": {"energies": _levels(rng, d), "basis": _unitary_entries(rng, d)},
                "unitary": {"haar_seed": _seed(rng)},
                "visibility": {"lambda": lam, "gamma": gam},
                "beta": float(rng.uniform(0.5, 1.5)),
                "assignments": {"f": "corrected", "g": "corrected"},
                "samples": n,
                "seed": _seed(rng),
            }
            path = os.path.join(workdir, f"experiment_d{d}.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            self.specs[d] = path

    def ops(self, i):
        out = []
        for d, path in self.specs.items():
            out.append((f"sample.d{d}", self._sample(d, path)))
            out.append((f"run.d{d}", self._run(d, path)))
        return out

    def _sample(self, d, path):
        def op():
            code, records = _cli(["sample", path], self.out)
            if code != 0:
                return 1, [f"sample d={d}: exit {code}"]
            n = SAMPLE_SIZES[d]
            cells = [r for r in records if r["record"] == "cell"]
            errors = []
            if len(cells) != d * d or sum(c["count"] for c in cells) != n:
                errors.append(f"sample d={d}: counts do not sum to {n}")
            for c in cells:
                p = c["exact"]
                if abs(c["count"] / n - p) > SAMPLE_SIGMAS * math.sqrt(p * (1.0 - p) / n):
                    errors.append(f"sample d={d}: cell ({c['a']},{c['b']}) off by more than 5 sigma")
            return 1, errors[:1]

        return op

    def _run(self, d, path):
        def op():
            code, records = _cli(["run", path], self.out)
            if code != 0:
                return 1, [f"run d={d}: exit {code}"]
            rec = {r["record"]: r for r in records}
            errors = []
            if not rec["fluctuation"]["max_residual"] <= FLUCTUATION_LIMIT:
                errors.append(f"run d={d}: fluctuation residual {rec['fluctuation']['max_residual']:.3e}")
            jar = rec["jarzynski"]
            if not jar.get("skipped") and not jar["identity_residual"] <= JARZYNSKI_LIMIT:
                errors.append(f"run d={d}: Jarzynski residual {jar['identity_residual']:.3e}")
            return 1, ["; ".join(errors)] if errors else []

        return op


class Audit:
    name = "audit"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.out = os.path.join(workdir, "audit.jsonl")
        self.verify_seed = _seed(rng)
        self.choi_cases = [
            (d, float(lam), float(gam))
            for d in CHOI_DIMS
            for lam in np.sort(rng.uniform(0.1, 0.9, CHOI_GRID))
            for gam in np.sort(rng.uniform(0.1, 0.9, CHOI_GRID))
        ]

    def ops(self, i):
        out = [("verify", self._verify), ("bounds", self._bounds)]
        out += [(f"choi.d{d}", self._choi(d, lam, gam)) for d, lam, gam in self.choi_cases]
        return out

    def _verify(self):
        from jointwork.cli import VERIFY_LIMITS

        dims = ",".join(map(str, VERIFY_DIMS))
        argv = ["verify", "--dims", dims, "--cases", str(VERIFY_CASES), "--seed", str(self.verify_seed)]
        code, records = _cli(argv, self.out)
        blocks = {r["d"]: r for r in records if r["record"] == "verify"}
        errors = []
        for d in VERIFY_DIMS:
            rec = blocks.get(d)
            if rec is None:
                errors.append(f"verify d={d}: no record (exit {code})")
                continue
            worst = [k for k, lim in VERIFY_LIMITS.items() if not rec[f"max_{k}"] <= lim]
            if worst:
                errors.append(f"verify d={d}: over the limit: {', '.join(worst)}")
        if code != 0 and not errors:
            errors.append(f"verify: exit {code}")
        return len(VERIFY_DIMS), errors

    def _bounds(self):
        lo, hi = BOUNDS_RANGE
        code, records = _cli(["bounds", str(lo), str(hi)], self.out)
        if code != 0 or len(records) != hi - lo + 1:
            return 1, [f"bounds {lo} {hi}: exit {code}, {len(records)} rows"]
        return 1, []

    def _choi(self, d, lam, gam):
        def op():
            from jointwork import bloch

            # raises when the closed form and the see-saw disagree beyond 1e-8
            margin = bloch.choi_positivity_margin(d, bloch.VisibilityPair(lam, gam))
            if not math.isfinite(margin):
                return 1, [f"choi d={d} lam={lam:.4f} gam={gam:.4f}: margin {margin}"]
            return 1, []

        return op


WORKLOADS = {w.name: w for w in (Estimate, Sample, Audit)}
