"""Per-layer spans recorded from outside the package.

Every public function of the traced modules is replaced, in every module
namespace that holds a reference to it, by a wrapper that only times the
call. The modules import each other by name (``cli.sample_gtpm``,
``workobs.luders_instrument``, ...), so each of those references is patched,
and ``_kernels.dykstra`` / ``_kernels.sample_counts`` are patched as module
attributes. Nothing under ``src/`` changes.

Spans are kept in memory as ``(name, thread id, start, end, result)``; the
result is kept only where a count is read from a public return value
(``FeasibilityResult.status`` / ``.iterations`` and the sampler's count
grid), so a change to a kernel's own tuple does not break the tracer.
Self time is a span's duration minus the part of its interval covered by
its child spans on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time

LAYERS = ("cli", "feasibility", "_kernels", "gtpm", "workobs", "povm", "bloch", "operators")
ESTIMATOR = "feasibility.estimate_critical_visibility"
SOLVE = "feasibility.solve_joint_feasibility"
SAMPLER = "kernels.sample_counts"
KEEP_RESULT = (SOLVE, SAMPLER)
STATUSES = ("feasible_zero_objective", "feasible_positive_objective", "infeasible", "max_iterations")


class _TimedHistory(list):
    """Stands in for the estimator's ``history`` list and stamps each append."""

    def __init__(self, probes):
        super().__init__()
        self._probes = probes

    def append(self, item):
        self._probes.append((time.perf_counter(), bool(item[1])))
        super().append(item)


class Tracer:
    def __init__(self):
        self.spans = []
        self.probes = []  # (time of the history append, probe passed)
        self.marks = []  # benchmark operations: (label, start, end)
        self._patched = []
        self._modules = [importlib.import_module(f"jointwork.{m}") for m in LAYERS]
        self._wrappers = {}
        for mod in self._modules:
            layer = mod.__name__.rsplit(".", 1)[1].lstrip("_")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__ and id(obj) not in self._wrappers:
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

    def _wrap(self, name, fn):
        record = self.spans.append
        clock = time.perf_counter
        ident = threading.get_ident
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                record((name, ident(), start, clock(), out if keep else None))

        if name != ESTIMATOR:
            return timed
        probes = self.probes

        @functools.wraps(fn)
        def estimator(*args, **kwargs):
            # the caller reads its own list afterwards, so it gets the entries back
            history = kwargs.get("history")
            if history is not None:
                kwargs["history"] = _TimedHistory(probes)
            try:
                return timed(*args, **kwargs)
            finally:
                if history is not None:
                    history.extend(kwargs["history"])

        return estimator

    def install(self) -> None:
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def mark(self, label: str, start: float, end: float) -> None:
        self.marks.append((label, start, end))


def self_times(spans):
    """Self time of each span: duration minus its same-thread children."""
    out = [0.0] * len(spans)
    by_thread = {}
    for i, s in enumerate(spans):
        by_thread.setdefault(s[1], []).append(i)
    for idx in by_thread.values():
        idx.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack = []
        for i in idx:
            _, _, start, end, _ = spans[i]
            while stack and spans[stack[-1]][3] <= start:
                stack.pop()
            out[i] += end - start
            if stack:
                out[stack[-1]] -= end - start
            stack.append(i)
    return out


def _within(t, windows):
    return any(a <= t <= b for a, b in windows)


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass (counts and seconds), plus ratios
    pooled over all traced passes."""
    spans = tr.spans
    own = self_times(spans)
    calls, selfs = {}, {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        selfs[s[0]] = selfs.get(s[0], 0.0) + t

    def n(name):
        return calls.get(name, 0) / passes

    def st(*names):
        return sum(selfs.get(x, 0.0) for x in names) / passes

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.startswith(layer + ".")) / passes

    m = {"cli.self_s": layer_self("cli")}
    for layer in ("feasibility", "kernels", "gtpm", "workobs", "povm", "bloch", "operators"):
        m[f"{layer}.self_s"] = layer_self(layer)

    # bisection probes: each ends at its history append, starts at the previous
    # one (or at the estimator's start); a solve belongs to the probe whose
    # append follows its end
    estimates = sorted((s[2], s[3]) for s in spans if s[0] == ESTIMATOR)
    solves = [s for s in spans if s[0] == SOLVE]
    probe_ms, useful = [], 0
    for lo, hi in estimates:
        prev = lo
        for t, ok in sorted(p for p in tr.probes if lo <= p[0] <= hi):
            probe_ms.append(1e3 * (t - prev))
            decided = sum(1 for s in solves if prev < s[3] <= t)
            useful += decided if ok else min(decided, 1)
            prev = t
    m["feasibility.probes"] = len(probe_ms) / passes
    m["feasibility.probe_p50_ms"] = statistics.median(probe_ms) if probe_ms else 0.0
    m["feasibility.probe_max_ms"] = max(probe_ms, default=0.0)
    m["feasibility.problem.calls"] = n("feasibility.joint_feasibility_problem")
    m["feasibility.problem.self_s"] = st("feasibility.joint_feasibility_problem")
    m["feasibility.solve.calls"] = n(SOLVE)
    m["feasibility.solve.self_s"] = st(SOLVE)
    solves_by, iters_by = {}, {}
    for s in solves:
        if s[4] is None:  # the solve raised
            continue
        key = s[4].status.name.lower()
        key = key if key in STATUSES else "other"
        solves_by[key] = solves_by.get(key, 0) + 1
        iters_by[key] = iters_by.get(key, 0) + s[4].iterations
    for key in STATUSES + ("other",):
        m[f"feasibility.solves_{key}"] = solves_by.get(key, 0) / passes
        m[f"feasibility.iters_{key}"] = iters_by.get(key, 0) / passes
    m["feasibility.useful_ratio"] = useful / len(solves) if solves else 0.0
    m["feasibility.estimate.self_s"] = st(ESTIMATOR)

    m["kernels.dykstra.calls"] = n("kernels.dykstra")
    m["kernels.dykstra.self_s"] = st("kernels.dykstra")
    for d in (2, 3):
        windows = [(a, b) for label, a, b in tr.marks if label == f"estimate.d{d}"]
        kernel = sum(t for s, t in zip(spans, own) if s[0] == "kernels.dykstra" and _within(s[2], windows))
        iters = sum(s[4].iterations for s in solves if s[4] is not None and _within(s[2], windows))
        m[f"kernels.dykstra.us_per_iter_d{d}"] = 1e6 * kernel / iters if iters else 0.0

    # computed, not measured: bytes of the temporaries the broadcast sampler
    # allocates for N draws over an m x nb grid (two boolean comparison
    # tables, the gathered conditional CDF rows and four int64 index arrays)
    drawn = computed = 0
    for s in spans:
        if s[0] == SAMPLER and s[4] is not None:
            traj = int(s[4].sum())
            m_out, nb = s[4].shape
            drawn += traj
            computed += traj * (m_out + 9 * nb + 22)
    m["kernels.sample_counts.calls"] = n(SAMPLER)
    m["kernels.sample_counts.self_s"] = st(SAMPLER)
    m["kernels.sample_counts.ns_per_traj"] = 1e9 * selfs.get(SAMPLER, 0.0) / drawn if drawn else 0.0
    m["kernels.sample_counts.computed_bytes"] = computed / passes

    m["gtpm.sample_gtpm.self_s"] = st("gtpm.sample_gtpm")
    for f in ("gtpm.gtpm_distribution", "gtpm.fluctuation_residual", "workobs.build_joint_observable",
              "povm.luders_instrument", "povm.inverse_instrument_channel", "povm.heisenberg_povm",
              "povm.noisy_effects", "bloch.choi_positivity_margin",
              "operators.haar_random_unitary", "operators.hamiltonian_from_energies"):
        m[f"{f}.calls"] = n(f)
        m[f"{f}.self_s"] = st(f)
    m["workobs.assignment.self_s"] = st(
        "workobs.naive_assignment", "workobs.corrected_assignment", "workobs.jarzynski_assignment"
    )
    m["bloch.product_state_minimum.self_s"] = st("bloch.product_state_minimum")
    m["trace.spans"] = len(spans) / passes
    return m
