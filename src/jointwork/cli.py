"""Command-line front end.

Commands:
    bounds       critical-visibility reference table over a dimension range
    run          full report for one experiment file (observable audit,
                 work statistics, fluctuation check, free-energy recovery)
    verify       invariant suites over randomly drawn instances
    feasibility  empirical critical visibility via the convex solver
    sample       Monte Carlo counts for one experiment file

Stdout prints one line per report record, `<record> key=value ...`, with
the keys in the order the command builds them and values at --precision
significant digits; `bounds` prints a CSV table instead. --output writes
the same records for machines (json-lines or csv).

Exit codes: 0 success, 1 verification failure, 2 input error,
3 inadmissible physics parameters, 4 solver non-convergence,
141 standard output closed early (as by `jointwork bounds 2 64 | head -1`;
the rest of the command, --output included, is abandoned).

Experiment files are JSON: energies as lists, matrices row-major with
[re, im] entry pairs, unitaries either explicit or {"haar_seed": n}.
Randomized commands take --seed; without it a fresh seed is drawn and
recorded in the report header, so every emitted report is reproducible.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import secrets
import sys

import numpy as np

from . import _kernels
from .bloch import VisibilityPair, gamma_bound, lambda_mub, lambda_opt, symmetric_critical_visibility
from .errors import AssignmentDomainError, JointWorkError
from .feasibility import estimate_critical_visibility
from .gtpm import (
    DiagonalState,
    fluctuation_residual,
    free_energy_difference,
    gibbs_state,
    gtpm_distribution,
    sample_gtpm,
)
from .operators import haar_random_unitary, hamiltonian_from_energies, per_case, take_cases
from .povm import inverse_instrument_channel, instrument_channel
from .workobs import (
    EnergyAssignment,
    build_joint_observable,
    corrected_assignment,
    jarzynski_assignment,
    jarzynski_domain,
    naive_assignment,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_PHYSICS = 3
EXIT_SOLVER = 4
# what a shell reports for a process killed by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141

# rng.multinomial takes the trajectory count as a C long
SAMPLES_LIMIT = 2**63
# --seed and a spec's "seed" are unsigned 64-bit integers
SEED_LIMIT = 2**64

# verify runs its battery on stacks of k cases at dimension d with
# k * d**4 <= VERIFY_BUDGET, since the (k, m, n, d, d) grids set a block's
# memory. Peaks by tracemalloc of one block, 200 cases at d = 2..5 and 30 at
# d = 6, 8: 0.76 MB (1 x 200) at d = 2, 1.16 (2 x 100) at d = 3, 1.57 (4 x 50)
# at d = 4, 1.76 (8 x 25) at d = 5, 1.42 (3 x 10) at d = 6 and 1.29 (10 x 3)
# at d = 8, where fixed blocks of 25 cases took 3.36 and 9.75 MB
VERIFY_BUDGET = 25 * 5**4


class CliInputError(Exception):
    pass


class CliPhysicsError(Exception):
    pass


# ---------------------------------------------------------------- formatting


def _scalar(value):
    """A numpy scalar as the Python bool, int or float it holds."""
    return value.item() if isinstance(value, np.generic) else value


def _fmt(value, precision: int) -> str:
    value = _scalar(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _round(value, precision: int):
    value = _scalar(value)
    if isinstance(value, float):
        return float(f"{value:.{precision}g}")
    return value


def _emit(records, args) -> None:
    """Write machine-readable records to --output in the chosen format."""
    if not args.output:
        return
    lines = []
    if args.format == "json-lines":
        for rec in records:
            rounded = {k: _round(v, args.precision) for k, v in rec.items()}
            lines.append(json.dumps(rounded, sort_keys=True))
    else:
        for rec in records:
            name = rec["record"]
            for key in sorted(rec):
                if key == "record":
                    continue
                lines.append(f"{name},{key},{_fmt(rec[key], args.precision)}")
    _write_output(args.output, lines)


def _write_output(path: str, lines) -> None:
    """Write report lines to the --output file; a target that cannot be
    written is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CliInputError(f"cannot write --output {path}: {exc.strerror or exc}") from exc


def _report(records, args) -> None:
    """Print one line per record, `<record> key=value ...` with the keys in
    insertion order, then write the same records to --output."""
    for rec in records:
        fields = (f"{k}={_fmt(v, args.precision)}" for k, v in rec.items() if k != "record")
        print(" ".join([rec["record"], *fields]))
    _emit(records, args)


# ------------------------------------------------------------- spec parsing


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number: not a boolean, NaN, an infinity or an integer
    beyond float range."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_REQUIRED = object()


def _field(obj: dict, key: str, where: str, ok, expected: str, default=_REQUIRED):
    """obj[key] when ok accepts it, or default when the key is absent. A
    missing field without a default, or a value ok rejects, is an input error."""
    if key not in obj:
        if default is _REQUIRED:
            raise CliInputError(f"{where}: missing required field '{key}'")
        return default
    value = obj[key]
    if not ok(value):
        raise CliInputError(f"{where}.{key}: expected {expected}")
    return value


def _parse_matrix(raw, d: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != d:
        raise CliInputError(f"{where}: expected {d} rows")
    out = np.empty((d, d), dtype=np.complex128)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != d:
            raise CliInputError(f"{where}[{i}]: expected {d} entries")
        for j, ent in enumerate(row):
            if (
                not isinstance(ent, list)
                or len(ent) != 2
                or not all(_is_number(x) for x in ent)
            ):
                raise CliInputError(f"{where}[{i}][{j}]: expected an [re, im] pair")
            out[i, j] = complex(ent[0], ent[1])
    return out


def _parse_hamiltonian(raw: dict, key: str, d: int, path: str):
    h = _field(raw, key, path, lambda x: isinstance(x, dict), "an object")
    where = f"{path}.{key}"
    energies = _field(
        h, "energies", where,
        lambda e: isinstance(e, list) and len(e) == d and all(_is_number(x) for x in e),
        f"{d} numbers",
    )
    basis = _parse_matrix(h["basis"], d, f"{where}.basis") if "basis" in h else None
    try:
        return hamiltonian_from_energies(np.asarray(energies, dtype=np.float64), basis)
    except (JointWorkError, ValueError) as exc:
        raise CliInputError(f"{where}: {exc}") from exc


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise CliInputError(f"{path}: top level must be an object")
    d = _field(raw, "dimension", path, lambda x: _is_int(x) and x >= 2, "an integer >= 2")
    spec = {"dimension": d}
    spec["h_a"] = _parse_hamiltonian(raw, "hamiltonian_a", d, path)
    spec["h_b"] = _parse_hamiltonian(raw, "hamiltonian_b", d, path)

    uraw = _field(
        raw, "unitary", path,
        lambda u: isinstance(u, dict) and ("haar_seed" in u) ^ ("matrix" in u),
        "exactly one of 'haar_seed' or 'matrix'",
    )
    if "haar_seed" in uraw:
        hs = _field(
            uraw, "haar_seed", f"{path}.unitary", lambda s: _is_int(s) and s >= 0,
            "a nonnegative integer",
        )
        spec["unitary"] = haar_random_unitary(d, hs)
        spec["haar_seed"] = hs
    else:
        spec["unitary"] = _parse_matrix(uraw["matrix"], d, f"{path}.unitary.matrix")
        spec["haar_seed"] = None

    vraw = _field(raw, "visibility", path, lambda v: isinstance(v, dict), "an object")
    where = f"{path}.visibility"
    lam, gam = (_field(vraw, k, where, _is_number, "a number") for k in ("lambda", "gamma"))
    try:
        spec["pair"] = VisibilityPair(float(lam), float(gam))
    except ValueError as exc:
        raise CliInputError(f"{where}: {exc}") from exc

    beta = _field(raw, "beta", path, lambda b: _is_number(b) and b > 0, "a positive number", 1.0)
    spec["beta"] = beta = float(beta)
    # beta*E and beta*(max E - min E) must be finite for the Gibbs weights;
    # compared without forming the products, which would overflow (the
    # quotient may be inf, which is fine)
    e_limit = sys.float_info.max / beta
    for key, name in (("h_a", "hamiltonian_a"), ("h_b", "hamiltonian_b")):
        e = spec[key].energies
        for what, size in (("energy", np.max(np.abs(e))), ("energy spread", e[-1] - e[0])):
            if size > e_limit:
                raise CliInputError(
                    f"{path}.{name}.energies: beta * {what} overflows at beta={beta}"
                )
    # a work value g(b) - f(a) spans both level sets; the difference is taken
    # in Python floats, which overflow to inf without a warning
    e_a, e_b = spec["h_a"].energies, spec["h_b"].energies
    if float(max(e_a[-1], e_b[-1])) - float(min(e_a[0], e_b[0])) > e_limit:
        raise CliInputError(
            f"{path}: beta * energy spread across hamiltonian_a and hamiltonian_b "
            f"overflows at beta={beta}"
        )

    araw = _field(raw, "assignments", path, lambda a: isinstance(a, dict), "an object", {})
    for key, kinds in (("f", ("naive", "corrected", "jarzynski")), ("g", ("naive", "corrected"))):
        spec[f"{key}_kind"] = _field(
            araw, key, f"{path}.assignments", lambda k: k in kinds, f"one of {', '.join(kinds)}",
            "corrected",
        )
    spec["samples"] = _field(
        raw, "samples", path, lambda n: _is_int(n) and 1 <= n < SAMPLES_LIMIT,
        "a positive integer below 2**63", 100000,
    )
    spec["seed"] = _field(
        raw, "seed", path, lambda s: s is None or (_is_int(s) and 0 <= s < SEED_LIMIT),
        "a nonnegative integer below 2**64", None,
    )
    return spec


def _resolve_seed(args, spec_seed=None) -> int:
    if args.seed is not None:
        if not 0 <= args.seed < SEED_LIMIT:
            raise CliInputError("--seed must be an unsigned 64-bit integer")
        return args.seed
    if spec_seed is not None:
        return spec_seed
    return secrets.randbits(63)


def _make_assignment(
    label: str, kind: str, h, visibility: float, beta: float, inst
) -> EnergyAssignment:
    """The requested assignment for measurement `label` (f or g); `inst` is
    that measurement's instrument, which the log-domain kind is built from.
    Raises CliPhysicsError when its values are undefined or overflow."""
    try:
        if kind == "naive":
            return naive_assignment(h)
        if kind == "corrected":
            return corrected_assignment(h, visibility)
        return jarzynski_assignment(inst, beta)
    except (AssignmentDomainError, ValueError) as exc:
        raise CliPhysicsError(f"requested {label} assignment undefined: {exc}") from exc


def _header(command: str, seed: int, fields: dict) -> dict:
    """The first record of every report: command, inputs, seed and backend."""
    return {
        "record": "header",
        "command": command,
        **fields,
        "seed": seed,
        "backend": _kernels.ACTIVE_BACKEND,
    }


def _two_point_chain(h_a, h_b, u, pair: VisibilityPair, beta: float):
    """The measured chain of one experiment: the joint observable (which
    carries the second measurement's lab POVM as w.b_lab), the Gibbs state of
    the first Hamiltonian and the exact two-point table p(a,b) on that state.
    Stacked inputs give the chain of each case."""
    w = build_joint_observable(h_a, h_b, u, pair)
    gibbs = gibbs_state(h_a, beta)
    return w, gibbs, gtpm_distribution(gibbs.rho, w.instrument, u, w.b_lab)


def _sampled_chain(spec: dict, n: int, seed: int):
    """The pipeline `run` and `sample` share: the measured chain of the
    spec's experiment, n trajectories sampled from its two-point table at
    seed, and the header fields both reports start with. Returns (fields, w,
    gibbs, p_exact, counts, freq)."""
    pair, beta = spec["pair"], spec["beta"]
    w, gibbs, p_exact = _two_point_chain(spec["h_a"], spec["h_b"], spec["unitary"], pair, beta)
    counts = sample_gtpm(p_exact, n, seed)
    fields = {"dimension": spec["dimension"], "lambda": pair.lam, "gamma": pair.gamma,
              "beta": beta, "samples": n}
    return fields, w, gibbs, p_exact, counts, counts / counts.sum()


def _jarzynski_terms(w, h_a, h_b, beta: float, f_jar: EnergyAssignment | None = None):
    """exp(-beta w(a,b)) over the grid for the log-domain first assignment
    and the bare second one, the reference exp(-beta dF), and dF. The first
    assignment is f_jar when the caller has built it from w.instrument at
    beta, and is built here otherwise. Raises AssignmentDomainError when the
    first visibility is too small for the log-domain values, and
    OverflowError when an exponential leaves the float range."""
    if f_jar is None:
        f_jar = jarzynski_assignment(w.instrument, beta)
    work = w.work_values(f_jar, naive_assignment(h_b))
    delta_f = free_energy_difference(h_a, h_b, beta)
    with np.errstate(over="ignore"):
        weights = np.exp(-np.asarray(beta)[..., None, None] * work)
        reference = per_case(np.exp(-np.asarray(beta) * delta_f))
    for name, x in (("exp(-beta w)", weights), ("exp(-beta dF)", reference)):
        if not np.all(np.isfinite(x)):
            raise OverflowError(f"{name} overflows the float range")
    return weights, reference, delta_f


# ------------------------------------------------------------------ commands


def cmd_bounds(args) -> int:
    if not (2 <= args.d_min <= args.d_max <= 64):
        raise CliInputError(
            f"need 2 <= d_min <= d_max <= 64, got ({args.d_min}, {args.d_max})"
        )
    records = [
        {
            "record": "bound",
            "d": d,
            "lambda_sym": symmetric_critical_visibility(d),
            "lambda_opt": lambda_opt(d),
            "lambda_mub_corrected": lambda_mub(d),
        }
        for d in range(args.d_min, args.d_max + 1)
    ]
    columns = ("d", "lambda_sym", "lambda_opt", "lambda_mub_corrected")
    lines = [",".join(columns)]
    lines += [",".join(_fmt(rec[k], args.precision) for k in columns) for rec in records]
    print("\n".join(lines))
    if args.output and args.format == "csv":
        _write_output(args.output, lines)
    else:
        _emit(records, args)
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _load_spec(args.spec)
    d, pair, beta = spec["dimension"], spec["pair"], spec["beta"]
    h_a, h_b = spec["h_a"], spec["h_b"]
    seed = _resolve_seed(args, spec["seed"])

    bound = gamma_bound(d, pair.lam)
    admissible = pair.gamma <= bound
    if not admissible and not args.force:
        raise CliPhysicsError(
            f"gamma={pair.gamma} exceeds the positivity bound {bound:.8g} at "
            f"lambda={pair.lam}; rerun with --force to audit the violation"
        )

    fields, w, gibbs, p_exact, _, freq = _sampled_chain(spec, spec["samples"], seed)

    f_assign = _make_assignment("f", spec["f_kind"], h_a, pair.lam, beta, w.instrument)
    # the log-domain kind is rejected for g when the file is read
    g_assign = _make_assignment("g", spec["g_kind"], h_b, pair.gamma, beta, None)
    wvals = w.work_values(f_assign, g_assign)
    work_exact = float(np.sum(p_exact * wvals))
    work_sampled = float(np.sum(freq * wvals))

    fields.update((k, spec[k]) for k in ("haar_seed", "f_kind", "g_kind"))
    records = [
        _header("run", seed, fields),
        {"record": "bound_check", "gamma_bound": bound, "admissible": admissible,
         "forced": bool(args.force and not admissible)},
        {
            "record": "observable_audit",
            "min_effect_eigenvalue": w.min_effect_eigenvalue,
            "min_effect_a": w.min_effect_index[0],
            "min_effect_b": w.min_effect_index[1],
            "marginal_deviation": w.marginal_deviation,
            "positivity_ok": w.positivity_ok,
        },
        {
            "record": "work",
            "average_exact": work_exact,
            "average_sampled": work_sampled,
            "sampling_deviation": abs(work_exact - work_sampled),
        },
        {"record": "fluctuation", "max_residual": fluctuation_residual(w, gibbs)},
    ]

    jar_rec = {"record": "jarzynski"}
    try:
        f_jar = f_assign if spec["f_kind"] == "jarzynski" else None
        weights, reference, delta_f = _jarzynski_terms(w, h_a, h_b, beta, f_jar)
        jar_exact = float(np.sum(p_exact * weights))
        jar_rec.update(
            exact_sum=jar_exact, sampled_sum=float(np.sum(freq * weights)), reference=reference,
            free_energy_difference=delta_f, identity_residual=abs(jar_exact - reference),
        )
    except AssignmentDomainError as exc:
        jar_rec.update(skipped=True, reason=str(exc), min_visibility=exc.min_visibility)
    except OverflowError as exc:
        jar_rec.update({"skipped": True, "reason": str(exc)})
    records.append(jar_rec)

    _report(records, args)
    return EXIT_OK


def _verify_inputs(d: int, case_seeds):
    """The drawn inputs of a block of verify cases, each array with a
    leading case axis. Each case draws from its own stream, in a fixed
    order: levels and a Haar seed for each Hamiltonian, the process's Haar
    seed, lam, gamma, beta, two assignments, a state, a diagonal state's
    probabilities and an operator for the channel round trip. Normal draws
    that follow each other in a stream (f, g and the state's matrix; the
    operator's two halves) are made as one call: a Generator fills an array
    in order, so the values are those of the separate draws. The arithmetic
    on the draws runs once over the block."""
    n, dd = len(case_seeds), d * d
    gaps, shift = np.empty((2, n, d)), np.empty((2, n))
    seeds = np.empty((3, n), dtype=np.int64)
    unif, probs = np.empty((3, n)), np.empty((n, d))
    # f, g and a Ginibre matrix's real and imaginary parts; then another's
    fgx, y = np.empty((n, 2 * d + 2 * dd)), np.empty((n, 2 * dd))
    for k, case_seed in enumerate(case_seeds):
        rng = np.random.default_rng(case_seed)
        for h in (0, 1):
            rng.random(out=gaps[h, k])
            shift[h, k] = rng.standard_normal()
            seeds[h, k] = rng.integers(2**63)
        seeds[2, k] = rng.integers(2**63)
        unif[:, k] = rng.uniform(0.3, 0.95), rng.uniform(0.2, 1.0), rng.uniform(0.3, 2.0)
        rng.standard_normal(out=fgx[k])
        rng.random(out=probs[k])
        rng.standard_normal(out=y[k])

    gaps += 0.05
    e = np.zeros((2, n, d))
    np.cumsum(gaps[..., :-1], axis=-1, out=e[..., 1:])
    e += shift[..., None] * 0.2
    lam, gam, beta = unif
    gam *= np.minimum(gamma_bound(d, lam), 1.0 - 1e-9)

    def ginibre(parts):
        return parts[:, :dd].reshape(n, d, d) + 1j * parts[:, dd:].reshape(n, d, d)

    f, g = fgx[:, :d].copy(), fgx[:, d:2 * d].copy()
    return (e[0], seeds[0], e[1], seeds[1], seeds[2], lam, gam, beta, f, g,
            ginibre(fgx[:, 2 * d:]), probs, ginibre(y))


def _verify_partition(d: int, cases: int) -> list[slice]:
    """The blocks verify runs `cases` cases at dimension d in: the fewest
    that hold k * d**4 <= VERIFY_BUDGET for each block's k cases (one case
    when a single one exceeds it), in order, their sizes differing by at
    most one."""
    count = -(-cases // max(1, VERIFY_BUDGET // d**4))
    size, extra = divmod(cases, count)
    edges = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _verify_block(d: int, case_seeds):
    """The invariant battery over a block of cases, stacked on one leading
    axis and run once through the library, on the inputs `_verify_inputs`
    draws. Returns per-case residuals for each key of VERIFY_LIMITS
    (jarzynski only for the cases inside its log domain), the least effect
    eigenvalues and the mask of skipped Jarzynski cases."""
    e_a, seed_a, e_b, seed_b, seed_u, lam, gam, beta, f, g, x, probs, y = _verify_inputs(
        d, case_seeds
    )
    h_a = hamiltonian_from_energies(e_a, haar_random_unitary(d, seed_a))
    h_b = hamiltonian_from_energies(e_b, haar_random_unitary(d, seed_b))
    u = haar_random_unitary(d, seed_u)
    w, _, p_gibbs = _two_point_chain(h_a, h_b, u, VisibilityPair(lam, gam), beta)
    blocks = (-2, -1)

    def trace(m):
        return np.trace(m, axis1=-2, axis2=-1).real

    out = {
        "marginal": w.marginal_deviation,
        "completeness": np.max(np.abs(w.effects.sum(axis=(1, 2)) - np.eye(d)), axis=blocks),
        "min_effect_eigenvalue": w.min_effect_eigenvalue,
    }
    f, g = EnergyAssignment(values=f), EnergyAssignment(values=g)
    lhs = np.einsum("nab,nabij->nij", w.work_values(f, g), w.effects)
    rhs = np.einsum("na,naij->nij", g.values, w.b_povm.effects) - np.einsum(
        "na,naij->nij", f.values, w.instrument.effects
    )
    out["average_condition"] = np.max(np.abs(lhs - rhs), axis=blocks)

    rho = x @ x.conj().swapaxes(-1, -2)
    rho /= trace(rho)[:, None, None]
    fc, gc = corrected_assignment(h_a, lam), corrected_assignment(h_b, gam)
    wop = np.einsum("nab,nabij->nij", w.work_values(fc, gc), w.effects)
    expect = trace(h_b.matrix() @ u @ rho @ u.conj().swapaxes(-1, -2)) - trace(h_a.matrix() @ rho)
    out["corrected_work"] = np.abs(trace(wop @ rho) - expect)

    probs /= probs.sum(axis=-1, keepdims=True)
    out["fluctuation"] = fluctuation_residual(w, DiagonalState(probabilities=probs, basis=h_a))

    y = 0.5 * (y + y.conj().swapaxes(-1, -2))
    round_trip = inverse_instrument_channel(w.instrument, instrument_channel(w.instrument, y))
    out["channel_round_trip"] = np.max(np.abs(round_trip - y), axis=blocks)

    # the cases inside the log domain, by the test jarzynski_assignment raises on
    in_domain = jarzynski_domain(h_a, lam, beta)[0]
    idx = np.flatnonzero(in_domain)
    out["jarzynski"], out["jarzynski_skipped"] = np.empty(0), ~in_domain
    if idx.size:
        weights, reference, _ = _jarzynski_terms(
            *(take_cases(v, idx) for v in (w, h_a, h_b)), beta[idx]
        )
        out["jarzynski"] = np.abs(np.sum(p_gibbs[idx] * weights, axis=blocks) - reference)
    return out


VERIFY_LIMITS = {
    "marginal": 1e-10,
    "completeness": 1e-10,
    "average_condition": 1e-10,
    "corrected_work": 1e-10,
    "fluctuation": 1e-11,
    "channel_round_trip": 1e-10,
    "jarzynski": 1e-10,
}


def cmd_verify(args) -> int:
    try:
        dims = [int(t) for t in args.dims.split(",") if t]
    except ValueError as exc:
        raise CliInputError(f"--dims: {exc}") from exc
    if not dims or any(d < 2 for d in dims):
        raise CliInputError("--dims must list integers >= 2")
    if args.cases < 1:
        raise CliInputError("--cases must be >= 1")
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    records = [_header("verify", seed, {"dims": ",".join(map(str, dims)), "cases": args.cases})]
    all_ok = True
    for d in dims:
        case_seeds = [int(s) for s in rng.integers(0, 2**63, size=args.cases)]
        results = [_verify_block(d, case_seeds[b]) for b in _verify_partition(d, args.cases)]
        cases = {k: np.concatenate([r[k] for r in results]) for k in results[0]}
        rec = {"record": "verify", "d": d, "cases": args.cases}
        for key, limit in VERIFY_LIMITS.items():
            # np.max keeps a NaN residual, which then fails its check
            worst = float(np.max(cases[key])) if cases[key].size else 0.0
            ok = worst <= limit
            all_ok = all_ok and ok
            rec[f"max_{key}"] = worst
            rec[f"ok_{key}"] = ok
        rec["jarzynski_skipped"] = int(np.sum(cases["jarzynski_skipped"]))
        rec["min_effect_eigenvalue"] = float(np.min(cases["min_effect_eigenvalue"]))
        records.append(rec)
    records.append({"record": "verdict", "ok": all_ok})
    _report(records, args)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_feasibility(args) -> int:
    seed = _resolve_seed(args)
    history = []
    try:
        est = estimate_critical_visibility(
            args.dim, args.unitaries, tol=args.tol, seed=seed, resolution=args.resolution,
            max_iter=args.max_iter, history=history,
        )
    except ValueError as exc:
        # the estimator checks its own arguments
        raise CliInputError(str(exc)) from exc
    except RuntimeError as exc:
        print(f"error: solver failed to bracket the transition: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    analytic = symmetric_critical_visibility(args.dim)
    fields = {k: vars(args)[k] for k in ("dim", "unitaries", "tol", "resolution")}
    records = [_header("feasibility", seed, fields)]
    for lam, ok in history:
        records.append({"record": "probe", "visibility": lam, "feasible": ok})
    records.append({"record": "estimate", "critical_visibility": est, "analytic": analytic,
                    "deviation": abs(est - analytic)})
    _report(records, args)
    return EXIT_OK


def cmd_sample(args) -> int:
    spec = _load_spec(args.spec)
    n = args.samples if args.samples is not None else spec["samples"]
    if not 1 <= n < SAMPLES_LIMIT:
        raise CliInputError("--samples must be >= 1 and below 2**63")
    seed = _resolve_seed(args, spec["seed"])
    fields, _, _, p_exact, counts, freq = _sampled_chain(spec, n, seed)
    dev = float(np.max(np.abs(freq - p_exact)))
    records = [_header("sample", seed, fields)]
    for a in range(spec["dimension"]):
        for b in range(spec["dimension"]):
            count, f, exact = int(counts[a, b]), float(freq[a, b]), float(p_exact[a, b])
            records.append(
                {"record": "cell", "a": a, "b": b, "count": count, "frequency": f, "exact": exact}
            )
    records.append({"record": "summary", "max_frequency_deviation": dev})
    _report(records, args)
    return EXIT_OK


# --------------------------------------------------------------- entry point


def _add_common(sp) -> None:
    sp.add_argument(
        "--precision", type=int, default=7, help="significant digits in output (1..15)"
    )
    sp.add_argument("--output", default=None, help="write machine-readable records here")
    sp.add_argument(
        "--format", choices=("csv", "json-lines"), default="json-lines",
        help="machine-readable output format",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    every later one in the process; callers must not change it. Each
    parse_args call makes a new namespace, and every default is immutable,
    so no flag of one command carries over to the next."""
    ap = argparse.ArgumentParser(
        prog="jointwork", description="joint work observables for noisy energy measurements"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="critical visibility table")
    b.add_argument("d_min", type=int)
    b.add_argument("d_max", type=int)
    _add_common(b)
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("run", help="full report for an experiment file")
    r.add_argument("spec", help="path to a JSON experiment file")
    r.add_argument("--force", action="store_true", help="proceed past the positivity bound")
    _add_common(r)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="randomized invariant suites")
    v.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    v.add_argument("--cases", type=int, default=25, help="random cases per dimension")
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("feasibility", help="empirical critical visibility")
    f.add_argument("--dim", type=int, default=2)
    f.add_argument("--unitaries", type=int, default=20)
    f.add_argument("--tol", type=float, default=1e-7)
    f.add_argument("--resolution", type=float, default=1e-3)
    f.add_argument("--max-iter", type=int, default=20000)
    _add_common(f)
    f.set_defaults(func=cmd_feasibility)

    s = sub.add_parser("sample", help="Monte Carlo counts for an experiment file")
    s.add_argument("spec", help="path to a JSON experiment file")
    s.add_argument("--samples", type=int, default=None, help="override sample count")
    _add_common(s)
    s.set_defaults(func=cmd_sample)

    # bounds draws nothing, so only the commands that draw take a seed
    for seeded in (r, v, f, s):
        seeded.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 1 <= args.precision <= 15:
        print("error: --precision must lie in 1..15", file=sys.stderr)
        return EXIT_INPUT
    try:
        # refuse the --output targets that open() rejects before any work runs
        if args.output and os.path.isdir(args.output):
            raise CliInputError(f"cannot write --output {args.output}: {os.strerror(errno.EISDIR)}")
        if args.output and not os.path.isdir(os.path.dirname(args.output) or "."):
            raise CliInputError(f"cannot write --output {args.output}: {os.strerror(errno.ENOENT)}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so that
        # the flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CliPhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except JointWorkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
