"""Command-line front end.

Commands:
    bounds       critical-visibility reference table over a dimension range
    run          full report for one experiment file (observable audit,
                 work statistics, fluctuation check, free-energy recovery)
    verify       invariant suites over randomly drawn instances
    feasibility  empirical critical visibility via the convex solver
    sample       Monte Carlo counts for one experiment file

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
from .operators import haar_random_unitary, hamiltonian_from_energies
from .povm import inverse_instrument_channel, instrument_channel
from .workobs import (
    EnergyAssignment,
    build_joint_observable,
    corrected_assignment,
    jarzynski_assignment,
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


class CliInputError(Exception):
    pass


class CliPhysicsError(Exception):
    pass


# ---------------------------------------------------------------- formatting


def _fmt(value, precision: int) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{precision}g}"
    return str(value)


def _round(value, precision: int):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.{precision}g}")
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
            name = rec.get("record", "record")
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


def _print_section(title: str, pairs, precision: int) -> None:
    print(title)
    for key, value in pairs:
        print(f"  {key}: {_fmt(value, precision)}")


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


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise CliInputError(f"{where}: missing required field '{key}'")
    return obj[key]


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


def _parse_hamiltonian(raw, d: int, where: str):
    if not isinstance(raw, dict):
        raise CliInputError(f"{where}: expected an object")
    energies = _req(raw, "energies", where)
    if not isinstance(energies, list) or len(energies) != d or not all(
        _is_number(x) for x in energies
    ):
        raise CliInputError(f"{where}.energies: expected {d} numbers")
    basis = None
    if "basis" in raw:
        basis = _parse_matrix(raw["basis"], d, f"{where}.basis")
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
    d = _req(raw, "dimension", path)
    if not _is_int(d) or d < 2:
        raise CliInputError(f"{path}.dimension: expected an integer >= 2")
    spec = {"dimension": d}
    spec["h_a"] = _parse_hamiltonian(_req(raw, "hamiltonian_a", path), d, f"{path}.hamiltonian_a")
    spec["h_b"] = _parse_hamiltonian(_req(raw, "hamiltonian_b", path), d, f"{path}.hamiltonian_b")

    uraw = _req(raw, "unitary", path)
    if not isinstance(uraw, dict) or not ("haar_seed" in uraw) ^ ("matrix" in uraw):
        raise CliInputError(
            f"{path}.unitary: expected exactly one of 'haar_seed' or 'matrix'"
        )
    if "haar_seed" in uraw:
        hs = uraw["haar_seed"]
        if not _is_int(hs) or hs < 0:
            raise CliInputError(f"{path}.unitary.haar_seed: expected a nonnegative integer")
        spec["unitary"] = haar_random_unitary(d, hs)
        spec["haar_seed"] = hs
    else:
        spec["unitary"] = _parse_matrix(uraw["matrix"], d, f"{path}.unitary.matrix")
        spec["haar_seed"] = None

    vraw = _req(raw, "visibility", path)
    if not isinstance(vraw, dict):
        raise CliInputError(f"{path}.visibility: expected an object")
    lam = _req(vraw, "lambda", f"{path}.visibility")
    gam = _req(vraw, "gamma", f"{path}.visibility")
    if not all(_is_number(x) for x in (lam, gam)):
        raise CliInputError(f"{path}.visibility: lambda and gamma must be numbers")
    try:
        spec["pair"] = VisibilityPair(float(lam), float(gam))
    except ValueError as exc:
        raise CliInputError(f"{path}.visibility: {exc}") from exc

    beta = raw.get("beta", 1.0)
    if not _is_number(beta) or beta <= 0:
        raise CliInputError(f"{path}.beta: expected a positive number")
    spec["beta"] = float(beta)
    # beta*E must be finite for the Gibbs weights; compared without forming
    # the product, which would overflow (the quotient may be inf, which is fine)
    e_limit = sys.float_info.max / spec["beta"]
    for key, name in (("h_a", "hamiltonian_a"), ("h_b", "hamiltonian_b")):
        if float(np.max(np.abs(spec[key].energies))) > e_limit:
            raise CliInputError(
                f"{path}.{name}.energies: beta * energy overflows at beta={spec['beta']}"
            )

    araw = raw.get("assignments", {})
    if not isinstance(araw, dict):
        raise CliInputError(f"{path}.assignments: expected an object")
    fkind = araw.get("f", "corrected")
    gkind = araw.get("g", "corrected")
    if fkind not in ("naive", "corrected", "jarzynski"):
        raise CliInputError(f"{path}.assignments.f: unknown kind {fkind!r}")
    if gkind not in ("naive", "corrected"):
        raise CliInputError(f"{path}.assignments.g: unknown kind {gkind!r}")
    spec["f_kind"], spec["g_kind"] = fkind, gkind

    samples = raw.get("samples", 100000)
    if not _is_int(samples) or not 1 <= samples < SAMPLES_LIMIT:
        raise CliInputError(f"{path}.samples: expected a positive integer below 2**63")
    spec["samples"] = samples

    seed = raw.get("seed")
    if seed is not None and (not _is_int(seed) or seed < 0):
        raise CliInputError(f"{path}.seed: expected a nonnegative integer")
    spec["seed"] = seed
    return spec


def _resolve_seed(args, spec_seed=None) -> int:
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
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
    the first Hamiltonian and the exact two-point table p(a,b) on that state."""
    w = build_joint_observable(h_a, h_b, u, pair)
    gibbs = gibbs_state(h_a, beta)
    return w, gibbs, gtpm_distribution(gibbs.rho, w.instrument, u, w.b_lab)


def _jarzynski_terms(w, h_a, h_b, beta: float):
    """exp(-beta w(a,b)) over the grid for the log-domain first assignment
    and the bare second one, the reference exp(-beta dF), and dF. Raises
    AssignmentDomainError when the first visibility is too small for the
    log-domain values."""
    f_jar = jarzynski_assignment(w.instrument, beta)
    weights = np.exp(-beta * w.work_values(f_jar, naive_assignment(h_b)))
    delta_f = free_energy_difference(h_a, h_b, beta)
    return weights, float(np.exp(-beta * delta_f)), delta_f


# ------------------------------------------------------------------ commands


def cmd_bounds(args) -> int:
    if not (2 <= args.d_min <= args.d_max <= 64):
        raise CliInputError(
            f"need 2 <= d_min <= d_max <= 64, got ({args.d_min}, {args.d_max})"
        )
    p = args.precision
    records = []
    header = "d,lambda_sym,lambda_opt,lambda_mub_corrected,lambda_mub_printed"
    lines = [header]
    for d in range(args.d_min, args.d_max + 1):
        row = {
            "record": "bound",
            "d": d,
            "lambda_sym": symmetric_critical_visibility(d),
            "lambda_opt": lambda_opt(d),
            "lambda_mub_corrected": lambda_mub(d),
            "lambda_mub_printed": lambda_mub(d, printed=True),
        }
        records.append(row)
        lines.append(
            ",".join(
                [str(d)]
                + [
                    _fmt(row[k], p)
                    for k in (
                        "lambda_sym",
                        "lambda_opt",
                        "lambda_mub_corrected",
                        "lambda_mub_printed",
                    )
                ]
            )
        )
    print("\n".join(lines))
    if args.output and args.format == "csv":
        _write_output(args.output, lines)
    else:
        _emit(records, args)
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _load_spec(args.spec)
    d, pair, beta, n = spec["dimension"], spec["pair"], spec["beta"], spec["samples"]
    h_a, h_b, u = spec["h_a"], spec["h_b"], spec["unitary"]
    seed = _resolve_seed(args, spec["seed"])
    p = args.precision

    bound = gamma_bound(d, pair.lam)
    admissible = pair.gamma <= bound
    if not admissible and not args.force:
        raise CliPhysicsError(
            f"gamma={pair.gamma} exceeds the positivity bound {bound:.8g} at "
            f"lambda={pair.lam}; rerun with --force to audit the violation"
        )

    w, gibbs, p_exact = _two_point_chain(h_a, h_b, u, pair, beta)
    counts = sample_gtpm(p_exact, n, seed)
    freq = counts / counts.sum()

    f_assign = _make_assignment("f", spec["f_kind"], h_a, pair.lam, beta, w.instrument)
    # the log-domain kind is rejected for g when the file is read
    g_assign = _make_assignment("g", spec["g_kind"], h_b, pair.gamma, beta, None)
    wvals = w.work_values(f_assign, g_assign)
    work_exact = float(np.sum(p_exact * wvals))
    work_sampled = float(np.sum(freq * wvals))

    fluct = fluctuation_residual(w, gibbs)

    fields = {"dimension": d, "lambda": pair.lam, "gamma": pair.gamma, "beta": beta, "samples": n}
    fields.update((k, spec[k]) for k in ("haar_seed", "f_kind", "g_kind"))
    records = [
        _header("run", seed, fields),
        {
            "record": "bound_check",
            "gamma_bound": bound,
            "admissible": admissible,
            "forced": bool(args.force and not admissible),
        },
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
        {"record": "fluctuation", "max_residual": fluct},
    ]

    jar_rec = {"record": "jarzynski"}
    try:
        weights, reference, delta_f = _jarzynski_terms(w, h_a, h_b, beta)
        jar_exact = float(np.sum(p_exact * weights))
        jar_sampled = float(np.sum(freq * weights))
        jar_rec.update(
            {
                "exact_sum": jar_exact,
                "sampled_sum": jar_sampled,
                "reference": reference,
                "free_energy_difference": delta_f,
                "identity_residual": abs(jar_exact - reference),
            }
        )
    except AssignmentDomainError as exc:
        jar_rec.update(
            {"skipped": True, "reason": str(exc), "min_visibility": exc.min_visibility}
        )
    records.append(jar_rec)

    hdr = records[0]
    _print_section(
        "run",
        [(k, hdr[k]) for k in ("dimension", "lambda", "gamma", "beta", "samples", "seed", "backend")],
        p,
    )
    _print_section(
        "bound",
        [
            ("gamma_bound", bound),
            ("admissible", admissible),
            ("min_effect_eigenvalue", w.min_effect_eigenvalue),
            ("marginal_deviation", w.marginal_deviation),
        ],
        p,
    )
    _print_section(
        "work",
        [
            ("average_exact", work_exact),
            ("average_sampled", work_sampled),
            ("fluctuation_residual", fluct),
        ],
        p,
    )
    if "exact_sum" in jar_rec:
        _print_section(
            "free_energy",
            [
                ("jarzynski_exact", jar_rec["exact_sum"]),
                ("jarzynski_sampled", jar_rec["sampled_sum"]),
                ("reference", jar_rec["reference"]),
                ("delta_f", jar_rec["free_energy_difference"]),
            ],
            p,
        )
    else:
        _print_section("free_energy", [("skipped", jar_rec["reason"])], p)
    _emit(records, args)
    return EXIT_OK


def _verify_case(d: int, case_seed: int):
    """One randomized draw of the full invariant battery; returns residuals."""
    rng = np.random.default_rng(case_seed)

    def random_levels():
        gaps = rng.random(d) + 0.05
        e = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        return e + rng.standard_normal() * 0.2

    h_a = hamiltonian_from_energies(random_levels(), haar_random_unitary(d, rng.integers(2**63)))
    h_b = hamiltonian_from_energies(random_levels(), haar_random_unitary(d, rng.integers(2**63)))
    u = haar_random_unitary(d, rng.integers(2**63))
    lam = rng.uniform(0.3, 0.95)
    gam = rng.uniform(0.2, 1.0) * min(gamma_bound(d, lam), 1.0 - 1e-9)
    pair = VisibilityPair(lam, gam)
    beta = rng.uniform(0.3, 2.0)

    w, _, p_gibbs = _two_point_chain(h_a, h_b, u, pair, beta)
    out = {
        "marginal": w.marginal_deviation,
        "completeness": float(
            np.max(np.abs(w.effects.sum(axis=(0, 1)) - np.eye(d)))
        ),
        "min_effect_eigenvalue": w.min_effect_eigenvalue,
    }

    f = EnergyAssignment(values=rng.standard_normal(d), kind=naive_assignment(h_a).kind)
    g = EnergyAssignment(values=rng.standard_normal(d), kind=naive_assignment(h_b).kind)
    lhs = np.einsum("ab,abij->ij", w.work_values(f, g), w.effects)
    rhs = np.einsum("a,aij->ij", g.values, w.b_povm.effects) - np.einsum(
        "a,aij->ij", f.values, w.a_povm.effects
    )
    out["average_condition"] = float(np.max(np.abs(lhs - rhs)))

    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    fc, gc = corrected_assignment(h_a, lam), corrected_assignment(h_b, gam)
    wop = np.einsum("ab,abij->ij", w.work_values(fc, gc), w.effects)
    expect = (
        np.trace(h_b.matrix() @ u @ rho @ u.conj().T).real
        - np.trace(h_a.matrix() @ rho).real
    )
    out["corrected_work"] = abs(float(np.trace(wop @ rho).real) - expect)

    probs = rng.random(d)
    probs /= probs.sum()
    out["fluctuation"] = fluctuation_residual(w, DiagonalState(probabilities=probs, basis=h_a))

    y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    y = 0.5 * (y + y.conj().T)
    inst = w.instrument
    out["channel_round_trip"] = float(
        np.max(np.abs(inverse_instrument_channel(inst, instrument_channel(inst, y)) - y))
    )

    try:
        weights, reference, _ = _jarzynski_terms(w, h_a, h_b, beta)
        out["jarzynski"] = abs(float(np.sum(p_gibbs * weights)) - reference)
    except AssignmentDomainError:
        out["jarzynski"] = None
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
    p = args.precision
    for d in dims:
        case_seeds = [int(s) for s in rng.integers(0, 2**63, size=args.cases)]
        results = [_verify_case(d, s) for s in case_seeds]
        rec = {"record": "verify", "d": d, "cases": args.cases}
        pairs = []
        skipped = sum(1 for r in results if r["jarzynski"] is None)
        for key, limit in VERIFY_LIMITS.items():
            vals = [r[key] for r in results if r[key] is not None]
            worst = max(vals) if vals else 0.0
            ok = worst <= limit
            all_ok = all_ok and ok
            rec[f"max_{key}"] = worst
            rec[f"ok_{key}"] = ok
            pairs.append((f"max {key} (limit {limit:g})", worst))
        rec["jarzynski_skipped"] = skipped
        rec["min_effect_eigenvalue"] = min(r["min_effect_eigenvalue"] for r in results)
        pairs.append(("min effect eigenvalue", rec["min_effect_eigenvalue"]))
        records.append(rec)
        _print_section(f"verify d={d} ({args.cases} cases, {skipped} jarzynski skips)", pairs, p)
    verdict = "pass" if all_ok else "FAIL"
    records.append({"record": "verdict", "ok": all_ok})
    print(f"verdict: {verdict}")
    _emit(records, args)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_feasibility(args) -> int:
    if args.dim < 2:
        raise CliInputError("--dim must be >= 2")
    if args.unitaries < 1:
        raise CliInputError("--unitaries must be >= 1")
    if not (0.0 < args.tol < math.inf and 0.0 < args.resolution < math.inf):
        raise CliInputError("--tol and --resolution must be positive and finite")
    if args.max_iter < 1:
        raise CliInputError("--max-iter must be >= 1")
    seed = _resolve_seed(args)
    history = []
    try:
        est = estimate_critical_visibility(
            args.dim,
            args.unitaries,
            tol=args.tol,
            seed=seed,
            resolution=args.resolution,
            max_iter=args.max_iter,
            history=history,
        )
    except RuntimeError as exc:
        print(f"error: solver failed to bracket the transition: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    analytic = symmetric_critical_visibility(args.dim)
    fields = {k: vars(args)[k] for k in ("dim", "unitaries", "tol", "resolution")}
    records = [_header("feasibility", seed, fields)]
    for lam, ok in history:
        records.append({"record": "probe", "visibility": lam, "feasible": ok})
    records.append(
        {
            "record": "estimate",
            "critical_visibility": est,
            "analytic": analytic,
            "deviation": abs(est - analytic),
        }
    )
    _print_section(
        f"feasibility d={args.dim}",
        [
            ("estimate", est),
            ("analytic", analytic),
            ("deviation", abs(est - analytic)),
            ("probes", len(history)),
        ],
        args.precision,
    )
    _emit(records, args)
    return EXIT_OK


def cmd_sample(args) -> int:
    spec = _load_spec(args.spec)
    d, pair, beta = spec["dimension"], spec["pair"], spec["beta"]
    h_a, h_b, u = spec["h_a"], spec["h_b"], spec["unitary"]
    n = args.samples if args.samples is not None else spec["samples"]
    if not 1 <= n < SAMPLES_LIMIT:
        raise CliInputError("--samples must be >= 1 and below 2**63")
    seed = _resolve_seed(args, spec["seed"])
    p = args.precision
    _, _, p_exact = _two_point_chain(h_a, h_b, u, pair, beta)
    counts = sample_gtpm(p_exact, n, seed)
    freq = counts / counts.sum()
    dev = float(np.max(np.abs(freq - p_exact)))
    fields = {"dimension": d, "lambda": pair.lam, "gamma": pair.gamma, "beta": beta, "samples": n}
    records = [_header("sample", seed, fields)]
    _print_section("sample", [("samples", n), ("seed", seed), ("max_frequency_deviation", dev)], p)
    for a in range(d):
        for b in range(d):
            count, f, exact = int(counts[a, b]), float(freq[a, b]), float(p_exact[a, b])
            records.append(
                {"record": "cell", "a": a, "b": b, "count": count, "frequency": f, "exact": exact}
            )
            print(f"  ({a},{b}): count={count} freq={_fmt(f, p)} exact={_fmt(exact, p)}")
    records.append({"record": "summary", "max_frequency_deviation": dev})
    _emit(records, args)
    return EXIT_OK


# --------------------------------------------------------------- entry point


def _add_common(sp) -> None:
    sp.add_argument(
        "--precision", type=int, default=7, help="significant digits in output (1..15)"
    )
    sp.add_argument("--output", default=None, help="write machine-readable records here")
    sp.add_argument(
        "--format",
        choices=("csv", "json-lines"),
        default="json-lines",
        help="machine-readable output format",
    )


def build_parser() -> argparse.ArgumentParser:
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
