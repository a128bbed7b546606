"""End-to-end acceptance battery.

Each test checks one advertised guarantee at its stated tolerance and
appends a pass/fail summary line that the terminal reporter prints at the
end of the session. Budgets are asserted too; they are generous on any
recent machine.
"""

import time

import numpy as np
import pytest

from conftest import random_hamiltonian, sequential_product_minimum
from jointwork.bloch import (
    VisibilityPair,
    choi_matrix,
    gamma_bound,
    kappa,
    lambda_opt,
    symmetric_critical_visibility,
)
from jointwork.feasibility import (
    FeasibilityStatus,
    estimate_critical_visibility,
    joint_feasibility_problem,
    solve_joint_feasibility,
)
from jointwork.gtpm import (
    DiagonalState,
    fluctuation_residual,
    free_energy_difference,
    gibbs_state,
    gtpm_distribution,
    sample_gtpm,
)
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies
from jointwork.povm import noisy_effects
from jointwork.workobs import (
    EnergyAssignment,
    build_joint_observable,
    corrected_assignment,
    jarzynski_assignment,
    naive_assignment,
)

HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _record(log, num, ok, detail, elapsed, budget):
    verdict = "pass" if ok and elapsed < budget else "FAIL"
    log.append(f"criterion {num:02d} {verdict:4s} {detail} [{elapsed:.1f}s/{budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_qubit_bound_closed_form(acceptance_log):
    t0 = time.perf_counter()
    dev = abs(symmetric_critical_visibility(2) - 1.0 / np.sqrt(2.0))
    _record(
        acceptance_log, 1, dev < 1e-9,
        f"qubit symmetric bound vs 1/sqrt(2): dev {dev:.2e}",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_02_bound_ordering_through_d10(acceptance_log):
    t0 = time.perf_counter()
    eq2 = abs(symmetric_critical_visibility(2) - lambda_opt(2))
    strict = all(
        symmetric_critical_visibility(d) < lambda_opt(d) for d in range(3, 11)
    )
    _record(
        acceptance_log, 2, eq2 < 1e-9 and strict,
        f"symmetric < optimal for d=3..10, equal at d=2 (dev {eq2:.2e})",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_03_positivity_inside_the_region(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = np.inf
    for d in (2, 3, 4):
        h = hamiltonian_from_energies(np.arange(d, dtype=float))
        for lam in np.linspace(0.1, 0.9, 9):
            pair = VisibilityPair(lam, gamma_bound(d, lam) - 1e-4)
            for seed in rng.integers(0, 2**63, size=200):
                u = haar_random_unitary(d, int(seed))
                w = build_joint_observable(h, h, u, pair)
                worst = min(worst, w.min_effect_eigenvalue)
    _record(
        acceptance_log, 3, worst >= -1e-9,
        f"5400 grids just inside the bound: worst eigenvalue {worst:.2e}",
        time.perf_counter() - t0, 120.0,
    )


def test_criterion_04_violation_outside_the_region(acceptance_log):
    t0 = time.perf_counter()
    h = hamiltonian_from_energies([0.0, 1.0])
    pair = VisibilityPair(0.75, 0.75)
    worst = 0.0
    for seed in range(200):
        w = build_joint_observable(h, h, haar_random_unitary(2, seed), pair)
        worst = min(worst, w.min_effect_eigenvalue)
    _record(
        acceptance_log, 4, worst <= -1e-4,
        f"lam=gamma=0.75 at d=2: most negative eigenvalue {worst:.2e}",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_05_average_condition(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for d in (2, 3, 4, 5):
        lam = 0.7
        pair = VisibilityPair(lam, 0.9 * gamma_bound(d, lam))
        for _ in range(100):
            h_a = random_hamiltonian(d, rng)
            h_b = random_hamiltonian(d, rng)
            u = haar_random_unitary(d, int(rng.integers(2**63)))
            w = build_joint_observable(h_a, h_b, u, pair)
            f = EnergyAssignment(values=rng.standard_normal(d))
            g = EnergyAssignment(values=rng.standard_normal(d))
            lhs = np.einsum("ab,abij->ij", w.work_values(f, g), w.effects)
            rhs = np.einsum("a,aij->ij", g.values, w.b_povm.effects) - np.einsum(
                "a,aij->ij", f.values, w.instrument.effects
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = x @ x.conj().T
            rho /= np.trace(rho).real
            worst = max(
                worst, abs(float(np.trace((lhs - rhs) @ rho).real))
            )
    _record(
        acceptance_log, 5, worst < 1e-10,
        f"work-weighted grid equals marginal difference: worst {worst:.2e}",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_06_corrected_mean_work_recovery(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for d in (2, 3, 4, 5):
        lam = 0.65
        pair = VisibilityPair(lam, 0.85 * gamma_bound(d, lam))
        for _ in range(25):
            h_a = random_hamiltonian(d, rng)
            h_b = random_hamiltonian(d, rng)
            u = haar_random_unitary(d, int(rng.integers(2**63)))
            w = build_joint_observable(h_a, h_b, u, pair)
            wop = np.einsum(
                "ab,abij->ij",
                w.work_values(
                    corrected_assignment(h_a, pair.lam), corrected_assignment(h_b, pair.gamma)
                ),
                w.effects,
            )
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = x @ x.conj().T  # generic mixed state, coherences included
            rho /= np.trace(rho).real
            want = (
                np.trace(h_b.matrix() @ u @ rho @ u.conj().T).real
                - np.trace(h_a.matrix() @ rho).real
            )
            worst = max(worst, abs(float(np.trace(wop @ rho).real) - want))
    _record(
        acceptance_log, 6, worst < 1e-10,
        f"mean-corrected assignments recover the true average work: worst {worst:.2e}",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_07_fluctuation_condition(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst = 0.0
    for d in (2, 3, 4, 5):
        lam = 0.7
        gam = 0.9 * gamma_bound(d, lam)
        h = hamiltonian_from_energies(np.arange(d, dtype=float))
        for _ in range(50):
            u = haar_random_unitary(d, int(rng.integers(2**63)))
            w = build_joint_observable(h, h, u, VisibilityPair(lam, gam))
            for _ in range(20):
                probs = rng.random(d)
                probs /= probs.sum()
                state = DiagonalState(probabilities=probs, basis=h)
                worst = max(worst, fluctuation_residual(w, state))
    _record(
        acceptance_log, 7, worst <= 1e-11,
        f"sequential statistics match the grid on 4000 diagonal states: worst {worst:.2e}",
        time.perf_counter() - t0, 120.0,
    )


def _jarzynski_setup(d, beta):
    e_a = np.arange(d, dtype=float)
    e_b = 2.0 * np.arange(d, dtype=float)
    h_a = hamiltonian_from_energies(e_a)
    h_b = hamiltonian_from_energies(e_b)
    s = np.sum(np.exp(beta * e_a))
    lam_min = max(0.0, 1.0 - d / s)
    lam = lam_min + 0.6 * (1.0 - lam_min)
    gam = 0.9 * gamma_bound(d, lam)
    return h_a, h_b, lam, gam


def test_criterion_08_jarzynski_identity_exact(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for beta in (0.5, 1.0, 2.0):
            h_a, h_b, lam, gam = _jarzynski_setup(d, beta)
            f = jarzynski_assignment(noisy_effects(h_a, lam), beta)
            g = naive_assignment(h_b)
            rho = gibbs_state(h_a, beta).rho
            b_lab = noisy_effects(h_b, gam).povm
            want = np.exp(-beta * free_energy_difference(h_a, h_b, beta))
            for seed in range(20):
                u = haar_random_unitary(d, seed)
                w = build_joint_observable(h_a, h_b, u, VisibilityPair(lam, gam))
                p = gtpm_distribution(rho, w.instrument, u, b_lab)
                got = float(np.sum(p * np.exp(-beta * w.work_values(f, g))))
                worst = max(worst, abs(got - want))
    # trivial process: same Hamiltonian, identity evolution, ratio exactly 1
    h = hamiltonian_from_energies([0.0, 1.0])
    w = build_joint_observable(h, h, np.eye(2, dtype=complex), VisibilityPair(0.8, 0.5))
    p = gtpm_distribution(
        gibbs_state(h, 1.0).rho, w.instrument, np.eye(2), noisy_effects(h, 0.5).povm
    )
    wv = w.work_values(jarzynski_assignment(w.instrument, 1.0), naive_assignment(h))
    triv = abs(float(np.sum(p * np.exp(-wv))) - 1.0)
    _record(
        acceptance_log, 8, worst < 1e-10 and triv < 1e-12,
        f"exponential work average hits Z_B/Z_A: worst {worst:.2e}, trivial {triv:.2e}",
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_09_jarzynski_identity_sampled(acceptance_log):
    t0 = time.perf_counter()
    d, beta, n = 2, 1.0, 1000000
    h_a, h_b, lam, gam = _jarzynski_setup(d, beta)
    lam = 0.9
    gam = 0.9 * gamma_bound(d, lam)
    u = haar_random_unitary(d, 42)
    w = build_joint_observable(h_a, h_b, u, VisibilityPair(lam, gam))
    rho = gibbs_state(h_a, beta).rho
    b_lab = noisy_effects(h_b, gam).povm
    x = np.exp(-beta * w.work_values(jarzynski_assignment(w.instrument, beta), naive_assignment(h_b)))
    want = np.exp(-beta * free_energy_difference(h_a, h_b, beta))
    p = gtpm_distribution(rho, w.instrument, u, b_lab)
    hits = 0
    for seed in range(20):
        freq = sample_gtpm(p, n, seed) / n
        est = float(np.sum(freq * x))
        se = np.sqrt(max(float(np.sum(freq * x * x)) - est * est, 1e-30) / n)
        hits += abs(est - want) <= 4.0 * se
    _record(
        acceptance_log, 9, hits >= 19,
        f"1e6-trajectory estimator within 4 SE for {hits}/20 seeds",
        time.perf_counter() - t0, 120.0,
    )


def test_criterion_10_solver_reproduces_the_bound(acceptance_log):
    t0 = time.perf_counter()
    devs = []
    for d in (2, 3):
        est = estimate_critical_visibility(d, 50, tol=1e-7, seed=10)
        devs.append(abs(est - symmetric_critical_visibility(d)))
    _record(
        acceptance_log, 10, max(devs) < 0.01,
        f"empirical vs analytic critical visibility: d=2 dev {devs[0]:.4f}, d=3 dev {devs[1]:.4f}",
        time.perf_counter() - t0, 600.0,
    )


def test_criterion_11_projective_no_go(acceptance_log):
    t0 = time.perf_counter()
    h = hamiltonian_from_energies([0.0, 1.0])
    res = solve_joint_feasibility(joint_feasibility_problem(h, h, HAD, 1.0, 1.0))
    _record(
        acceptance_log, 11, res.status is FeasibilityStatus.INFEASIBLE and res.certified,
        f"sharp qubit pair declared {res.status.value}, certified {res.certified} "
        f"(gap {res.gap:.3f})",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_12_choi_margin_consistency(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    worst_boundary = 0.0
    for d in (2, 3, 4):
        for lam in np.linspace(0.1, 0.9, 5):
            k = kappa(d, lam)
            for gam in np.linspace(0.1, 0.9, 5):
                closed = 1.0 - gam + d * gam / 2.0 - d * gam / (2.0 * k)
                numeric = sequential_product_minimum(
                    choi_matrix(d, VisibilityPair(lam, gam)), d
                )
                worst = max(worst, abs(closed - numeric))
            gb = gamma_bound(d, lam)
            boundary = 1.0 - gb + d * gb / 2.0 - d * gb / (2.0 * k)
            worst_boundary = max(worst_boundary, abs(boundary))
    _record(
        acceptance_log, 12, worst < 1e-8 and worst_boundary < 1e-9,
        f"closed-form margin vs search: worst {worst:.2e}, boundary {worst_boundary:.2e}",
        time.perf_counter() - t0, 60.0,
    )
