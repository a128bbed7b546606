import numpy as np
import pytest

from conftest import random_hamiltonian
from jointwork.bloch import INVERTIBILITY_CUTOFF, VisibilityPair, gamma_bound, kappa
from jointwork.errors import AssignmentDomainError, NonInvertibleInstrumentError, ZeroVisibilityError
from jointwork.gtpm import free_energy_difference, gibbs_state, gtpm_distribution
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies, take_cases
from jointwork.povm import noisy_effects, noisy_povm
from jointwork.workobs import (
    MIN_EFFECT_TIE,
    build_joint_observable,
    corrected_assignment,
    jarzynski_assignment,
    jarzynski_domain,
    naive_assignment,
)


@pytest.fixture
def qubit():
    return hamiltonian_from_energies([0.0, 1.0])


def test_naive_assignment(qubit):
    f = naive_assignment(qubit)
    assert np.allclose(f.values, [0.0, 1.0])


def test_corrected_assignment_example(qubit):
    # lam=1/2, d=2: f = 2*E_a - mean(E) stretches (0,1) to (-1/2, 3/2)
    f = corrected_assignment(qubit, 0.5)
    assert np.allclose(f.values, [-0.5, 1.5], atol=1e-14)
    # unbiased: the povm-average of f equals the true energy average
    lam = 0.5
    probs = np.array([0.3, 0.7])
    povm_avg = np.array(
        [lam * probs[a] + (1 - lam) / 2 for a in range(2)]
    )
    assert abs(povm_avg @ f.values - probs @ qubit.energies) < 1e-14
    with pytest.raises(ZeroVisibilityError):
        corrected_assignment(qubit, 0.0)


def test_jarzynski_assignment_values(qubit):
    f = jarzynski_assignment(noisy_effects(qubit, 0.9), 1.0)
    assert abs(f.values[0] - (-0.1003288640981550)) < 1e-12
    assert abs(f.values[1] - 1.0345152451903040) < 1e-12


def test_jarzynski_assignment_domain_error(qubit):
    with pytest.raises(AssignmentDomainError) as exc:
        jarzynski_assignment(noisy_effects(qubit, 0.4), 1.0)
    assert exc.value.outcome == 0
    assert abs(exc.value.min_visibility - 0.4621171572600098) < 1e-12
    with pytest.raises(ZeroVisibilityError):
        jarzynski_assignment(noisy_effects(qubit, 0.0), 1.0)


@pytest.mark.parametrize("d, want", [(2, 0.462), (3, 0.730), (4, 0.872)])
def test_jarzynski_domain_closed_form(d, want):
    # levels 0..d-1 at beta = 1: lam_min = 1 - d e^0 / sum_a e^a
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    lam_min = jarzynski_domain(h, 0.5, 1.0)[1]
    assert lam_min == 1.0 - d / np.sum(np.exp(np.arange(d)))
    assert abs(lam_min - want) < 5e-4
    for lam in (lam_min - 1e-3, lam_min + 1e-3):
        inside, _ = jarzynski_domain(h, lam, 1.0)
        assert inside == (lam > lam_min)
        if inside:
            jarzynski_assignment(noisy_effects(h, lam), 1.0)
        else:
            with pytest.raises(AssignmentDomainError) as exc:
                jarzynski_assignment(noisy_effects(h, lam), 1.0)
            assert exc.value.min_visibility == lam_min


def test_jarzynski_domain_per_case_matches_the_assignment(rng):
    # a stack of random cases: the mask is the assignment's own test, case by
    # case, and the stacked assignment raises on the first case outside
    k, d = 40, 3
    e = np.cumsum(rng.random((k, d)) + 0.05, axis=1)
    lam, beta = rng.uniform(0.3, 0.99, k), rng.uniform(0.3, 2.0, k)
    h = hamiltonian_from_energies(e, np.broadcast_to(np.eye(d), (k, d, d)))
    inside, lam_min = jarzynski_domain(h, lam, beta)
    assert 0 < inside.sum() < k
    for i in range(k):
        one = noisy_effects(hamiltonian_from_energies(e[i]), lam[i])
        try:
            jarzynski_assignment(one, beta[i])
            assert inside[i] and lam[i] > lam_min[i]
        except AssignmentDomainError as exc:
            assert not inside[i] and exc.min_visibility == lam_min[i]
    with pytest.raises(AssignmentDomainError) as exc:
        jarzynski_assignment(noisy_effects(h, lam), beta)
    assert exc.value.min_visibility == lam_min[np.argmin(inside)]
    idx = np.flatnonzero(inside)
    stacked = jarzynski_assignment(noisy_effects(take_cases(h, idx), lam[idx]), beta[idx])
    for row, i in zip(stacked.values, idx):
        one = jarzynski_assignment(noisy_effects(hamiltonian_from_energies(e[i]), lam[i]), beta[i])
        assert np.array_equal(row, one.values)


def test_jarzynski_assignment_sharp_limit_recovers_energies(qubit):
    f = jarzynski_assignment(noisy_effects(qubit, 1.0 - 1e-12), 1.0)
    assert np.allclose(f.values, [0.0, 1.0], atol=1e-9)


def test_jarzynski_assignment_rejects_bad_beta(qubit):
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            jarzynski_assignment(noisy_effects(qubit, 0.9), beta)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_observable_marginals_and_completeness(d, rng):
    h_a = random_hamiltonian(d, rng)
    h_b = random_hamiltonian(d, rng)
    u = haar_random_unitary(d, int(rng.integers(2**63)))
    lam = 0.7
    pair = VisibilityPair(lam, 0.9 * gamma_bound(d, lam))
    w = build_joint_observable(h_a, h_b, u, pair)
    assert w.marginal_deviation < 1e-12
    total = w.effects.sum(axis=(0, 1))
    assert np.allclose(total, np.eye(d), atol=1e-12)
    assert w.positivity_ok
    assert w.min_effect_eigenvalue > -1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_observable_matches_the_lab_frame_reference(d, rng):
    # W_ab = A_a^(1/2) Lambda^-1(U^dag B_b U) A_a^(1/2) written out in the lab
    # frame, one effect at a time: Lambda^-1 divides the coherences in the
    # eigenbasis V of h_a by the closed-form kappa(d, lam)
    h_a = random_hamiltonian(d, rng)
    h_b = random_hamiltonian(d, rng)
    u = haar_random_unitary(d, int(rng.integers(2**63)))
    lam = 0.62
    pair = VisibilityPair(lam, 0.9 * gamma_bound(d, lam))
    roots = noisy_effects(h_a, lam).sqrt_effects
    v = h_a.basis
    want = np.empty((d, d, d, d), dtype=complex)
    for b, eff in enumerate(noisy_povm(h_b, pair.gamma).effects):
        y = v.conj().T @ u.conj().T @ eff @ u @ v
        y[~np.eye(d, dtype=bool)] /= kappa(d, lam)
        c = v @ y @ v.conj().T
        for a in range(d):
            want[a, b] = roots[a] @ c @ roots[a]
    w = build_joint_observable(h_a, h_b, u, pair)
    assert np.max(np.abs(w.effects - want)) < 1e-13
    eigs = np.linalg.eigvalsh(0.5 * (want + want.conj().transpose(0, 1, 3, 2)))[:, :, 0]
    assert abs(w.min_effect_eigenvalue - eigs.min()) < 1e-13
    if d == 2:
        # W_01 and W_10 (and W_00 and W_11) share their least eigenvalue; the
        # tie goes to the first of the two in row-major order
        assert w.min_effect_index[0] == 0
        assert eigs[w.min_effect_index] - eigs.min() < 1e-13
    else:
        assert w.min_effect_index == np.unravel_index(np.argmin(eigs), (d, d))


def test_min_effect_index_is_the_first_tied_block(rng):
    # blocks within MIN_EFFECT_TIE of the least eigenvalue tie, and the first
    # in row-major order is reported: at d = 2 always one with a = 0
    for d, n in ((2, 300), (3, 50)):
        for _ in range(n):
            h_a, h_b = random_hamiltonian(d, rng), random_hamiltonian(d, rng)
            u = haar_random_unitary(d, int(rng.integers(2**63)))
            lam = rng.uniform(0.3, 0.95)
            w = build_joint_observable(h_a, h_b, u, VisibilityPair(lam, 0.9 * gamma_bound(d, lam)))
            eff = w.effects
            least = np.linalg.eigvalsh(0.5 * (eff + eff.conj().transpose(0, 1, 3, 2)))[:, :, 0]
            first = np.flatnonzero(least.ravel() <= least.min() + MIN_EFFECT_TIE)[0]
            assert w.min_effect_index == divmod(int(first), d)
            assert w.min_effect_eigenvalue == least.min()
            assert d > 2 or w.min_effect_index[0] == 0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_chain_matches_the_per_case_calls(d, rng):
    # one leading case axis through the observable, the Gibbs table and the
    # assignments gives each case's own results
    k = 7
    seeds = rng.integers(2**63, size=(3, k))
    e = np.cumsum(rng.random((2, k, d)) + 0.05, axis=2)
    lam, beta = rng.uniform(0.3, 0.95, k), rng.uniform(0.3, 2.0, k)
    gam = np.array([0.8 * gamma_bound(d, x) for x in lam])
    h_a = hamiltonian_from_energies(e[0], haar_random_unitary(d, seeds[0]))
    h_b = hamiltonian_from_energies(e[1], haar_random_unitary(d, seeds[1]))
    u = haar_random_unitary(d, seeds[2])
    w = build_joint_observable(h_a, h_b, u, VisibilityPair(lam, gam))
    p = gtpm_distribution(gibbs_state(h_a, beta).rho, w.instrument, u, w.b_lab)
    fc = corrected_assignment(h_a, lam)
    delta_f = free_energy_difference(h_a, h_b, beta)
    for i in range(k):
        us = [haar_random_unitary(d, s) for s in seeds[:, i]]
        assert np.array_equal(us[0], h_a.basis[i]) and np.array_equal(us[2], u[i])
        one_a = hamiltonian_from_energies(e[0, i], us[0])
        one_b = hamiltonian_from_energies(e[1, i], us[1])
        one = build_joint_observable(one_a, one_b, us[2], VisibilityPair(lam[i], gam[i]))
        assert np.max(np.abs(one.effects - w.effects[i])) < 1e-15
        assert abs(one.min_effect_eigenvalue - w.min_effect_eigenvalue[i]) < 1e-15
        assert one.min_effect_index == (w.min_effect_index[0][i], w.min_effect_index[1][i])
        assert abs(one.marginal_deviation - w.marginal_deviation[i]) < 1e-15
        p_one = gtpm_distribution(gibbs_state(one_a, beta[i]).rho, one.instrument, us[2], one.b_lab)
        assert np.max(np.abs(p_one - p[i])) < 1e-15
        assert np.array_equal(corrected_assignment(one_a, lam[i]).values, fc.values[i])
        assert free_energy_difference(one_a, one_b, beta[i]) == delta_f[i]


def test_observable_needs_an_invertible_channel(qubit):
    # the channel is singular from INVERTIBILITY_CUTOFF up, though the pair
    # itself is valid
    lam = 0.9999999999
    assert lam >= INVERTIBILITY_CUTOFF
    with pytest.raises(NonInvertibleInstrumentError):
        build_joint_observable(qubit, qubit, np.eye(2, dtype=complex), VisibilityPair(lam, 1e-5))


def test_observable_positivity_fails_above_bound():
    # d=2 at lam=gamma=0.75 sits outside the compatibility region, so some
    # unitaries must produce a negative effect eigenvalue
    h = hamiltonian_from_energies([0.0, 1.0])
    pair = VisibilityPair(0.75, 0.75)
    worst = 0.0
    for seed in range(40):
        u = haar_random_unitary(2, seed)
        w = build_joint_observable(h, h, u, pair)
        worst = min(worst, w.min_effect_eigenvalue)
    assert worst <= -1e-4


def test_work_values_grid(qubit):
    pair = VisibilityPair(0.8, 0.5)
    w = build_joint_observable(qubit, qubit, np.eye(2, dtype=complex), pair)
    f = naive_assignment(qubit)
    g = corrected_assignment(qubit, 0.5)
    grid = w.work_values(f, g)
    assert grid.shape == (2, 2)
    assert np.allclose(grid, g.values[None, :] - f.values[:, None])
    with pytest.raises(ValueError):
        w.work_values(f, corrected_assignment(hamiltonian_from_energies([0.0, 1.0, 2.0]), 0.5))


def test_corrected_assignments_recover_average_work(rng):
    for d in (2, 3):
        h_a = random_hamiltonian(d, rng)
        h_b = random_hamiltonian(d, rng)
        u = haar_random_unitary(d, int(rng.integers(2**63)))
        lam = 0.65
        pair = VisibilityPair(lam, 0.8 * gamma_bound(d, lam))
        w = build_joint_observable(h_a, h_b, u, pair)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        fc = corrected_assignment(h_a, pair.lam)
        gc = corrected_assignment(h_b, pair.gamma)
        # the average work operator sum_ab w(a,b) W_ab, read on rho
        wop = np.einsum("ab,abij->ij", w.work_values(fc, gc), w.effects)
        want = (
            np.trace(h_b.matrix() @ u @ rho @ u.conj().T).real
            - np.trace(h_a.matrix() @ rho).real
        )
        assert abs(np.trace(wop @ rho).real - want) < 1e-12


def _jarzynski_sum(h_a, h_b, u, pair, beta):
    """sum_ab p(a,b) e^{-beta w(a,b)} over the two-point table of the Gibbs
    state of h_a, as `run` reports it, with the log-domain first assignment
    and the bare second one."""
    w = build_joint_observable(h_a, h_b, u, pair)
    p = gtpm_distribution(gibbs_state(h_a, beta).rho, w.instrument, u, w.b_lab)
    work = w.work_values(jarzynski_assignment(w.instrument, beta), naive_assignment(h_b))
    return float(np.sum(p * np.exp(-beta * work)))


def test_jarzynski_sum_matches_partition_ratio(qubit):
    h_b = hamiltonian_from_energies([0.0, 2.0])
    beta, lam = 1.0, 0.9
    pair = VisibilityPair(lam, 0.9 * gamma_bound(2, lam))
    got = _jarzynski_sum(qubit, h_b, haar_random_unitary(2, 3), pair, beta)
    want = (1.0 + np.exp(-2.0)) / (1.0 + np.exp(-1.0))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.8299965984314521) < 1e-12
    assert abs(free_energy_difference(qubit, h_b, beta) - 0.1863336764752503) < 1e-12


def test_jarzynski_sum_trivial_case(qubit):
    beta, lam = 1.0, 0.8
    pair = VisibilityPair(lam, 0.9 * gamma_bound(2, lam))
    got = _jarzynski_sum(qubit, qubit, np.eye(2, dtype=complex), pair, beta)
    assert abs(got - 1.0) < 1e-12
