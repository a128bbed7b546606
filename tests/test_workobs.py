import numpy as np
import pytest

from conftest import random_hamiltonian
from jointwork.bloch import VisibilityPair, gamma_bound
from jointwork.errors import AssignmentDomainError, ZeroVisibilityError
from jointwork.gtpm import free_energy_difference, gibbs_state
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies
from jointwork.povm import noisy_effects
from jointwork.workobs import (
    build_joint_observable,
    corrected_assignment,
    jarzynski_assignment,
    jarzynski_sum,
    mean_work,
    naive_assignment,
    work_distribution,
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
        dist = work_distribution(
            w, rho, corrected_assignment(h_a, pair.lam), corrected_assignment(h_b, pair.gamma)
        )
        want = (
            np.trace(h_b.matrix() @ u @ rho @ u.conj().T).real
            - np.trace(h_a.matrix() @ rho).real
        )
        assert abs(mean_work(dist) - want) < 1e-12


def test_work_distribution_validation(qubit):
    pair = VisibilityPair(0.8, 0.5)
    w = build_joint_observable(qubit, qubit, np.eye(2, dtype=complex), pair)
    f = naive_assignment(qubit)
    with pytest.raises(ValueError):
        work_distribution(w, np.eye(2, dtype=complex), f, f)  # trace 2


def test_jarzynski_sum_matches_partition_ratio(qubit):
    h_b = hamiltonian_from_energies([0.0, 2.0])
    beta, lam = 1.0, 0.9
    pair = VisibilityPair(lam, 0.9 * gamma_bound(2, lam))
    u = haar_random_unitary(2, 3)
    w = build_joint_observable(qubit, h_b, u, pair)
    rho = gibbs_state(qubit, beta).rho
    dist = work_distribution(
        w, rho, jarzynski_assignment(w.instrument, beta), naive_assignment(h_b)
    )
    got = jarzynski_sum(dist, beta)
    want = (1.0 + np.exp(-2.0)) / (1.0 + np.exp(-1.0))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.8299965984314521) < 1e-12
    assert abs(free_energy_difference(qubit, h_b, beta) - 0.1863336764752503) < 1e-12
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            jarzynski_sum(dist, bad)


def test_jarzynski_sum_trivial_case(qubit):
    beta, lam = 1.0, 0.8
    pair = VisibilityPair(lam, 0.9 * gamma_bound(2, lam))
    w = build_joint_observable(qubit, qubit, np.eye(2, dtype=complex), pair)
    rho = gibbs_state(qubit, beta).rho
    dist = work_distribution(
        w, rho, jarzynski_assignment(w.instrument, beta), naive_assignment(qubit)
    )
    assert abs(jarzynski_sum(dist, beta) - 1.0) < 1e-12
