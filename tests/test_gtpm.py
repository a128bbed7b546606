import numpy as np
import pytest
from scipy import stats

from conftest import random_hamiltonian
from jointwork.bloch import VisibilityPair, gamma_bound
from jointwork.errors import BasisMismatchError
from jointwork.gtpm import (
    DiagonalState,
    fluctuation_residual,
    free_energy_difference,
    gibbs_state,
    gtpm_distribution,
    sample_gtpm,
)
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies
from jointwork.povm import luders_instrument, noisy_effects
from jointwork.workobs import build_joint_observable


@pytest.fixture
def qubit():
    return hamiltonian_from_energies([0.0, 1.0])


def _setup(d, lam, gam, useed, rng=None):
    h = hamiltonian_from_energies(np.arange(d, dtype=float))
    u = haar_random_unitary(d, useed)
    inst = luders_instrument(noisy_effects(h, lam))
    b_lab = noisy_effects(h, gam).povm
    return h, u, inst, b_lab


def test_gibbs_state_anchor(qubit):
    g = gibbs_state(qubit, 1.0)
    assert isinstance(g, DiagonalState) and g.basis is qubit
    # p_0 = 1/Z with Z = 1 + e^-1 = 1.3678794411714423
    assert np.allclose(
        g.probabilities, [0.7310585786300049, 0.2689414213699951], atol=1e-14
    )
    assert abs(np.trace(g.rho).real - 1.0) < 1e-14


def test_gibbs_state_needs_positive_beta(qubit):
    # rejected before any arithmetic, so no RuntimeWarning comes first
    for beta in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            gibbs_state(qubit, beta)
        with pytest.raises(ValueError):
            free_energy_difference(qubit, qubit, beta)


def test_diagonal_state_validation(qubit):
    with pytest.raises(ValueError):
        DiagonalState(probabilities=np.array([0.6, 0.6]), basis=qubit)
    with pytest.raises(ValueError):
        DiagonalState(probabilities=np.array([1.2, -0.2]), basis=qubit)
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [0.5, -np.inf]):
        with pytest.raises(ValueError):
            DiagonalState(probabilities=np.array(bad), basis=qubit)
    s = DiagonalState(probabilities=np.array([0.25, 0.75]), basis=qubit)
    assert np.allclose(s.rho, np.diag([0.25, 0.75]))


def test_free_energy_difference_anchor(qubit):
    h_b = hamiltonian_from_energies([0.0, 2.0])
    assert abs(free_energy_difference(qubit, h_b, 1.0) - 0.1863336764752503) < 1e-14
    assert free_energy_difference(qubit, qubit, 1.0) == 0.0


def test_gtpm_distribution_normalization(rng):
    d, lam, gam = 3, 0.7, 0.4
    h, u, inst, b_lab = _setup(d, lam, gam, 17)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    p = gtpm_distribution(rho, inst, u, b_lab)
    assert p.shape == (d, d)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-12


def test_sequential_stats_match_joint_observable_for_diagonal_states(rng):
    # the defining property of the two-point grid: running the instrument,
    # the unitary, and the second measurement reproduces Tr[W rho] whenever
    # rho is diagonal in the first energy basis
    for d in (2, 3):
        lam = 0.75
        gam = 0.8 * gamma_bound(d, lam)
        h = hamiltonian_from_energies(np.arange(d, dtype=float))
        u = haar_random_unitary(d, int(rng.integers(2**63)))
        w = build_joint_observable(h, h, u, VisibilityPair(lam, gam))
        probs = rng.random(d)
        probs /= probs.sum()
        state = DiagonalState(probabilities=probs, basis=h)
        res = fluctuation_residual(w, state)
        assert res < 1e-11


def test_fluctuation_residual_detects_coherence(qubit):
    # a state with coherence in the energy basis must break the equality
    lam = 0.75
    gam = 0.8 * gamma_bound(2, lam)
    u = haar_random_unitary(2, 23)
    w = build_joint_observable(qubit, qubit, u, VisibilityPair(lam, gam))
    b_lab = noisy_effects(qubit, gam).povm
    plus = np.full((2, 2), 0.5, dtype=complex)
    lhs = np.einsum("abij,ji->ab", w.effects, plus).real
    rhs = gtpm_distribution(plus, w.instrument, u, b_lab)
    assert np.max(np.abs(lhs - rhs)) > 1e-3


def test_fluctuation_residual_basis_mismatch(qubit):
    lam = 0.75
    gam = 0.5
    u = haar_random_unitary(2, 2)
    w = build_joint_observable(qubit, qubit, u, VisibilityPair(lam, gam))
    other = hamiltonian_from_energies([0.0, 1.0], haar_random_unitary(2, 9))
    state = DiagonalState(probabilities=np.array([0.5, 0.5]), basis=other)
    with pytest.raises(BasisMismatchError):
        fluctuation_residual(w, state)


def test_sample_gtpm_deterministic_and_normalized(qubit):
    lam, gam = 0.8, 0.4
    h, u, inst, b_lab = _setup(2, lam, gam, 31)
    rho = gibbs_state(h, 1.0).rho
    p = gtpm_distribution(rho, inst, u, b_lab)
    c1 = sample_gtpm(p, 50000, 12345)
    c2 = sample_gtpm(p, 50000, 12345)
    assert np.array_equal(c1, c2)
    assert c1.sum() == 50000
    assert c1.dtype.kind in "iu"
    c3 = sample_gtpm(p, 50000, 54321)
    assert not np.array_equal(c1, c3)


def test_sample_gtpm_seed_stream_pinned():
    # exact count tables per seed: a change here changes every sampled report
    h_a = hamiltonian_from_energies([0.0, 1.0])
    h_b = hamiltonian_from_energies([0.0, 2.0])
    inst = luders_instrument(noisy_effects(h_a, 0.6))
    b_lab = noisy_effects(h_b, 0.6).povm
    p = gtpm_distribution(gibbs_state(h_a, 1.0).rho, inst, np.eye(2), b_lab)
    counts = sample_gtpm(p, 50000, 11)
    assert counts.tolist() == [[23860, 8148], [7861, 10131]]

    h = hamiltonian_from_energies([0.0, 0.7, 1.9])
    inst = luders_instrument(noisy_effects(h, 0.7))
    b_lab = noisy_effects(h, 0.5).povm
    u = haar_random_unitary(3, 4)
    p = gtpm_distribution(gibbs_state(h, 0.8).rho, inst, u, b_lab)
    counts = sample_gtpm(p, 123457, 5)
    assert counts.tolist() == [[13410, 13659, 33710], [12764, 17281, 9865], [8251, 7084, 7433]]


def test_sample_gtpm_chi_square_calibration():
    # counts against the exact law: the 99.9% quantile should be exceeded
    # in at most ~0.1% of runs; demand >= 99 of 100 seeds inside
    d, lam, gam, n = 2, 0.75, 0.45, 20000
    h, u, inst, b_lab = _setup(d, lam, gam, 7)
    rho = gibbs_state(h, 1.0).rho
    table = gtpm_distribution(rho, inst, u, b_lab)
    p = table.ravel()
    cutoff = stats.chi2.ppf(0.999, d * d - 1)
    passed = 0
    for seed in range(100):
        counts = sample_gtpm(table, n, seed).ravel()
        stat = np.sum((counts - n * p) ** 2 / (n * p))
        passed += stat <= cutoff
    assert passed >= 99


def test_sample_gtpm_frequencies_converge(qubit):
    lam, gam = 0.7, 0.5
    h, u, inst, b_lab = _setup(2, lam, gam, 41)
    rho = gibbs_state(h, 0.5).rho
    p = gtpm_distribution(rho, inst, u, b_lab)
    n = 400000
    freq = sample_gtpm(p, n, 8) / n
    assert np.max(np.abs(freq - p)) < 5.0 / np.sqrt(n)


def test_sample_gtpm_zero_probability_cells_get_no_counts():
    # an energy eigenstate left alone by u = 1 is never found elsewhere by
    # a sharp second measurement, whatever the noisy first outcome was
    h = hamiltonian_from_energies([0.0, 1.0, 2.5])
    inst = luders_instrument(noisy_effects(h, 0.6))
    sharp = noisy_effects(h, 1.0).povm
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    p = gtpm_distribution(rho, inst, np.eye(3), sharp)
    assert (p == 0.0).sum() == 6  # every cell off the column b = 1
    n = 100000
    counts = sample_gtpm(p, n, 3)
    assert counts.sum() == n
    assert np.all(counts[p == 0.0] == 0)
    assert np.all(counts[:, 1] > 0)
    # a sharp first measurement never finds the empty levels: two whole
    # rows of the table are zero and are never drawn
    sharp_first = luders_instrument(noisy_effects(h, 1.0))
    p = gtpm_distribution(rho, sharp_first, np.eye(3), noisy_effects(h, 0.5).povm)
    counts = sample_gtpm(p, n, 3)
    assert counts.sum() == n
    assert not counts[[0, 2]].any()


def test_sample_gtpm_rejects_a_table_that_is_not_a_distribution():
    good = np.array([[0.5, 0.2], [0.3, 0.0]])
    assert sample_gtpm(good, 10, 0).sum() == 10
    nan = good.copy()
    nan[0, 1] = np.nan
    negative = good + np.array([[2e-12, 0.0], [0.0, -2e-12]])
    off_sum = good * (1.0 + 1e-9)
    for bad in (good.ravel(), nan, negative, off_sum):
        with pytest.raises(ValueError):
            sample_gtpm(bad, 10, 0)
