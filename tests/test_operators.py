import numpy as np
import pytest

from jointwork.errors import (
    DegenerateSpectrumError,
    NotHermitianError,
    NotPsdError,
    NotUnitaryError,
)
from jointwork.operators import (
    SpectralHamiltonian,
    haar_random_unitary,
    hamiltonian_from_energies,
    logsumexp,
    matrix_sqrt_psd,
    require_hermitian,
    require_unitary,
)


def test_logsumexp_matches_scipy_bit_for_bit():
    # same algorithm as the reference, so equal bits, ties among the maxima included
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(3)
    for i in range(2000):
        d = int(rng.integers(1, 9))
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        if i % 2:
            x = np.round(x)  # repeated entries
        assert logsumexp(x) == float(special.logsumexp(x))
    assert logsumexp([-800.0, -800.0]) == -800.0 + np.log(2.0)


def test_require_hermitian_accepts_and_symmetrizes():
    a = np.array([[1.0, 2.0 + 1e-14j], [2.0, 3.0]], dtype=complex)
    h = require_hermitian(a)
    assert np.allclose(h, h.conj().T, atol=0)


def test_require_hermitian_rejects():
    with pytest.raises(NotHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_hermitian(np.zeros((2, 3)))


def test_require_unitary():
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    require_unitary(u)
    with pytest.raises(NotUnitaryError):
        require_unitary(u * 1.001)


def test_matrix_sqrt_psd_round_trip(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = x @ x.conj().T
    r = matrix_sqrt_psd(m)
    assert np.allclose(r @ r, m, atol=1e-12)
    assert np.allclose(r, r.conj().T, atol=0)


def test_matrix_sqrt_psd_rejects_negative():
    with pytest.raises(NotPsdError):
        matrix_sqrt_psd(np.diag([1.0, -0.5]))


def test_matrix_sqrt_psd_clips_tiny_negative():
    r = matrix_sqrt_psd(np.diag([1.0, -1e-13]))
    assert np.linalg.eigvalsh(r)[0] >= 0.0


def test_hamiltonian_from_energies_plain():
    h = hamiltonian_from_energies([0.0, 1.0, 2.5])
    assert h.dim == 3
    assert np.allclose(h.matrix(), np.diag([0.0, 1.0, 2.5]))
    with pytest.raises(DegenerateSpectrumError):
        hamiltonian_from_energies([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        hamiltonian_from_energies([1.0, 0.0])


def test_hamiltonian_rotated_basis():
    u = haar_random_unitary(3, 7)
    h = hamiltonian_from_energies([0.0, 1.0, 2.0], u)
    m = h.matrix()
    w = np.linalg.eigvalsh(m)
    assert np.allclose(w, [0.0, 1.0, 2.0], atol=1e-12)


def test_hamiltonian_arrays_read_only():
    h = hamiltonian_from_energies([0.0, 1.0])
    with pytest.raises(ValueError):
        h.energies[0] = 5.0
    with pytest.raises(ValueError):
        h.projectors[0, 0, 0] = 5.0


def test_spectral_hamiltonian_validates_shapes():
    with pytest.raises(ValueError):
        SpectralHamiltonian(
            energies=np.array([0.0, 1.0]),
            basis=np.eye(3, dtype=complex),
            projectors=np.zeros((2, 2, 2), dtype=complex),
        )


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar_random_unitary(4, 123)
    u2 = haar_random_unitary(4, 123)
    assert np.array_equal(u1, u2)
    assert np.allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-12)
    assert not np.allclose(u1, haar_random_unitary(4, 124))


def test_haar_unitary_first_entry_moment():
    # E|U_00|^2 = 1/d for the invariant measure; 1e5 draws, 5 sigma band
    d, n = 2, 100000
    rng = np.random.default_rng(99)
    seeds = rng.integers(0, 2**63, size=n)
    vals = np.empty(n)
    for i, s in enumerate(seeds):
        vals[i] = abs(haar_random_unitary(d, int(s))[0, 0]) ** 2
    mean = vals.mean()
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 1.0 / d) < 5.0 * se
