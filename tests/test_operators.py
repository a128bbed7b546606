import dataclasses

import numpy as np
import pytest

from jointwork import gtpm, operators, povm, workobs
from jointwork.bloch import VisibilityPair
from jointwork.errors import DegenerateSpectrumError, NotHermitianError, NotUnitaryError
from jointwork.operators import (
    SpectralHamiltonian,
    haar_random_unitary,
    hamiltonian_from_energies,
    logsumexp,
    require_hermitian,
    require_unitary,
    take_cases,
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


def test_hamiltonian_from_energies_plain():
    h = hamiltonian_from_energies([0.0, 1.0, 2.5])
    assert h.dim == 3
    assert np.allclose(h.matrix(), np.diag([0.0, 1.0, 2.5]))
    with pytest.raises(DegenerateSpectrumError):
        hamiltonian_from_energies([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        hamiltonian_from_energies([1.0, 0.0])


def test_hamiltonian_rejects_overflowing_level_differences():
    # every energy is finite, but their difference is not
    with pytest.raises(ValueError, match="overflow"):
        hamiltonian_from_energies([-1.5e308, 1.5e308])
    with pytest.raises(ValueError, match="overflow"):
        hamiltonian_from_energies([-1e308, 0.0, 1e308])
    assert hamiltonian_from_energies([-8e307, 8e307]).dim == 2


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


def _assert_taken(got, src, idx):
    # got holds the cases idx of src, field by field, with src's write flags
    if isinstance(src, np.ndarray):
        assert np.array_equal(got, src[idx])
        assert got.flags.writeable == src.flags.writeable
    elif isinstance(src, tuple):
        assert len(got) == len(src)
        for g, s in zip(got, src):
            _assert_taken(g, s, idx)
    elif dataclasses.is_dataclass(src):
        assert type(got) is type(src)
        for f in dataclasses.fields(src):
            _assert_taken(getattr(got, f.name), getattr(src, f.name), idx)
    else:
        assert got is src


def test_take_cases_indexes_a_checked_stack_without_checking_it_again(monkeypatch):
    calls = []

    def count(module, name):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(povm, "check_effects")
    for module in (operators, povm, gtpm, workobs):
        count(module, "require_unitary")
    rng = np.random.default_rng(11)
    k, d = 6, 3
    levels = np.cumsum(rng.random((2, k, d)) + 0.1, axis=-1)
    h_a, h_b = (hamiltonian_from_energies(e, haar_random_unitary(d, np.arange(k) + 10 * i))
                for i, e in enumerate(levels))
    u = haar_random_unitary(d, np.arange(k) + 100)
    w = workobs.build_joint_observable(
        h_a, h_b, u, VisibilityPair(rng.uniform(0.3, 0.9, k), rng.uniform(0.1, 0.3, k))
    )
    # the wrappers see the checks the constructors run, and the stack holds
    # read-only and writable arrays, so the flag check sees both kinds
    assert "check_effects" in calls and "require_unitary" in calls
    assert not w.effects.flags.writeable and w.min_effect_eigenvalue.flags.writeable
    calls.clear()
    idx = np.array([4, 1, 3])
    for src in (w, h_a, h_b):
        _assert_taken(take_cases(src, idx), src, idx)
    assert calls == []


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


def _two_call_haar(d, seeds):
    # reference: each seed's Ginibre matrix from two (d, d) draws, then the
    # same QR and phase fix over the stack (or the one matrix)
    def ginibre(s):
        rng = np.random.default_rng(s)
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    z = np.stack([ginibre(s) for s in seeds]) if isinstance(seeds, np.ndarray) else ginibre(seeds)
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_haar_unitary_equals_the_two_call_draw(d):
    # one (2, d, d) draw per seed holds the two (d, d) draws' values
    seeds = np.random.default_rng(40 + d).integers(0, 2**63, size=7)
    assert np.array_equal(haar_random_unitary(d, seeds), _two_call_haar(d, seeds))
    for s in seeds[:3]:
        assert np.array_equal(haar_random_unitary(d, int(s)), _two_call_haar(d, int(s)))
