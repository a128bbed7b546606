import numpy as np
import pytest

from jointwork.bloch import kappa
from jointwork.errors import NonInvertibleInstrumentError, NotPsdError
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies, matrix_sqrt_psd
from jointwork.povm import (
    check_marginals,
    depolarize,
    heisenberg_povm,
    instrument_channel,
    inverse_instrument_channel,
    luders_apply,
    luders_instrument,
    noisy_effects,
    povm_from_effects,
)


@pytest.fixture
def ladder3():
    return hamiltonian_from_energies([0.0, 1.0, 2.0])


def test_povm_validation():
    with pytest.raises(NotPsdError):
        povm_from_effects([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])])
    with pytest.raises(ValueError):
        povm_from_effects([np.diag([0.5, 0.5])])
    with pytest.raises(ValueError):
        povm_from_effects(np.zeros((2, 2, 3)))


def test_noisy_effects_spectrum(ladder3):
    lam = 0.6
    p = noisy_effects(ladder3, lam)
    assert p.outcomes == 3
    assert np.allclose(p.effects.sum(axis=0), np.eye(3), atol=1e-14)
    w = np.linalg.eigvalsh(p.effects)
    lo, hi = (1.0 - lam) / 3.0, lam + (1.0 - lam) / 3.0
    for row in w:
        assert np.allclose(np.sort(row), [lo, lo, hi], atol=1e-14)
    with pytest.raises(ValueError):
        noisy_effects(ladder3, 1.2)


def test_sqrt_effects_closed_form_matches_generic(ladder3):
    p = noisy_effects(ladder3, 0.37)
    inst = luders_instrument(p)
    for a in range(3):
        want = matrix_sqrt_psd(p.effects[a])
        assert np.allclose(inst.sqrt_effects[a], want, atol=1e-12)
        assert np.allclose(
            inst.sqrt_effects[a] @ inst.sqrt_effects[a], p.effects[a], atol=1e-13
        )


def test_generic_instrument_from_plain_povm(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e0 = x @ x.conj().T
    e0 /= np.linalg.eigvalsh(e0).max() * 1.5
    p = povm_from_effects(np.stack([e0, np.eye(4) - e0]))
    inst = luders_instrument(p)
    assert inst.hamiltonian is None
    rho = np.eye(4, dtype=complex) / 4.0
    probs = [np.trace(luders_apply(inst, a, rho)).real for a in range(2)]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_luders_apply_born_rule(ladder3, rng):
    inst = luders_instrument(noisy_effects(ladder3, 0.8))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    for a in range(3):
        out = luders_apply(inst, a, rho)
        assert abs(np.trace(out).real - np.trace(inst.povm.effects[a] @ rho).real) < 1e-12
    with pytest.raises(IndexError):
        luders_apply(inst, 3, rho)


def test_instrument_channel_diagonal_structure(rng):
    # in the measured eigenbasis the update channel keeps populations and
    # scales every coherence by kappa
    lam = 0.55
    for d in (3, 2, 4):
        ladder = hamiltonian_from_energies(np.arange(d, dtype=float))
        inst = luders_instrument(noisy_effects(ladder, lam))
        k = kappa(d, lam)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = x + x.conj().T
        out = instrument_channel(inst, h)
        want = h * k + np.diag(np.diag(h)) * (1.0 - k)
        assert np.allclose(out, want, atol=1e-12), d


def test_inverse_channel_round_trip(rng):
    u = haar_random_unitary(4, 11)
    h = hamiltonian_from_energies([0.0, 0.4, 1.1, 2.0], u)
    inst = luders_instrument(noisy_effects(h, 0.62))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = x + x.conj().T
    fwd = instrument_channel(inst, y)
    assert np.allclose(inverse_instrument_channel(inst, fwd), y, atol=1e-11)
    assert np.allclose(instrument_channel(inst, inverse_instrument_channel(inst, y)), y, atol=1e-11)


def test_inverse_channel_guards(ladder3):
    inst = luders_instrument(noisy_effects(ladder3, 1.0))
    with pytest.raises(NonInvertibleInstrumentError):
        inverse_instrument_channel(inst, np.eye(3, dtype=complex))
    generic = luders_instrument(povm_from_effects(noisy_effects(ladder3, 0.5).effects.copy()))
    with pytest.raises(ValueError):
        inverse_instrument_channel(generic, np.eye(3, dtype=complex))


def test_depolarize_is_the_linear_extension(rng):
    gamma, d = 0.6, 3
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    got = depolarize(x, gamma)
    want = gamma * x + (1.0 - gamma) * np.trace(x) / d * np.eye(d)
    assert np.allclose(got, want, atol=1e-14)
    # traceless inputs just shrink, identity is fixed
    t = x - np.trace(x) / d * np.eye(d)
    assert np.allclose(depolarize(t, gamma), gamma * t, atol=1e-13)
    assert np.allclose(depolarize(np.eye(d), gamma), np.eye(d), atol=1e-15)


def test_heisenberg_povm(ladder3):
    u = haar_random_unitary(3, 5)
    b = noisy_effects(ladder3, 0.7).povm
    hb = heisenberg_povm(b, u)
    for a in range(3):
        want = u.conj().T @ b.effects[a] @ u
        assert np.allclose(hb.effects[a], want, atol=1e-13)


def test_check_marginals(ladder3):
    a = noisy_effects(ladder3, 0.5).povm
    b = noisy_effects(ladder3, 0.4).povm
    # independent product grid has both marginals exactly
    grid = np.einsum("aij,b->abij", a.effects, np.full(3, 1.0 / 3.0))
    grid = grid + np.einsum("a,bij->abij", np.full(3, 1.0 / 3.0), b.effects)
    grid -= np.eye(3) / 9.0
    assert check_marginals(grid, a, b) < 1e-13
    bad = grid.copy()
    bad[0, 0] += 0.01 * np.eye(3)
    assert check_marginals(bad, a, b) > 1e-3
