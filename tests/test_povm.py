import numpy as np
import pytest

from conftest import rotated_spectrum
from jointwork.bloch import kappa
from jointwork.errors import NonInvertibleInstrumentError, NotPsdError
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies
from jointwork.povm import (
    Povm,
    check_marginals,
    heisenberg_povm,
    instrument_channel,
    inverse_instrument_channel,
    luders_apply,
    noisy_effects,
    noisy_povm,
)


@pytest.fixture
def ladder3():
    return hamiltonian_from_energies([0.0, 1.0, 2.0])


def test_povm_validation():
    with pytest.raises(NotPsdError):
        Povm(effects=np.array([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])], dtype=complex))
    with pytest.raises(ValueError):
        Povm(effects=np.array([np.diag([0.5, 0.5])], dtype=complex))
    with pytest.raises(ValueError):
        Povm(effects=np.zeros((2, 2, 3), dtype=complex))


def _effects(d, least, seed):
    # two effects summing to the identity, the first with least eigenvalue
    # `least`, both rotated off the computational basis
    first = rotated_spectrum(np.linspace(least, 0.9, d), seed)
    return np.stack([first, np.eye(d) - first])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_effect_floor(d, eigvalsh_calls):
    # a passing check factorizes and makes no eigvalsh call
    Povm(effects=_effects(d, -0.5e-10, d))
    assert not eigvalsh_calls
    with pytest.raises(NotPsdError, match="effect eigenvalue -2.000e-10 below -1.0e-10"):
        Povm(effects=_effects(d, -2e-10, d))
    # a stack of POVMs fails on its one bad case
    stack = np.stack([_effects(d, least, s) for s, least in enumerate([0.0, 0.01, -2e-10, 0.0])])
    with pytest.raises(NotPsdError, match="-2.000e-10"):
        Povm(effects=stack)
    Povm(effects=np.delete(stack, 2, axis=0))


@pytest.mark.parametrize("d", [2, 3])
def test_non_finite_effects_are_refused(d):
    with pytest.raises(ValueError, match="non-finite"):
        Povm(effects=np.full((2, d, d), np.nan + 0j))
    eff = _effects(d, 0.0, 1)
    eff[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="1 non-finite entries, the first at index \\(0, 0, 1\\)"):
        Povm(effects=eff)
    eff[0, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Povm(effects=eff)


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
    # the effects alone, as the second measurement of a pair uses them
    assert np.array_equal(noisy_povm(ladder3, lam).effects, p.effects)
    with pytest.raises(ValueError):
        noisy_povm(ladder3, -0.1)


def test_sqrt_effects_closed_form_matches_generic(ladder3):
    # scipy's general matrix square root is the independent reference (it
    # warns on the singular sharp effects, whose roots are the projectors);
    # the closed form must square back to the effects at every visibility
    sqrtm = pytest.importorskip("scipy.linalg").sqrtm
    h = hamiltonian_from_energies([0.0, 0.4, 1.1], haar_random_unitary(3, 7))
    for ham in (ladder3, h):
        for lam in (0.0, 0.37, 1.0):
            p = noisy_effects(ham, lam)
            for a in range(3):
                root = p.sqrt_effects[a]
                want = ham.projectors[a] if lam == 1.0 else sqrtm(p.effects[a])
                assert np.allclose(root, want, atol=1e-12), (lam, a)
                assert np.allclose(root @ root, p.effects[a], atol=1e-13), (lam, a)


def test_luders_apply_born_rule(ladder3, rng):
    inst = noisy_effects(ladder3, 0.8)
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
        inst = noisy_effects(ladder, lam)
        k = kappa(d, lam)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = x + x.conj().T
        out = instrument_channel(inst, h)
        want = h * k + np.diag(np.diag(h)) * (1.0 - k)
        assert np.allclose(out, want, atol=1e-12), d


def test_inverse_channel_round_trip(rng):
    u = haar_random_unitary(4, 11)
    h = hamiltonian_from_energies([0.0, 0.4, 1.1, 2.0], u)
    inst = noisy_effects(h, 0.62)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = x + x.conj().T
    fwd = instrument_channel(inst, y)
    assert np.allclose(inverse_instrument_channel(inst, fwd), y, atol=1e-11)
    assert np.allclose(instrument_channel(inst, inverse_instrument_channel(inst, y)), y, atol=1e-11)


def test_inverse_channel_guards(ladder3):
    inst = noisy_effects(ladder3, 1.0)
    with pytest.raises(NonInvertibleInstrumentError):
        inverse_instrument_channel(inst, np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        inverse_instrument_channel(noisy_effects(ladder3, 0.5), np.eye(2, dtype=complex))


def test_heisenberg_povm(ladder3):
    u = haar_random_unitary(3, 5)
    b = noisy_effects(ladder3, 0.7).povm
    hb = heisenberg_povm(b, u)
    for a in range(3):
        want = u.conj().T @ b.effects[a] @ u
        assert np.allclose(hb.effects[a], want, atol=1e-13)
    # one POVM with a stack of unitaries: bitwise the per-unitary calls
    us = haar_random_unitary(3, np.arange(4))
    stacked = heisenberg_povm(b, us).effects
    assert stacked.shape == (4, 3, 3, 3)
    for k in range(4):
        assert np.array_equal(stacked[k], heisenberg_povm(b, us[k]).effects)
    # a stack of POVMs takes a stack of unitaries of the same size
    bs = Povm(effects=np.stack([b.effects] * 3))
    with pytest.raises(ValueError, match="3 POVMs, 4 unitaries"):
        heisenberg_povm(bs, us)


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
