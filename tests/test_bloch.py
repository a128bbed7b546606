import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointwork.bloch import (
    VisibilityPair,
    choi_matrix,
    choi_positivity_margin,
    gamma_bound,
    kappa,
    lambda_mub,
    lambda_opt,
    product_state_minimum,
    symmetric_critical_visibility,
)
from jointwork.errors import NotHermitianError


def test_kappa_values():
    assert abs(kappa(2, 0.5) - np.sqrt(3.0) / 2.0) < 1e-15
    # at zero visibility nothing is disturbed, at one everything is
    assert abs(kappa(3, 0.0) - 1.0) < 1e-15
    assert abs(kappa(3, 1.0)) < 1e-15


def test_gamma_bound_values():
    assert abs(gamma_bound(3, 0.5) - 10.0 / 13.0) < 1e-15
    # d=2 collapses to gamma <= kappa
    for lam in (0.2, 0.5, 0.8):
        assert abs(gamma_bound(2, lam) - kappa(2, lam)) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.floats(0.001, 0.999))
def test_kappa_and_bound_stay_in_unit_interval(d, lam):
    k = kappa(d, lam)
    b = gamma_bound(d, lam)
    assert 0.0 < k <= 1.0 + 1e-12
    assert 0.0 < b <= 1.0 + 1e-12
    assert VisibilityPair(lam, min(b * 0.999, 0.999)).gamma <= b


def test_symmetric_critical_visibility_closed_form_d2():
    assert abs(symmetric_critical_visibility(2) - 1.0 / np.sqrt(2.0)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10])
def test_symmetric_critical_is_fixed_point(d):
    lam = symmetric_critical_visibility(d)
    assert abs(gamma_bound(d, lam) - lam) < 1e-9


def test_symmetric_below_opt_above_two():
    assert abs(symmetric_critical_visibility(2) - lambda_opt(2)) < 1e-9
    for d in range(3, 11):
        assert symmetric_critical_visibility(d) < lambda_opt(d)


def test_lambda_opt_closed_form():
    for d in (2, 3, 4, 9):
        want = (d - 2.0 + np.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * (d - 1.0))
        assert abs(lambda_opt(d) - want) < 1e-15
    assert abs(lambda_opt(3) - 0.6403882032022076) < 1e-15


def test_lambda_mub_variants():
    assert abs(lambda_mub(3) - 0.6830127018922193) < 1e-15
    assert abs(lambda_mub(3, printed=True) - 0.1830127018922193) < 1e-15
    for d in (2, 3, 4):
        assert abs(lambda_mub(d) - lambda_mub(d, printed=True) - 0.5) < 1e-15


def test_visibility_pair_validation():
    with pytest.raises(ValueError):
        VisibilityPair(0.0, 0.5)
    with pytest.raises(ValueError):
        VisibilityPair(0.5, 1.0)
    assert VisibilityPair(0.5, 0.5).gamma <= gamma_bound(3, 0.5)
    assert VisibilityPair(0.9, 0.9).gamma > gamma_bound(2, 0.9)


def test_choi_matrix_shape_and_hermiticity():
    pair = VisibilityPair(0.5, 0.5)
    dm = choi_matrix(3, pair)
    assert dm.shape == (9, 9)
    assert np.allclose(dm, dm.conj().T, atol=1e-14)
    # each of the d diagonal blocks is d * (unit-trace operator)
    assert abs(np.trace(dm).real - 9.0) < 1e-12


def test_product_minimum_closed_form_anchor():
    pair = VisibilityPair(0.5, 0.5)
    got = product_state_minimum(choi_matrix(2, pair), 2)
    assert abs(got - 0.42264973081037416) < 1e-10


def _sequential_product_minimum(dm, d, restarts=8, seed=0):
    # reference: the same starts and stop test, one start after another
    t = dm.reshape(d, d, d, d)

    def expectation(a, b):
        return np.einsum("i,k,ikjl,j,l->", a.conj(), b.conj(), t, a, b).real

    rng = np.random.default_rng(seed)
    a0 = np.zeros(d, dtype=np.complex128)
    b0 = np.zeros(d, dtype=np.complex128)
    a0[0] = a0[1] = 1.0 / np.sqrt(2.0)
    b0[0] = 1.0 / np.sqrt(2.0)
    b0[1] = -1.0 / np.sqrt(2.0)
    starts = [(a0, b0)]
    for _ in range(restarts):
        ra = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rb = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append((ra / np.linalg.norm(ra), rb / np.linalg.norm(rb)))
    best = np.inf
    for a, b in starts:
        val = expectation(a, b)
        for _ in range(500):
            ma = np.einsum("k,ikjl,l->ij", b.conj(), t, b)
            a = np.linalg.eigh(0.5 * (ma + ma.conj().T))[1][:, 0]
            mb = np.einsum("i,ikjl,j->kl", a.conj(), t, a)
            b = np.linalg.eigh(0.5 * (mb + mb.conj().T))[1][:, 0]
            new = expectation(a, b)
            if abs(val - new) <= 1e-14:
                val = new
                break
            val = new
        best = min(best, val)
    return float(best)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lockstep_minimum_matches_sequential_on_choi_grid(d):
    for lam in np.linspace(0.1, 0.9, 5):
        for gam in np.linspace(0.1, 0.9, 5):
            dm = choi_matrix(d, VisibilityPair(lam, gam))
            assert abs(product_state_minimum(dm, d) - _sequential_product_minimum(dm, d)) < 1e-12


def _traceless_hermitian(d, rng):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = x + x.conj().T
    return h - np.trace(h).real / d * np.eye(d)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lockstep_minimum_matches_sequential_on_product_operators(d, rng):
    # <a x b| A x B |a x b> = <a|A|a><b|B|b>: with A and B indefinite the
    # search has one basin per sign of <b|B|b>, and the minimum is the
    # smallest product of extreme eigenvalues
    for seed in range(4):
        a_op, b_op = _traceless_hermitian(d, rng), _traceless_hermitian(d, rng)
        ea, eb = np.linalg.eigvalsh(a_op), np.linalg.eigvalsh(b_op)
        want = min(x * y for x in ea[[0, -1]] for y in eb[[0, -1]])
        dm = np.kron(a_op, b_op)
        got = product_state_minimum(dm, d, seed=seed)
        assert abs(got - _sequential_product_minimum(dm, d, seed=seed)) < 1e-12
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_product_minimum_restart_count_and_seed():
    dm = choi_matrix(3, VisibilityPair(0.3, 0.7))
    for restarts, seed in [(0, 0), (1, 5), (20, 7)]:
        got = product_state_minimum(dm, 3, restarts=restarts, seed=seed)
        assert abs(got - _sequential_product_minimum(dm, 3, restarts, seed)) < 1e-12


def test_product_minimum_rejects_bad_input():
    dm = choi_matrix(2, VisibilityPair(0.5, 0.5))
    with pytest.raises(ValueError):
        product_state_minimum(np.full((4, 4), np.nan), 2)
    with pytest.raises(ValueError):
        product_state_minimum(np.where(np.eye(4) > 0, np.inf, dm), 2)
    with pytest.raises(ValueError):
        product_state_minimum(np.ones((1, 1)), 1)
    with pytest.raises(ValueError):
        product_state_minimum(dm.ravel(), 2)
    with pytest.raises(ValueError):
        product_state_minimum(dm.reshape(2, 8), 2)
    with pytest.raises(ValueError):
        product_state_minimum(dm, 3)
    with pytest.raises(ValueError):
        product_state_minimum(dm, 2, restarts=-1)
    skew = dm.copy()
    skew[0, 1] += 1e-3
    with pytest.raises(NotHermitianError):
        product_state_minimum(skew, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_margin_sign_tracks_the_bound(d):
    lam = 0.6
    b = gamma_bound(d, lam)
    inside = choi_positivity_margin(d, VisibilityPair(lam, b - 1e-3))
    outside_pair = VisibilityPair(lam, min(b + 1e-3, 0.999))
    k = kappa(d, lam)
    gam = outside_pair.gamma
    outside = 1.0 - gam + d * gam / 2.0 - d * gam / (2.0 * k)
    assert inside > 0.0
    assert outside < 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_margin_zero_on_the_boundary(d):
    lam = 0.55
    pair = VisibilityPair(lam, gamma_bound(d, lam))
    assert abs(choi_positivity_margin(d, pair)) < 1e-9
