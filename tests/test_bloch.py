import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sequential_product_minimum
from jointwork.bloch import (
    VisibilityPair,
    choi_matrix,
    choi_positivity_margin,
    gamma_bound,
    kappa,
    lambda_mub,
    lambda_opt,
    symmetric_critical_visibility,
)
from jointwork.errors import NonInvertibleInstrumentError


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


def test_qubit_gamma_bound_is_the_busch_closed_form():
    # unbiased qubit pair: jointly measurable iff lam^2 + gamma^2 <= 1
    for lam in np.linspace(0.0, 1.0, 201):
        assert abs(gamma_bound(2, lam) - np.sqrt(1.0 - lam * lam)) <= 1e-15


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
    # 1/sqrt(2) for the qubit pair, 2/3 at d = 4
    assert abs(lambda_mub(2) - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(lambda_mub(4) - 2.0 / 3.0) < 1e-15


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


def _block_loop_choi_matrix(d, pair):
    # reference: the Choi matrix assembled block by block
    k = kappa(d, pair.lam)
    g = pair.gamma
    dm = np.zeros((d * d, d * d), dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            if i == j:
                block = g * np.outer(eye[i], eye[i]) + (1.0 - g) / d * eye
            else:
                block = (g / k) * np.outer(eye[i], eye[j].conj())
            dm[i * d:(i + 1) * d, j * d:(j + 1) * d] = d * block
    return dm


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_choi_matrix_equals_block_loop(d):
    for lam in np.linspace(0.01, 0.99, 13):
        for gam in np.linspace(0.01, 0.99, 13):
            pair = VisibilityPair(lam, gam)
            assert np.array_equal(choi_matrix(d, pair), _block_loop_choi_matrix(d, pair))


def test_product_minimum_closed_form_anchor():
    pair = VisibilityPair(0.5, 0.5)
    got = sequential_product_minimum(choi_matrix(2, pair), 2)
    assert abs(got - 0.42264973081037416) < 1e-10


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
        got = sequential_product_minimum(np.kron(a_op, b_op), d, seed=seed)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def _unit(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _inverse_channel_image(psi, lam):
    # the inverse measurement channel keeps the populations of psi psi^dag
    # and divides its coherences by kappa: N = -alpha diag(p) + (1+alpha) psi psi^dag
    alpha = 1.0 / kappa(len(psi), lam) - 1.0
    n = -alpha * np.diag(np.abs(psi) ** 2) + (1.0 + alpha) * np.outer(psi, psi.conj())
    return n, alpha


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.integers(1, 8), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_inverse_channel_keeps_pure_states_above_half_alpha(d, support, lam, seed):
    # psi on its first `support` levels: two levels reach p_1 near 1/2,
    # the case split's boundary
    m = min(support, d)
    psi = np.zeros(d, dtype=np.complex128)
    psi[:m] = _unit(m, np.random.default_rng(seed))
    n, alpha = _inverse_channel_image(psi, lam)
    assert np.linalg.eigvalsh(n)[0] >= -alpha / 2.0 - 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_equal_two_level_populations_reach_half_alpha(d, rng):
    for lam in np.linspace(0.05, 0.95, 7):
        psi = np.zeros(d, dtype=np.complex128)
        psi[:2] = np.exp(2j * np.pi * rng.random(2)) / np.sqrt(2.0)
        n, alpha = _inverse_channel_image(psi, lam)
        assert abs(np.linalg.eigvalsh(n)[0] + alpha / 2.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8), st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1)
)
def test_no_product_state_falls_below_the_margin(d, lam, gam, seed):
    rng = np.random.default_rng(seed)
    pair = VisibilityPair(lam, gam)
    ab = np.kron(_unit(d, rng), _unit(d, rng))
    got = (ab.conj() @ choi_matrix(d, pair) @ ab).real
    assert got >= choi_positivity_margin(d, pair) - 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_two_level_hadamard_attains_the_margin(d):
    a = np.zeros(d)
    a[:2] = 1.0 / np.sqrt(2.0)
    b = a.copy()
    b[1] = -b[1]
    ab = np.kron(a, b)
    for lam in np.linspace(0.05, 0.95, 7):
        for gam in np.linspace(0.05, 0.95, 7):
            pair = VisibilityPair(lam, gam)
            got = (ab @ choi_matrix(d, pair) @ ab).real
            assert abs(got - choi_positivity_margin(d, pair)) < 1e-12


def test_margin_keeps_its_input_checks():
    with pytest.raises(NonInvertibleInstrumentError):
        choi_positivity_margin(3, VisibilityPair(1.0 - 1e-10, 0.5))
    with pytest.raises(ValueError, match="d must be >= 2"):
        choi_positivity_margin(1, VisibilityPair(0.5, 0.5))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_margin_sign_tracks_the_bound(d):
    lam = 0.6
    b = gamma_bound(d, lam)
    inside = choi_positivity_margin(d, VisibilityPair(lam, b - 1e-3))
    outside = choi_positivity_margin(d, VisibilityPair(lam, min(b + 1e-3, 0.999)))
    assert inside > 0.0
    assert outside < 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_margin_zero_on_the_boundary(d):
    lam = 0.55
    pair = VisibilityPair(lam, gamma_bound(d, lam))
    assert abs(choi_positivity_margin(d, pair)) < 1e-9
