import numpy as np
import pytest

from jointwork import _kernels
from jointwork.feasibility import joint_feasibility_problem
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _reference_dykstra(a_eff, b_eff, targets, tol, max_iter, certificates=None):
    # the loop as the plain formula, with fresh arrays at every step, from
    # the targets and with their diagonals pinned; a certificate that stops
    # it is appended to `certificates` when given
    m, n, d = targets.shape[0], targets.shape[1], targets.shape[2]
    diag_target = np.diagonal(targets, axis1=2, axis2=3).real
    x = targets.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    didx = np.arange(d)
    best = np.inf
    since = 0
    tried = np.inf
    code = 2
    for it in range(max_iter):
        g = x + p
        h = 0.5 * (g + g.conj().swapaxes(-1, -2))
        w, v = np.linalg.eigh(h.reshape(m * n, d, d))
        w = np.clip(w, 0.0, None)
        y = ((v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)).reshape(m, n, d, d)
        p = g - y
        g2 = y + q
        row = g2.sum(axis=1) - a_eff
        col = g2.sum(axis=0) - b_eff
        tot = row.sum(axis=0)
        z = g2 - row[:, None] / n - col[None, :] / m + tot / (m * n)
        z[:, :, didx, didx] = diag_target
        q = g2 - z
        gap = float(np.linalg.norm(y - z))
        if gap <= tol:
            code = 0
            break
        if (it + 1) % _kernels.CERT_EVERY == 0:
            cert = None
            if gap > 0.5 * tried:
                cert = _kernels.farkas_certificate(y - z, a_eff, b_eff, diag_target)
            if cert is not None:
                if certificates is not None:
                    certificates.append(cert)
                code = 3
                break
            tried = gap
        if gap < best * (1.0 - 1e-3):
            best = gap
            since = 0
        else:
            since += 1
            if since >= _kernels.STALL_WINDOW and best > _kernels.STALL_SCALE * tol:
                code = 1
                break
        x = z
    return z, gap, it + 1, code


def _kernel_inputs(d, lam, u, real=False):
    # the problem's arrays, which the solver hands to the kernel as they are
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    prob = joint_feasibility_problem(h, h, u, lam, lam)
    a, b, t = prob.a.effects, prob.b.effects, prob.targets
    if real:
        assert not np.any(t.imag) and not np.any(b.imag)
        a, b, t = a.real, b.real, t.real
    # in the targets' memory order, as the solver passes them
    return a, b, t.copy(order="K")


# a real orthogonal unitary keeps every array of the problem real
ORTH3 = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]

CASES = [
    # (d, lam, unitary, real, max_iter, expected code)
    (2, 0.6, haar_random_unitary(2, 3), False, 1500, 0),
    (3, 0.63, haar_random_unitary(3, 1), False, 1500, 0),
    (4, 0.59, haar_random_unitary(4, 2), False, 1500, 0),
    (2, 1.0, HAD.astype(complex), False, 20000, 3),  # criterion 11's sharp pair
    (3, 0.7, haar_random_unitary(3, 1), False, 1, 2),
    (4, 0.7, haar_random_unitary(4, 2), False, 7, 2),
    (2, 1.0, HAD, True, 20000, 3),
    (3, 0.7, ORTH3, True, 1500, 0),
    (3, 0.75, haar_random_unitary(3, 2), False, 1500, 3),
    (4, 0.7, haar_random_unitary(4, 2), False, 1500, 3),
    # near the boundary: a stall that no certificate try ended first
    (3, 0.6425, haar_random_unitary(3, 2876137494685333844), False, 1500, 1),
]


def test_active_backend_value():
    assert _kernels.ACTIVE_BACKEND == "numpy"
    assert _kernels.HAVE_NUMBA is False


@pytest.mark.parametrize("d, lam, u, real, max_iter, code", CASES)
def test_dykstra_is_bitwise_the_plain_formula(d, lam, u, real, max_iter, code):
    a, b, t = _kernel_inputs(d, lam, u, real)
    before = t.copy()
    args = (a, b, t, 1e-7, max_iter)
    grid, gap, iters, got_code = _kernels.dykstra(*args)
    ref_grid, ref_gap, ref_iters, ref_code = _reference_dykstra(*args)
    assert got_code == ref_code == code
    assert (gap, iters) == (ref_gap, ref_iters)
    assert type(gap) is float
    assert grid.dtype == ref_grid.dtype == (np.float64 if real else np.complex128)
    assert grid.shape == ref_grid.shape
    assert grid.tobytes() == ref_grid.tobytes()
    assert np.array_equal(t, before)


@pytest.mark.parametrize("d, lam, u, real, max_iter, code",
                         [c for c in CASES if c[-1] == 3])
def test_certificate_is_a_farkas_proof(d, lam, u, real, max_iter, code):
    a, b, t = _kernel_inputs(d, lam, u, real)
    diag = np.diagonal(t, axis1=2, axis2=3).real
    certificates = []
    grid, *_ = _reference_dykstra(a, b, t, 1e-7, max_iter, certificates)
    (y, z, dd, value), = certificates
    m, n = a.shape[0], b.shape[0]
    for mult in (y, z):
        assert np.array_equal(mult, mult.conj().swapaxes(-1, -2))
        assert not np.any(np.diagonal(mult, axis1=1, axis2=2))
    blocks = np.array([[y[i] + z[j] + np.diag(dd[i, j]) for j in range(n)]
                       for i in range(m)])
    # every multiplier block is PSD ...
    assert np.linalg.eigvalsh(blocks).min() >= 0.0
    # ... and its pairing with any grid of the affine set is the value, so
    # a grid of PSD blocks there would make a negative number nonnegative
    recomputed = (np.einsum("aij,aji->", y, a).real + np.einsum("bij,bji->", z, b).real
                  + np.sum(dd * diag))
    assert value < -1e-6
    assert abs(recomputed - value) <= 1e-12
    assert abs(np.einsum("abij,abji->", grid, blocks).real - value) <= 1e-9


def test_no_certificate_for_a_feasible_problem():
    # a certificate here would contradict the grid the solver converges to,
    # whatever displacement it is read from
    a, b, t = _kernel_inputs(3, 0.6, haar_random_unitary(3, 1))
    diag = np.ascontiguousarray(np.diagonal(t, axis1=2, axis2=3).real)
    *_, code = _kernels.dykstra(a, b, t, 1e-7, 1500)
    assert code == 0
    assert _kernels.farkas_certificate(np.zeros_like(t), a, b, diag) is None
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        r = r + r.conj().swapaxes(-1, -2)
        assert _kernels.farkas_certificate(r, a, b, diag) is None
        assert _kernels.farkas_certificate(r @ r, a, b, diag) is None
