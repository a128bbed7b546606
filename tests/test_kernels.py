import numpy as np
import pytest

from jointwork import _kernels
from jointwork.feasibility import STALL_SCALE, STALL_WINDOW, joint_feasibility_problem
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies

HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _reference_dykstra(a_eff, b_eff, diag_target, x0, tol, max_iter, stall_window,
                       stall_scale):
    # the loop as the plain formula, with fresh arrays at every step
    m, n, d = x0.shape[0], x0.shape[1], x0.shape[2]
    x = x0.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    didx = np.arange(d)
    best = np.inf
    since = 0
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
        if gap < best * (1.0 - 1e-3):
            best = gap
            since = 0
        else:
            since += 1
            if since >= stall_window and best > stall_scale * tol:
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
    diag = np.ascontiguousarray(np.diagonal(t, axis1=2, axis2=3).real)
    # x0 in the targets' memory order, as the solver passes them
    return a, b, diag, t.copy(order="K")


# a real orthogonal unitary keeps every array of the problem real
ORTH3 = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]

CASES = [
    # (d, lam, unitary, real, max_iter, expected code)
    (2, 0.6, haar_random_unitary(2, 3), False, 1500, 0),
    (3, 0.63, haar_random_unitary(3, 1), False, 1500, 0),
    (4, 0.59, haar_random_unitary(4, 2), False, 1500, 0),
    (2, 1.0, HAD.astype(complex), False, 20000, 1),  # criterion 11's sharp pair
    (3, 0.7, haar_random_unitary(3, 1), False, 1, 2),
    (4, 0.7, haar_random_unitary(4, 2), False, 7, 2),
    (2, 1.0, HAD, True, 20000, 1),
    (3, 0.7, ORTH3, True, 1500, 0),
]


def test_active_backend_value():
    assert _kernels.ACTIVE_BACKEND == "numpy"
    assert _kernels.HAVE_NUMBA is False


@pytest.mark.parametrize("d, lam, u, real, max_iter, code", CASES)
def test_dykstra_is_bitwise_the_plain_formula(d, lam, u, real, max_iter, code):
    a, b, diag, x0 = _kernel_inputs(d, lam, u, real)
    before = x0.copy()
    args = (a, b, diag, x0, 1e-7, max_iter, STALL_WINDOW, STALL_SCALE)
    grid, gap, iters, got_code = _kernels.dykstra(*args)
    ref_grid, ref_gap, ref_iters, ref_code = _reference_dykstra(*args)
    assert got_code == ref_code == code
    assert (gap, iters) == (ref_gap, ref_iters)
    assert type(gap) is float
    assert grid.dtype == ref_grid.dtype == (np.float64 if real else np.complex128)
    assert grid.shape == ref_grid.shape
    assert grid.tobytes() == ref_grid.tobytes()
    assert np.array_equal(x0, before)
