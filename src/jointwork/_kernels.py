"""Hot numeric kernel: the Dykstra projection loop, in batched numpy.

The loop alternates between the product of PSD cones (eigenvalue clipping
per block) and the affine set of grids with the given row sums, column sums
and per-block diagonals. Status codes: 0 converged (gap <= tol), 1 stalled
(no relative improvement over `stall_window` iterations with gap >
stall_scale*tol), 2 iteration budget exhausted.
"""

from __future__ import annotations

import numpy as np

# read by the benchmark's provenance record; there is no other backend
ACTIVE_BACKEND = "numpy"
HAVE_NUMBA = False


def dykstra(a_eff, b_eff, diag_target, x0, tol, max_iter, stall_window,
            stall_scale):
    """Alternating projections with Dykstra corrections, batched numpy.

    a_eff (m,d,d) and b_eff (n,d,d) are the required row/column sums of the
    grid; diag_target (m,n,d) pins the per-block diagonals, so the returned
    grid's diagonals equal it exactly. Needs max_iter >= 1. Returns (grid,
    gap, iterations, code), with gap the distance between the last PSD
    iterate and the last affine one.
    """
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
