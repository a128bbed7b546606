"""Hot numeric kernel: the Dykstra projection loop, in batched numpy.

The loop alternates between the product of PSD cones (eigenvalue clipping
per block) and the affine set of grids with the given row sums, column sums
and per-block diagonals. Status codes: 0 converged (gap <= tol), 1 stalled
(no relative improvement over `stall_window` iterations with gap >
stall_scale*tol), 2 iteration budget exhausted.

Each call allocates one set of work buffers in `x0`'s dtype and runs every
step in place, so an iteration allocates only what `np.linalg.eigh`
returns. The steps are the plain formula's numpy operations on the same
operands in the same order:

    g = x + p;  h = (g + g^H) / 2;  y = V max(w, 0) V^H  with  h = V w V^H
    p = g - y;  g2 = y + q
    z = g2 - row/n - col/m + tot/(m n),  then  diag(z) = diag_target
    q = g2 - z;  gap = ||y - z||;  x = z

so every iterate, and the returned (grid, gap, iterations, code), is
bitwise equal to evaluating that formula with fresh arrays.
"""

from __future__ import annotations

import math

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
    iterate and the last affine one. `x0` is not modified.
    """
    m, n, d = x0.shape[0], x0.shape[1], x0.shape[2]
    x = np.array(x0, order="C")
    g, h, y, g2, z, r = (np.empty_like(x) for _ in range(6))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    vw, vc = (np.empty((m * n, d, d), dtype=x.dtype) for _ in range(2))
    row = np.empty((m, d, d), dtype=x.dtype)
    col = np.empty((n, d, d), dtype=x.dtype)
    tot = np.empty((d, d), dtype=x.dtype)
    # the scalars in x's dtype, as numpy would convert them on every call
    half, n_s, m_s, mn_s = (x.dtype.type(c) for c in (0.5, n, m, m * n))
    blocks = h.reshape(m * n, d, d)
    y_blocks = y.reshape(m * n, d, d)
    # np.linalg.norm's own formula for the Frobenius norm of r; for a real
    # r the imaginary part is a zero array, whose +0.0 leaves the sum exact
    r_re, r_im = r.reshape(-1).real, r.reshape(-1).imag
    best = np.inf
    since = 0
    code = 2
    for it in range(max_iter):
        np.add(x, p, out=g)
        np.conjugate(g.swapaxes(-1, -2), out=h)
        np.add(g, h, out=h)
        np.multiply(half, h, out=h)
        w, v = np.linalg.eigh(blocks)
        np.maximum(w, 0.0, out=w)
        np.multiply(v, w[:, None, :], out=vw)
        np.conjugate(v, out=vc)
        np.matmul(vw, vc.swapaxes(-1, -2), out=y_blocks)
        np.subtract(g, y, out=p)
        np.add(y, q, out=g2)
        np.add.reduce(g2, axis=1, out=row)
        np.subtract(row, a_eff, out=row)
        np.add.reduce(g2, axis=0, out=col)
        np.subtract(col, b_eff, out=col)
        np.add.reduce(row, axis=0, out=tot)
        np.divide(row, n_s, out=row)
        np.subtract(g2, row[:, None], out=z)
        np.divide(col, m_s, out=col)
        np.subtract(z, col[None, :], out=z)
        np.divide(tot, mn_s, out=tot)
        np.add(z, tot, out=z)
        z.reshape(m, n, d * d)[:, :, ::d + 1] = diag_target
        np.subtract(g2, z, out=q)
        np.subtract(y, z, out=r)
        gap = math.sqrt(r_re.dot(r_re) + r_im.dot(r_im))
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
        x, z = z, x
    else:
        z = x
    return z, gap, it + 1, code
