"""Hot numeric kernel: the Dykstra projection loop, in batched numpy.

`dykstra(a_eff, b_eff, targets, tol, max_iter)` takes only the inputs that
vary from solve to solve. It starts at the targets and alternates between
the product of PSD cones (eigenvalue clipping per block) and the affine set
of grids with the given row sums, column sums and the targets' per-block
diagonals. Status codes:

    0  converged: gap <= tol
    1  stalled: no relative improvement over STALL_WINDOW iterations
       with gap > STALL_SCALE*tol
    2  iteration budget exhausted
    3  infeasible, with Farkas multipliers that passed the checks of
       `farkas_certificate`

Code 3 rests on a certificate; code 1 is a heuristic. The certificate is
tried every CERT_EVERY iterations while the gap is on a plateau, that is
when it did not halve since the previous try, so a solve whose gap keeps
halving skips it. By Bauschke & Borwein (J. Approx. Theory 79, 1994) the displacement
y - z of the two projections converges to the minimal displacement
between the two sets, which is nonzero exactly when they do not meet; the
multipliers are read off it as in Banjac et al., "Infeasibility detection
in the alternating direction method of multipliers for convex
optimization", JOTA 183 (2019).

Each call allocates one set of work buffers in the targets' dtype and runs
every step in place, so an iteration allocates only what `np.linalg.eigh`
returns. The steps are the plain formula's numpy operations on the same
operands in the same order:

    g = x + p;  h = (g + g^H) / 2;  y = V max(w, 0) V^H  with  h = V w V^H
    p = g - y;  g2 = y + q
    z = g2 - row/n - col/m + tot/(m n),  then  diag(z) = diag(targets)
    q = g2 - z;  r = y - z;  gap = ||r||;  x = z

so every iterate, and the returned (grid, gap, iterations, code), is
bitwise equal to evaluating that formula with fresh arrays and calling
`farkas_certificate(r, ...)` on the same iterations. The certificate
reads `r` and writes nothing the loop reads.
"""

from __future__ import annotations

import math

import numpy as np

# read by the benchmark's provenance record; there is no other backend
ACTIVE_BACKEND = "numpy"
HAVE_NUMBA = False

# iterations between certificate tries while the gap is on a plateau
CERT_EVERY = 10
# LAPACK's eigenvalue error bound is p(d)*eps*||M||_2 for a modest p; this
# takes p(d) = 64*d, which also covers the rounding in forming M
EIG_ERROR_PER_DIM = 64.0
# the stall of status code 1; the solver's marginal check reads STALL_SCALE too
STALL_WINDOW = 500
STALL_SCALE = 10.0


def farkas_certificate(r, a_eff, b_eff, diag_target):
    """Farkas multipliers read off a displacement r (m,n,d,d), or None.

    The multipliers are Y_a, the off-diagonal part of the mean of r_ab over
    b; Z_b, the off-diagonal part of the mean over a minus the grand mean;
    and the real diagonals D_ab of r_ab plus a per-block shift
    s_ab = max(0, 2*slack - lambda_min(M_ab)), M_ab = Y_a + Z_b + diag(D_ab),
    with Y and Z made exactly Hermitian. They certify that no grid of PSD
    blocks K_ab has row sums A_a, column sums B_b and diag(K_ab) = t_ab
    (A_a and B_b read as their Hermitian parts) when

        every shifted block has lambda_min >= slack by np.linalg.eigvalsh,
        where slack = EIG_ERROR_PER_DIM*d*eps*S and S, the sum of the
        absolute entries of Y, Z and D, bounds every ||M_ab||_2; and
        value = sum Re Tr[Y_a A_a] + sum Re Tr[Z_b B_b] + sum D_ab.t_ab
        < -margin, margin = 2*(N + 4)*eps*(the same sum of absolute
        products), which bounds the rounding of its N terms and their sum.

    For such a grid, sum_ab Tr[K_ab M_ab] equals value and is >= 0. Returns
    (Y, Z, D, value) when both checks pass; reads r and writes nothing the
    caller holds.
    """
    m, n, d = r.shape[0], r.shape[1], r.shape[2]
    eps = np.finfo(r.dtype).eps
    ya = np.add.reduce(r, axis=1) / n
    zb = np.add.reduce(r, axis=0) / m - np.add.reduce(ya, axis=0) / m
    ya = 0.5 * (ya + ya.conj().swapaxes(-1, -2))
    zb = 0.5 * (zb + zb.conj().swapaxes(-1, -2))
    ya.reshape(m, d * d)[:, ::d + 1] = 0.0
    zb.reshape(n, d * d)[:, ::d + 1] = 0.0
    dd = r.reshape(m, n, d * d)[:, :, ::d + 1].real.copy()
    # for a Hermitian Y, Tr[Y A] = sum_ij conj(Y_ij) A_ij, and its real
    # part is Tr[Y (A + A^H)/2]
    fixed = np.vdot(ya, a_eff).real + np.vdot(zb, b_eff).real
    # lambda_min(M_ab) <= min_k D_ab,k bounds the shift from below, and
    # t_ab >= 0, so most failures show before any eigenvalue is computed
    least = np.maximum(0.0, -dd.min(axis=2))
    if fixed + np.vdot(dd, diag_target) + np.vdot(least, diag_target.sum(axis=2)) >= 0.0:
        return None
    abs_y, abs_z = np.abs(ya), np.abs(zb)
    norms = abs_y.sum() + abs_z.sum()
    mm = ya[:, None] + zb[None, :]
    diag = mm.reshape(m, n, d * d)[:, :, ::d + 1]
    diag[...] = dd
    slack = EIG_ERROR_PER_DIM * d * eps * (norms + np.abs(dd).sum())
    dd += np.maximum(0.0, 2.0 * slack - np.linalg.eigvalsh(mm)[:, :, 0])[:, :, None]
    value = float(fixed + np.vdot(dd, diag_target))
    abs_d = np.abs(dd)
    absolute = (np.vdot(abs_y, np.abs(a_eff)) + np.vdot(abs_z, np.abs(b_eff))
                + np.vdot(abs_d, np.abs(diag_target)))
    n_terms = (m + n) * d * d + m * n * d
    if not value < -2.0 * (n_terms + 4) * eps * absolute:
        return None
    diag[...] = dd
    slack = EIG_ERROR_PER_DIM * d * eps * (norms + abs_d.sum())
    if not np.linalg.eigvalsh(mm)[:, :, 0].min() >= slack:
        return None
    return ya, zb, dd, value


def dykstra(a_eff, b_eff, targets, tol, max_iter):
    """Alternating projections with Dykstra corrections, batched numpy.

    a_eff (m,d,d) and b_eff (n,d,d) are the required row/column sums of the
    grid; the iteration starts at targets (m,n,d,d), whose real per-block
    diagonals it pins, so the returned grid's diagonals equal them exactly.
    Needs max_iter >= 1. Returns (grid, gap, iterations, code), with gap the
    distance between the last PSD iterate and the last affine one and code
    as in the module docstring. `targets` is not modified.
    """
    m, n, d = targets.shape[0], targets.shape[1], targets.shape[2]
    diag_target = np.ascontiguousarray(np.diagonal(targets, axis1=2, axis2=3).real)
    x = np.array(targets, order="C")
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
    tried = np.inf  # the gap at the last certificate check
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
        if (it + 1) % CERT_EVERY == 0:
            if gap > 0.5 * tried and farkas_certificate(r, a_eff, b_eff, diag_target):
                code = 3
                break
            tried = gap
        if gap < best * (1.0 - 1e-3):
            best = gap
            since = 0
        else:
            since += 1
            if since >= STALL_WINDOW and best > STALL_SCALE * tol:
                code = 1
                break
        x, z = z, x
    else:
        z = x
    return z, gap, it + 1, code
