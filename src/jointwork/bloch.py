"""Closed-form visibility bounds and the Choi positivity certificate, both
resting on the measurement channel keeping populations in the measured
eigenbasis and scaling every coherence by kappa(d, lam).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleInstrumentError
from .operators import every, require_hermitian

# visibility this close to 1 makes the measurement channel numerically singular
INVERTIBILITY_CUTOFF = 1.0 - 1e-9


def kappa(d: int, lam: float) -> float:
    """Off-diagonal survival factor of the measurement channel; elementwise
    for an array of visibilities."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not every((0.0 <= lam) & (lam <= 1.0)):
        raise ValueError(f"visibility must lie in [0,1], got {lam}")
    u = (1.0 - lam) / d
    return 2.0 * np.sqrt(lam + u) * np.sqrt(u) + (d - 2.0) * u


def gamma_bound(d: int, lam: float) -> float:
    """Largest second visibility compatible with positivity at first visibility lam."""
    k = kappa(d, lam)
    return 2.0 * k / (d + 2.0 * k - d * k)


def symmetric_critical_visibility(d: int) -> float:
    """Unique fixed point lam = gamma_bound(d, lam), by bisection to 1e-10.

    gamma_bound(d, .) decreases from 1 to 0 on [0,1] while the identity
    increases, so the bracket [0,1] is valid and the root unique.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gamma_bound(d, mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_opt(d: int) -> float:
    """Critical visibility of the best known general joint-measurability bound."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return (d - 2.0 + np.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * (d - 1.0))


def lambda_mub(d: int) -> float:
    """Critical visibility for mutually unbiased pairs, 0.5*(1 + 1/(sqrt(d)+1))."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return 0.5 * (1.0 + 1.0 / (np.sqrt(d) + 1.0))


@dataclass(frozen=True)
class VisibilityPair:
    """Visibilities of the first (lam) and second (gamma) noisy measurement;
    arrays (k,) for a stack of cases."""

    lam: float
    gamma: float

    def __post_init__(self):
        lam, gam = self.lam, self.gamma
        if not every((0.0 < lam) & (lam < 1.0) & (0.0 < gam) & (gam < 1.0)):
            raise ValueError(
                f"visibilities must lie strictly inside (0,1), got ({self.lam}, {self.gamma})"
            )


def choi_matrix(d: int, pair: VisibilityPair) -> np.ndarray:
    """Choi matrix (scaled by d^2 relative to the normalized maximally
    entangled state) of the composed map: the depolarizing map at gamma,
    then the inverse measurement channel.

    On basis units the composed map acts as |i><i| -> gamma|i><i| + (1-gamma)/d
    and |i><j| -> (gamma/kappa)|i><j| for i != j. So D has d * (1-gamma)/d
    on its diagonal, and its entries between the rows and columns (i,i)
    are d * (gamma + (1-gamma)/d) at (ii,ii) and d * (gamma/kappa) at
    (ii,jj) for i != j; every other entry is zero.
    """
    if pair.lam >= INVERTIBILITY_CUTOFF:
        raise NonInvertibleInstrumentError(
            f"visibility {pair.lam} leaves no invertible measurement channel"
        )
    k = kappa(d, pair.lam)
    g = pair.gamma
    c = (1.0 - g) / d
    dm = np.diag(np.full(d * d, d * c, dtype=np.complex128))
    levels = np.full((d, d), d * (g / k))
    np.fill_diagonal(levels, d * (g + c))
    ii = np.arange(d) * (d + 1)
    dm[np.ix_(ii, ii)] = levels
    return dm


def _outer(v: np.ndarray) -> np.ndarray:
    """Rows conj(v_k) v_l of a stack of vectors, flattened to (n, d*d)."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _lowest_eigenpair(m: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Least eigenvalue and its eigenvector of the Hermitian part of each
    flattened d x d row."""
    m = m.reshape(-1, d, d)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().transpose(0, 2, 1)))
    return w[:, 0], v[:, :, 0]


def product_state_minimum(dm: np.ndarray, d: int, restarts: int = 8, seed: int = 0) -> float:
    """Minimum of <a x b| D |a x b> over product states, by alternating
    eigenvector descent from restarts + 1 starts.

    The first start is the known analytic minimizer support pattern
    (equal weight on the first two levels, opposite relative sign), which
    makes the boundary case exact; the random restarts, drawn from
    default_rng(seed), guard against other basins. All starts advance in
    lockstep: with P[(i,j),(k,l)] = D[(i,k),(j,l)], one step sets a to the
    lowest eigenvector of P (b* x b), then b to that of P^T (a* x a), for
    every start at once. A start stops once one step moves its expectation
    by at most 1e-14, or after 500 steps; the result is the minimum over
    the starts' last expectations.

    The descent converges linearly, so every third step first tries an
    Aitken extrapolation of the start's last three b iterates b0, b1, b2:
    with their phases aligned, D1 = b1 - b0, D2 = b2 - b1 and
    r = Re<D1,D2>/|D1|^2 clipped to [0, 0.99], the a-step runs from
    normalize(b2 + r/(1-r) D2). A start keeps that point only where the
    a-step's least eigenvalue is strictly below its current expectation,
    and takes the plain a-step elsewhere, so every step still descends and
    the fixed points are those of the plain descent.

    Raises ValueError unless d >= 2, restarts >= 0 and D is a finite
    (d*d, d*d) matrix, and NotHermitianError if D is not Hermitian.
    """
    if d < 2:
        raise ValueError(f"product states need d >= 2, got {d}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    dm = require_hermitian(dm, name="Choi matrix")
    if dm.shape != (d * d, d * d):
        raise ValueError(f"Choi matrix for d={d} needs shape {(d * d, d * d)}, got {dm.shape}")
    p = dm.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    rng = np.random.default_rng(seed)
    a = np.zeros((restarts + 1, d), dtype=np.complex128)
    b = np.zeros((restarts + 1, d), dtype=np.complex128)
    a[0, :2] = 1.0 / np.sqrt(2.0)
    b[0, :2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    for s in range(1, restarts + 1):
        ra = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rb = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a[s], b[s] = ra / np.linalg.norm(ra), rb / np.linalg.norm(rb)
    val = (_outer(b) * (_outer(a) @ p)).sum(axis=1).real
    # the last three b iterates of each start, newest last
    bs = np.repeat(b[:, None], 3, axis=1)
    best = np.inf
    for step in range(1, 501):
        if step % 3:
            a = _lowest_eigenpair(_outer(bs[:, 2]) @ p.T, d)[1]
        else:
            # eigh fixes no phase: turn each older iterate so that <b_j+1|b_j> >= 0
            for j in (1, 0):
                turn = np.angle((bs[:, j + 1].conj() * bs[:, j]).sum(axis=1))
                bs[:, j] *= np.exp(-1j * turn)[:, None]
            d1, d2 = np.diff(bs, axis=1).transpose(1, 0, 2)
            # the floor keeps D1 = 0 from dividing by zero: Re<D1,D2> and r are 0 there
            den = np.maximum((d1.conj() * d1).sum(axis=1).real, np.finfo(float).tiny)
            r = np.clip((d1.conj() * d2).sum(axis=1).real / den, 0.0, 0.99)
            # |x| >= 1, as x = (1 + c) b2 - c b1 with c >= 0 and unit b1, b2: the
            # normalization below never divides by zero
            x = bs[:, 2] + (r / (1.0 - r))[:, None] * d2
            w, a = _lowest_eigenpair(_outer(x / np.linalg.norm(x, axis=1)[:, None]) @ p.T, d)
            plain = ~(w < val)
            if plain.any():
                a[plain] = _lowest_eigenpair(_outer(bs[plain, 2]) @ p.T, d)[1]
        mb = _outer(a) @ p
        b = _lowest_eigenpair(mb, d)[1]
        new = (_outer(b) * mb).sum(axis=1).real
        bs = np.concatenate([bs[:, 1:], b[:, None]], axis=1)
        done = np.abs(val - new) <= 1e-14
        val = new
        if done.any():
            best = min(best, val[done].min())
            bs, val = bs[~done], val[~done]
            if not len(val):
                break
    return float(min(best, val.min(initial=np.inf)))


def choi_positivity_margin(d: int, pair: VisibilityPair) -> float:
    """Minimal product-state expectation of the Choi matrix.

    Computed in closed form, 1 - gamma + d*gamma/2 - d*gamma/(2*kappa), and
    cross-checked against direct numerical minimization over the constructed
    Choi matrix; disagreement beyond 1e-8 raises, since it would mean the
    two derivations of the visibility bound drifted apart. choi_matrix
    raises NonInvertibleInstrumentError when lam leaves no inverse channel.
    """
    numeric = product_state_minimum(choi_matrix(d, pair), d)
    k = kappa(d, pair.lam)
    g = pair.gamma
    closed = 1.0 - g + d * g / 2.0 - d * g / (2.0 * k)
    if abs(closed - numeric) > 1e-8:
        raise ArithmeticError(
            f"closed-form margin {closed:.12e} and numerical minimum {numeric:.12e} disagree"
        )
    return closed
