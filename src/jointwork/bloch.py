"""Closed-form visibility bounds and the Choi positivity certificate, both
resting on the measurement channel keeping populations in the measured
eigenbasis and scaling every coherence by kappa(d, lam).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleInstrumentError
from .operators import require_hermitian

# visibility this close to 1 makes the measurement channel numerically singular
INVERTIBILITY_CUTOFF = 1.0 - 1e-9


def kappa(d: int, lam: float) -> float:
    """Off-diagonal survival factor of the measurement channel."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0.0 <= lam <= 1.0:
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


def lambda_mub(d: int, printed: bool = False) -> float:
    """Critical visibility for mutually unbiased pairs.

    The corrected reading 0.5*(1 + 1/(sqrt(d)+1)) is the default; printed=True
    returns the variant 0.5/(sqrt(d)+1), kept for comparison (at d=2 it drops
    below every other reference value, which is why it is not the default).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    inner = 1.0 / (np.sqrt(d) + 1.0)
    if printed:
        return 0.5 * inner
    return 0.5 * (1.0 + inner)


@dataclass(frozen=True)
class VisibilityPair:
    """Visibilities of the first (lam) and second (gamma) noisy measurement."""

    lam: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0 and 0.0 < self.gamma < 1.0):
            raise ValueError(
                f"visibilities must lie strictly inside (0,1), got ({self.lam}, {self.gamma})"
            )


def choi_matrix(d: int, pair: VisibilityPair) -> np.ndarray:
    """Choi matrix (scaled by d^2 relative to the normalized maximally
    entangled state) of the composed map: depolarize, then undo the
    measurement channel.

    On basis units the composed map acts as |i><i| -> gamma|i><i| + (1-gamma)/d
    and |i><j| -> (gamma/kappa)|i><j| for i != j, which is what gets assembled
    block by block below.
    """
    if pair.lam >= INVERTIBILITY_CUTOFF:
        raise NonInvertibleInstrumentError(
            f"visibility {pair.lam} leaves no invertible measurement channel"
        )
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


def _outer(v: np.ndarray) -> np.ndarray:
    """Rows conj(v_k) v_l of a stack of vectors, flattened to (n, d*d)."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _lowest_eigenvectors(m: np.ndarray, d: int) -> np.ndarray:
    """Lowest eigenvector of the Hermitian part of each flattened d x d row."""
    m = m.reshape(-1, d, d)
    return np.linalg.eigh(0.5 * (m + m.conj().transpose(0, 2, 1)))[1][:, :, 0]


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
    bb = _outer(b)
    val = (bb * (_outer(a) @ p)).sum(axis=1).real
    best = np.inf
    for _ in range(500):
        a = _lowest_eigenvectors(bb @ p.T, d)
        mb = _outer(a) @ p
        bb = _outer(_lowest_eigenvectors(mb, d))
        new = (bb * mb).sum(axis=1).real
        done = np.abs(val - new) <= 1e-14
        val = new
        if done.any():
            best = min(best, val[done].min())
            bb, val = bb[~done], val[~done]
            if not len(val):
                break
    return float(min(best, val.min(initial=np.inf)))


def choi_positivity_margin(d: int, pair: VisibilityPair, restarts: int = 8, seed: int = 0) -> float:
    """Minimal product-state expectation of the Choi matrix.

    Computed in closed form, 1 - gamma + d*gamma/2 - d*gamma/(2*kappa), and
    cross-checked against direct numerical minimization over the constructed
    Choi matrix; disagreement beyond 1e-8 raises, since it would mean the
    two derivations of the visibility bound drifted apart. choi_matrix
    raises NonInvertibleInstrumentError when lam leaves no inverse channel.
    """
    numeric = product_state_minimum(choi_matrix(d, pair), d, restarts=restarts, seed=seed)
    k = kappa(d, pair.lam)
    g = pair.gamma
    closed = 1.0 - g + d * g / 2.0 - d * g / (2.0 * k)
    if abs(closed - numeric) > 1e-8:
        raise ArithmeticError(
            f"closed-form margin {closed:.12e} and numerical minimum {numeric:.12e} disagree"
        )
    return closed
