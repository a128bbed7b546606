"""Closed-form visibility bounds and the Choi positivity certificate, both
resting on the measurement channel keeping populations in the measured
eigenbasis and scaling every coherence by kappa(d, lam).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleInstrumentError
from .operators import every

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
    """Largest second visibility compatible with positivity at first visibility lam.

    The depolarizing map at gamma, then the inverse measurement channel,
    sends a pure state psi psi^dag to (1-gamma)/d + gamma N_psi with
    N_psi = -alpha diag(|psi|^2) + (1+alpha) psi psi^dag and
    alpha = 1/kappa - 1, and lambda_min(N_psi) >= -alpha/2, with equality at
    the two-level Hadamard psi = (1, 1, 0, ...)/sqrt(2) (the proof is in
    choi_positivity_margin). So the map stays positive on every product
    state of the Choi matrix iff (1-gamma)/d - gamma*alpha/2 >= 0, that is
    iff gamma <= 2*kappa/(d + 2*kappa - d*kappa).
    """
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


def _invertible_kappa(d: int, lam: float) -> float:
    """kappa(d, lam), refusing a visibility that leaves no inverse channel."""
    if lam >= INVERTIBILITY_CUTOFF:
        raise NonInvertibleInstrumentError(
            f"visibility {lam} leaves no invertible measurement channel"
        )
    return kappa(d, lam)


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
    k = _invertible_kappa(d, pair.lam)
    g = pair.gamma
    c = (1.0 - g) / d
    dm = np.diag(np.full(d * d, d * c, dtype=np.complex128))
    levels = np.full((d, d), d * (g / k))
    np.fill_diagonal(levels, d * (g + c))
    ii = np.arange(d) * (d + 1)
    dm[np.ix_(ii, ii)] = levels
    return dm


def choi_positivity_margin(d: int, pair: VisibilityPair) -> float:
    """Minimal product-state expectation of the Choi matrix,
    1 - gamma + d*gamma/2 - d*gamma/(2*kappa), in closed form.

    Write D = choi_matrix(d, pair), M for its composed map,
    alpha = 1/kappa - 1 >= 0 and psi = a*.
    Then <a x b| D |a x b> = d <b| M(psi psi^dag) |b>, and M(psi psi^dag)
    = (1-gamma)/d + gamma N_psi, since the inverse channel fixes the
    identity, keeps the populations p_i = |psi_i|^2 and divides each
    coherence by kappa: N_psi = -alpha diag(p) + (1+alpha) psi psi^dag. The
    minimum over b is therefore 1 - gamma + d*gamma*lambda_min(N_psi), and
    lambda_min(N_psi) >= -alpha/2 for every unit psi:

    - if every p_i <= 1/2, N_psi + alpha/2 = alpha diag(1/2 - p) +
      (1+alpha) psi psi^dag is a sum of PSD terms;
    - otherwise exactly one p_1 > 1/2, and that diagonal-plus-rank-one
      matrix is PSD iff sum_i p_i/(1/2 - p_i) <= -(1 - kappa). For a fixed
      p_1 the left side is largest with the rest of p on one level, where
      it equals -2.

    The two-level Hadamard, a = (1, 1, 0, ...)/sqrt(2) and
    b = (1, -1, 0, ...)/sqrt(2), has p = (1/2, 1/2, 0, ...) and attains
    -alpha/2, so the bound is the minimum. choi_matrix builds D
    independently, and the tests check this value against a search over it.

    Raises NonInvertibleInstrumentError when lam leaves no inverse channel,
    and ValueError unless d >= 2.
    """
    k = _invertible_kappa(d, pair.lam)
    g = pair.gamma
    return 1.0 - g + d * g / 2.0 - d * g / (2.0 * k)
