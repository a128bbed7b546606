"""POVMs, noisy energy measurements, and the square-root (Lueders) instrument.

The workhorse fact used throughout: in the eigenbasis of the measured
Hamiltonian the instrument channel X -> sum_a A_a^(1/2) X A_a^(1/2) leaves
diagonal entries alone and multiplies off-diagonal entries by kappa(d, lam).
That makes the channel inversion exact (divide by kappa) instead of a
numerical superoperator inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bloch import INVERTIBILITY_CUTOFF, kappa
from .errors import NonInvertibleInstrumentError, NotPsdError
from .operators import (
    SpectralHamiltonian,
    as_square_array,
    matrix_sqrt_psd,
    require_unitary,
)

EFFECT_PSD_FLOOR = -1e-10
COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class Povm:
    """Finite-outcome POVM: effects[a] PSD, summing to the identity."""

    effects: np.ndarray  # (m, d, d) complex

    def __post_init__(self):
        eff = self.effects
        if eff.ndim != 3 or eff.shape[1] != eff.shape[2]:
            raise ValueError(f"effects must be (m, d, d), got {eff.shape}")
        worst = np.min(np.linalg.eigvalsh(0.5 * (eff + eff.conj().transpose(0, 2, 1))))
        if worst < EFFECT_PSD_FLOOR:
            raise NotPsdError(f"effect eigenvalue {worst:.3e} below {EFFECT_PSD_FLOOR:.1e}")
        dev = np.max(np.abs(eff.sum(axis=0) - np.eye(eff.shape[1])))
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"effects sum to identity only within {dev:.3e}")
        eff.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]


def povm_from_effects(effects) -> Povm:
    return Povm(effects=np.asarray(effects, dtype=np.complex128))


@dataclass(frozen=True)
class NoisyEnergyPovm:
    """Unsharp energy measurement: effect_a = lam*P_a + (1-lam)/d * 1."""

    hamiltonian: SpectralHamiltonian
    visibility: float
    povm: Povm

    @property
    def effects(self) -> np.ndarray:
        return self.povm.effects

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def outcomes(self) -> int:
        return self.hamiltonian.dim


def noisy_effects(h: SpectralHamiltonian, visibility: float) -> NoisyEnergyPovm:
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0,1], got {visibility}")
    d = h.dim
    eye = np.eye(d, dtype=np.complex128)
    eff = visibility * h.projectors + (1.0 - visibility) / d * eye
    return NoisyEnergyPovm(hamiltonian=h, visibility=visibility, povm=Povm(effects=eff))


@dataclass(frozen=True)
class LuedersInstrument:
    """Square-root state-update maps rho -> A_a^(1/2) rho A_a^(1/2).

    For noisy energy POVMs the Hamiltonian and visibility are kept so the
    channel can be inverted exactly in the eigenbasis.
    """

    povm: Povm
    sqrt_effects: np.ndarray  # (m, d, d)
    hamiltonian: Optional[SpectralHamiltonian] = None
    visibility: Optional[float] = None

    def __post_init__(self):
        self.sqrt_effects.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.povm.outcomes

    @property
    def dim(self) -> int:
        return self.povm.dim


def luders_instrument(p) -> LuedersInstrument:
    """Build the Lueders instrument of a Povm or NoisyEnergyPovm."""
    if isinstance(p, NoisyEnergyPovm):
        # closed-form square roots: same projector structure, rooted weights
        d = p.dim
        lam = p.visibility
        c1 = np.sqrt(lam + (1.0 - lam) / d)
        c0 = np.sqrt((1.0 - lam) / d)
        eye = np.eye(d, dtype=np.complex128)
        roots = (c1 - c0) * p.hamiltonian.projectors + c0 * eye
        return LuedersInstrument(
            povm=p.povm, sqrt_effects=roots, hamiltonian=p.hamiltonian, visibility=lam
        )
    roots = np.stack([matrix_sqrt_psd(e) for e in p.effects])
    return LuedersInstrument(povm=p, sqrt_effects=roots)


def luders_apply(inst: LuedersInstrument, a: int, rho) -> np.ndarray:
    """Subnormalized post-measurement state for outcome a; its trace is the
    outcome probability."""
    if not 0 <= a < inst.outcomes:
        raise IndexError(f"outcome {a} outside range 0..{inst.outcomes - 1}")
    r = as_square_array(rho)
    s = inst.sqrt_effects[a]
    return s @ r @ s


def instrument_channel(inst: LuedersInstrument, x) -> np.ndarray:
    """Unselected measurement channel sum_a A_a^(1/2) X A_a^(1/2)."""
    a = as_square_array(x)
    if a.shape[0] != inst.dim:
        raise ValueError(f"operator dim {a.shape[0]} != instrument dim {inst.dim}")
    return np.einsum("aij,jk,akl->il", inst.sqrt_effects, a, inst.sqrt_effects)


def inverse_instrument_channel(inst: LuedersInstrument, x) -> np.ndarray:
    """Exact inverse of the measurement channel of a noisy energy POVM.

    In the measured eigenbasis the channel is diagonal: entries on the
    diagonal survive untouched, off-diagonal entries pick up kappa. The
    inverse divides them back out.
    """
    if inst.hamiltonian is None or inst.visibility is None:
        raise ValueError("inversion needs a noisy-energy instrument with its Hamiltonian")
    if inst.visibility >= INVERTIBILITY_CUTOFF:
        raise NonInvertibleInstrumentError(
            f"visibility {inst.visibility} makes the measurement channel singular"
        )
    a = as_square_array(x)
    d = inst.dim
    if a.shape[0] != d:
        raise ValueError(f"operator dim {a.shape[0]} != instrument dim {d}")
    k = kappa(d, inst.visibility)
    v = inst.hamiltonian.basis
    y = v.conj().T @ a @ v
    diag = np.diagonal(y).copy()
    y = y / k
    np.fill_diagonal(y, diag)
    return v @ y @ v.conj().T


def depolarize(x, gamma: float) -> np.ndarray:
    """Depolarizing map gamma*X + (1-gamma)*Tr[X]/d * 1.

    Linear in X; on unit-trace inputs this is the usual white-noise mix.
    """
    a = as_square_array(x)
    d = a.shape[0]
    return gamma * a + (1.0 - gamma) * np.trace(a) / d * np.eye(d)


def heisenberg_povm(b: Povm, u) -> Povm:
    """Conjugated POVM with effects U^dag B_b U."""
    uu = require_unitary(u, name="process unitary")
    if uu.shape[0] != b.dim:
        raise ValueError(f"unitary dim {uu.shape[0]} != POVM dim {b.dim}")
    eff = np.einsum("ji,ajk,kl->ail", uu.conj(), b.effects, uu)
    return Povm(effects=eff)


def check_marginals(w_grid, a: Povm, b: Povm) -> float:
    """Largest deviation of the grid's row/column sums from the two POVMs."""
    w = np.asarray(w_grid, dtype=np.complex128)
    if w.ndim != 4 or w.shape[0] != a.outcomes or w.shape[1] != b.outcomes:
        raise ValueError(
            f"grid shape {w.shape} incompatible with {a.outcomes}x{b.outcomes} outcomes"
        )
    if w.shape[2] != a.dim or w.shape[3] != a.dim or a.dim != b.dim:
        raise ValueError("operator dimensions disagree")
    dev_a = np.max(np.abs(w.sum(axis=1) - a.effects))
    dev_b = np.max(np.abs(w.sum(axis=0) - b.effects))
    return float(max(dev_a, dev_b))
