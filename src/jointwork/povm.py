"""POVMs and the noisy energy measurement with its square-root (Lueders) update.

The workhorse fact used throughout: in the eigenbasis of the measured
Hamiltonian the instrument channel X -> sum_a A_a^(1/2) X A_a^(1/2) leaves
diagonal entries alone and multiplies entry (i, j) by kappa_ij. That makes
the channel inversion exact (`divide_coherences`) instead of a numerical
superoperator inversion, and the square-root grid a broadcast and a division.

Built from a stacked Hamiltonian (see `operators`), a measurement holds k
cases on a leading axis, with a visibility per case, and every map below
runs over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import INVERTIBILITY_CUTOFF
from .errors import NonInvertibleInstrumentError, NotPsdError
from .operators import (
    SpectralHamiltonian,
    _psd_floor_breach,
    _require_finite,
    as_square_array,
    case_axes,
    every,
    per_case,
    require_unitary,
)

EFFECT_PSD_FLOOR = -1e-10
COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class Povm:
    """Finite-outcome POVM: effects[a] PSD, summing to the identity; with
    effects (k, m, d, d) a stack of k POVMs."""

    effects: np.ndarray  # (m, d, d) complex

    def __post_init__(self):
        eff = self.effects
        if eff.ndim not in (3, 4) or eff.shape[-2] != eff.shape[-1]:
            raise ValueError(f"effects must be (m, d, d), got {eff.shape}")
        check_effects(eff)
        eff.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.effects.shape[-3]

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]


def check_effects(eff: np.ndarray) -> None:
    """Povm's checks on effects (..., m, d, d), over any leading axes: every
    entry is finite (else ValueError), every effect's Hermitian part has
    eigenvalues >= EFFECT_PSD_FLOOR, and each POVM's m effects sum to the
    identity within COMPLETENESS_TOL."""
    _require_finite(eff, "effects")
    worst = _psd_floor_breach(eff, EFFECT_PSD_FLOOR)
    if worst is not None:
        raise NotPsdError(f"effect eigenvalue {worst:.3e} below {EFFECT_PSD_FLOOR:.1e}")
    dev = np.max(np.abs(eff.sum(axis=-3) - np.eye(eff.shape[-1])))
    if dev > COMPLETENESS_TOL:
        raise ValueError(f"effects sum to identity only within {dev:.3e}")


@dataclass(frozen=True)
class NoisyEnergyPovm:
    """Unsharp energy measurement effect_a = lam*P_a + (1-lam)/d * 1 and its
    square-root instrument rho -> A_a^(1/2) rho A_a^(1/2).

    The Hamiltonian, the visibility and the eigenbasis diagonals are kept
    so the measurement channel can be inverted exactly in the eigenbasis.
    A stacked Hamiltonian carries a visibility (k,) and a leading case axis
    on every array.
    """

    hamiltonian: SpectralHamiltonian
    visibility: float
    povm: Povm
    sqrt_effects: np.ndarray  # (d, d, d), sqrt_effects[a] = effects[a]^(1/2)
    diagonal_effects: np.ndarray  # (d, d) real, row a: A_a's eigenbasis diagonal
    diagonal_roots: np.ndarray  # (d, d) real, row a: that of A_a^(1/2)

    def __post_init__(self):
        for arr in (self.sqrt_effects, self.diagonal_effects, self.diagonal_roots):
            arr.setflags(write=False)

    @property
    def effects(self) -> np.ndarray:
        return self.povm.effects

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def outcomes(self) -> int:
        return self.hamiltonian.dim

    @property
    def stacked(self) -> bool:
        return self.hamiltonian.stacked


def noisy_povm(h: SpectralHamiltonian, visibility: float) -> Povm:
    """The effects lam*P_a + (1-lam)/d * 1 of the noisy energy measurement
    of h at the given visibility in [0, 1], without its square roots; a
    stacked h takes a visibility per case."""
    if not every((0.0 <= visibility) & (visibility <= 1.0)):
        raise ValueError(f"visibility must lie in [0,1], got {visibility}")
    eye = np.eye(h.dim, dtype=np.complex128)
    vis = case_axes(visibility, 3)
    return Povm(effects=vis * h.projectors + (1.0 - vis) / h.dim * eye)


def noisy_effects(h: SpectralHamiltonian, visibility: float) -> NoisyEnergyPovm:
    """The noisy energy measurement of h at the given visibility in [0, 1].

    Each effect has eigenvalue lam + (1-lam)/d on its projector and
    (1-lam)/d elsewhere, so its square root is the same projector
    combination with rooted weights. The diagonals repeat the matrices'
    arithmetic: in the computational basis they match them bit for bit.
    """
    povm = noisy_povm(h, visibility)
    d, eye = h.dim, np.eye(h.dim)
    vis = case_axes(visibility, 2)
    c1 = np.sqrt(vis + (1.0 - vis) / d)
    c0 = np.sqrt((1.0 - vis) / d)
    return NoisyEnergyPovm(
        hamiltonian=h, visibility=visibility, povm=povm,
        sqrt_effects=case_axes(c1 - c0, 1) * h.projectors
        + case_axes(c0, 1) * np.eye(d, dtype=np.complex128),
        diagonal_effects=vis * eye + (1.0 - vis) / d,
        diagonal_roots=(c1 - c0) * eye + c0,
    )


def luders_apply(inst: NoisyEnergyPovm, a: int, rho) -> np.ndarray:
    """Subnormalized post-measurement state for outcome a; its trace is the
    outcome probability."""
    if not 0 <= a < inst.outcomes:
        raise IndexError(f"outcome {a} outside range 0..{inst.outcomes - 1}")
    r = as_square_array(rho, inst.stacked)
    s = inst.sqrt_effects[..., a, :, :]
    return s @ r @ s


def instrument_channel(inst: NoisyEnergyPovm, x) -> np.ndarray:
    """Unselected measurement channel sum_a A_a^(1/2) X A_a^(1/2)."""
    a = as_square_array(x, inst.stacked)
    if a.shape[-1] != inst.dim:
        raise ValueError(f"operator dim {a.shape[-1]} != instrument dim {inst.dim}")
    return np.einsum("...aij,...jk,...akl->...il", inst.sqrt_effects, a, inst.sqrt_effects)


def require_invertible(inst: NoisyEnergyPovm) -> None:
    """Raise NonInvertibleInstrumentError at visibility >= INVERTIBILITY_CUTOFF."""
    if not every(inst.visibility < INVERTIBILITY_CUTOFF):
        raise NonInvertibleInstrumentError(
            f"visibility {inst.visibility} makes the measurement channel singular"
        )


def divide_coherences(a_diag, x):
    """The inverse channel in the basis where every A_a is diagonal, with
    diagonals a_diag (m, d): x (..., d, d) with entry (i, j) divided by
    kappa_ij = sum_a sqrt(A_a,ii A_a,jj), and its diagonal by exactly 1.0.
    A stack of diagonals (k, m, d) divides x (k, ..., d, d) case by case.
    None when some kappa_ij <= 0 (the sharp limit), which has no inverse."""
    kap = np.sqrt(a_diag[..., :, None] * a_diag[..., None, :]).sum(axis=-3)
    kap[..., np.eye(kap.shape[-1], dtype=bool)] = 1.0
    kap = kap.reshape(kap.shape[:-2] + (1,) * (x.ndim - kap.ndim) + kap.shape[-2:])
    return x / kap if np.all(kap > 0.0) else None


def square_root_targets(inst: NoisyEnergyPovm, b):
    """In inst's measured eigenbasis, for effects b (..., n, d, d) written in
    it: the targets A_a^(1/2) B_b A_a^(1/2) (..., m, n, d, d), broadcast from
    the diagonal roots; `divide_coherences` of them is the square-root grid
    A_a^(1/2) Lambda^-1(B_b) A_a^(1/2). A stacked inst takes b (k, n, d, d)."""
    r = inst.diagonal_roots
    return r[..., :, None, :, None] * b[..., None, :, :, :] * r[..., :, None, None, :]


def inverse_instrument_channel(inst: NoisyEnergyPovm, x) -> np.ndarray:
    """Exact inverse of the measurement channel, V divide_coherences(V^dag X
    V) V^dag with V the measured eigenbasis; raises as require_invertible."""
    require_invertible(inst)
    a = as_square_array(x, inst.stacked)
    if a.shape[-1] != inst.dim:
        raise ValueError(f"operator dim {a.shape[-1]} != instrument dim {inst.dim}")
    v = inst.hamiltonian.basis
    vh = v.conj().swapaxes(-1, -2)
    return v @ divide_coherences(inst.diagonal_effects, vh @ a @ v) @ vh


def heisenberg_povm(b: Povm, u) -> Povm:
    """Conjugated POVM with effects U^dag B_b U; a stack of unitaries (k, d, d)
    gives k conjugates (k, n, d, d), of one POVM or of a stack of k."""
    stacked = b.effects.ndim == 4 or np.ndim(u) == 3
    uu = require_unitary(u, name="process unitary", stacked=stacked)
    if uu.shape[-1] != b.dim:
        raise ValueError(f"unitary dim {uu.shape[-1]} != POVM dim {b.dim}")
    if b.effects.ndim == 4 and len(uu) != len(b.effects):
        raise ValueError(f"stack sizes differ: {len(b.effects)} POVMs, {len(uu)} unitaries")
    eff = np.einsum("...ji,...ajk,...kl->...ail", uu.conj(), b.effects, uu)
    return Povm(effects=eff)


def check_marginals(w_grid, a: Povm, b: Povm) -> float:
    """Largest deviation of the grid's row/column sums from the two POVMs;
    per case (k,) for a stack of grids (k, m, n, d, d)."""
    w = np.asarray(w_grid, dtype=np.complex128)
    if w.ndim not in (4, 5) or w.shape[-4] != a.outcomes or w.shape[-3] != b.outcomes:
        raise ValueError(
            f"grid shape {w.shape} incompatible with {a.outcomes}x{b.outcomes} outcomes"
        )
    if w.shape[-2] != a.dim or w.shape[-1] != a.dim or a.dim != b.dim:
        raise ValueError("operator dimensions disagree")
    blocks = (-3, -2, -1)
    dev_a = np.abs(w.sum(axis=-3) - a.effects).max(axis=blocks)
    dev_b = np.abs(w.sum(axis=-4) - b.effects).max(axis=blocks)
    return per_case(np.maximum(dev_a, dev_b))
