"""POVMs and the noisy energy measurement with its square-root (Lueders) update.

The workhorse fact used throughout: in the eigenbasis of the measured
Hamiltonian the instrument channel X -> sum_a A_a^(1/2) X A_a^(1/2) leaves
diagonal entries alone and multiplies entry (i, j) by kappa_ij. That makes
the channel inversion exact (`divide_coherences`) instead of a numerical
superoperator inversion, and the square-root grid a broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import INVERTIBILITY_CUTOFF
from .errors import NonInvertibleInstrumentError, NotPsdError
from .operators import SpectralHamiltonian, as_square_array, require_unitary

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
        check_effects(eff)
        eff.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]


def check_effects(eff: np.ndarray) -> None:
    """Povm's checks on effects (..., m, d, d), over any leading axes: every
    effect's Hermitian part has eigenvalues >= EFFECT_PSD_FLOOR, and each
    POVM's m effects sum to the identity within COMPLETENESS_TOL."""
    worst = np.min(np.linalg.eigvalsh(0.5 * (eff + eff.conj().swapaxes(-1, -2))))
    if worst < EFFECT_PSD_FLOOR:
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


def noisy_povm(h: SpectralHamiltonian, visibility: float) -> Povm:
    """The effects lam*P_a + (1-lam)/d * 1 of the noisy energy measurement
    of h at the given visibility in [0, 1], without its square roots."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0,1], got {visibility}")
    eye = np.eye(h.dim, dtype=np.complex128)
    return Povm(effects=visibility * h.projectors + (1.0 - visibility) / h.dim * eye)


def noisy_effects(h: SpectralHamiltonian, visibility: float) -> NoisyEnergyPovm:
    """The noisy energy measurement of h at the given visibility in [0, 1].

    Each effect has eigenvalue lam + (1-lam)/d on its projector and
    (1-lam)/d elsewhere, so its square root is the same projector
    combination with rooted weights. The diagonals repeat the matrices'
    arithmetic: in the computational basis they match them bit for bit.
    """
    povm = noisy_povm(h, visibility)
    d, eye = h.dim, np.eye(h.dim)
    c1 = np.sqrt(visibility + (1.0 - visibility) / d)
    c0 = np.sqrt((1.0 - visibility) / d)
    return NoisyEnergyPovm(
        hamiltonian=h, visibility=visibility, povm=povm,
        sqrt_effects=(c1 - c0) * h.projectors + c0 * np.eye(d, dtype=np.complex128),
        diagonal_effects=visibility * eye + (1.0 - visibility) / d,
        diagonal_roots=(c1 - c0) * eye + c0,
    )


def luders_apply(inst: NoisyEnergyPovm, a: int, rho) -> np.ndarray:
    """Subnormalized post-measurement state for outcome a; its trace is the
    outcome probability."""
    if not 0 <= a < inst.outcomes:
        raise IndexError(f"outcome {a} outside range 0..{inst.outcomes - 1}")
    r = as_square_array(rho)
    s = inst.sqrt_effects[a]
    return s @ r @ s


def instrument_channel(inst: NoisyEnergyPovm, x) -> np.ndarray:
    """Unselected measurement channel sum_a A_a^(1/2) X A_a^(1/2)."""
    a = as_square_array(x)
    if a.shape[0] != inst.dim:
        raise ValueError(f"operator dim {a.shape[0]} != instrument dim {inst.dim}")
    return np.einsum("aij,jk,akl->il", inst.sqrt_effects, a, inst.sqrt_effects)


def require_invertible(inst: NoisyEnergyPovm) -> None:
    """Raise NonInvertibleInstrumentError at visibility >= INVERTIBILITY_CUTOFF."""
    if inst.visibility >= INVERTIBILITY_CUTOFF:
        raise NonInvertibleInstrumentError(
            f"visibility {inst.visibility} makes the measurement channel singular"
        )


def divide_coherences(a_diag, x):
    """The inverse channel in the basis where every A_a is diagonal, with
    diagonals a_diag (m, d): x (..., d, d) with entry (i, j) divided by
    kappa_ij = sum_a sqrt(A_a,ii A_a,jj), and its diagonal by exactly 1.0.
    None when some kappa_ij <= 0 (the sharp limit), which has no inverse."""
    kap = np.sqrt(a_diag[:, :, None] * a_diag[:, None, :]).sum(axis=0)
    np.fill_diagonal(kap, 1.0)
    return x / kap if np.all(kap > 0.0) else None


def square_root_grid(inst: NoisyEnergyPovm, b):
    """In inst's measured eigenbasis, for effects b (..., n, d, d) written in
    it: the targets A_a^(1/2) B_b A_a^(1/2), broadcast from the diagonal
    roots, and the grid A_a^(1/2) Lambda^-1(B_b) A_a^(1/2) = divide_coherences
    of the targets (None in the sharp limit), each (..., m, n, d, d)."""
    r = inst.diagonal_roots
    targets = r[:, None, :, None] * b[..., None, :, :, :] * r[:, None, None, :]
    return targets, divide_coherences(inst.diagonal_effects, targets)


def inverse_instrument_channel(inst: NoisyEnergyPovm, x) -> np.ndarray:
    """Exact inverse of the measurement channel, V divide_coherences(V^dag X
    V) V^dag with V the measured eigenbasis; raises as require_invertible."""
    require_invertible(inst)
    a = as_square_array(x)
    if a.shape[0] != inst.dim:
        raise ValueError(f"operator dim {a.shape[0]} != instrument dim {inst.dim}")
    v = inst.hamiltonian.basis
    return v @ divide_coherences(inst.diagonal_effects, v.conj().T @ a @ v) @ v.conj().T


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
