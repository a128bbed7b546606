"""Joint work observables for noisy sequential energy measurements.

The construction: measure the first Hamiltonian unsharply (visibility lam),
evolve, measure the second unsharply (visibility gamma). The grid

    W_ab = A_a^(1/2) Lambda^-1(U^dag B_b U) A_a^(1/2),   Lambda the first channel

reproduces both marginals exactly for any unitary; whether every W_ab is
positive is controlled by gamma against the closed-form bound. The first
measurement is one NoisyEnergyPovm: its effects A_a are the grid's first
marginal, and its closed-form roots build the grid and verify the
log-domain assignment. Energy assignment functions attach work values
w(a,b) = g(b) - f(a) to the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import VisibilityPair
from .errors import AssignmentDomainError, ZeroVisibilityError
from .operators import SpectralHamiltonian, logsumexp, require_unitary
from .povm import (
    NoisyEnergyPovm,
    Povm,
    check_marginals,
    heisenberg_povm,
    noisy_effects,
    noisy_povm,
    require_invertible,
    square_root_grid,
)

POSITIVITY_AUDIT_TOL = -1e-9


@dataclass(frozen=True)
class EnergyAssignment:
    """Outcome-indexed energy values used to define work w(a,b) = g(b) - f(a)."""

    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("assignment values must be finite")
        self.values.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.values.shape[0]


def naive_assignment(h: SpectralHamiltonian) -> EnergyAssignment:
    """f(a) = E_a: read the sharp eigenvalue off the unsharp outcome."""
    return EnergyAssignment(values=h.energies.astype(np.float64).copy())


def corrected_assignment(h: SpectralHamiltonian, visibility: float) -> EnergyAssignment:
    """Mean-unbiased values f(a) = E_a/lam - (1-lam)/lam * mean(E).

    Chosen so the average operator of the noisy POVM reproduces the
    Hamiltonian itself, making average work exact at any visibility.
    """
    if visibility <= 0.0:
        raise ZeroVisibilityError("corrected assignment needs visibility > 0")
    e = h.energies
    ebar = float(np.mean(e))
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflow to inf or nan fails EnergyAssignment's finiteness check
        vals = e / visibility - (1.0 - visibility) / visibility * ebar
    return EnergyAssignment(values=vals)


def jarzynski_assignment(inst: NoisyEnergyPovm, beta: float) -> EnergyAssignment:
    """Log-domain values that make exp(-beta f) telescope against the Gibbs
    weights, f(a) = (1/beta) ln[(1/lam)(e^{beta E_a} - (1-lam)/d * S)] with
    S = sum_a e^{beta E_a}. The energies E_a and the visibility lam are
    read from `inst`, the noisy energy measurement.

    The constant of the defining identity
    sum_a e^{beta f(a)} A_a^(1/2) rho_Gibbs A_a^(1/2) = (1/Z) * 1
    is fixed at 1/Z, so that at visibility 1 the values collapse to the
    eigenvalues. The identity is verified on construction to 1e-10, through
    the square-root update of `inst`. Raises ValueError unless
    0 < beta < inf.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    h, visibility = inst.hamiltonian, inst.visibility
    if visibility <= 0.0:
        raise ZeroVisibilityError("log-domain assignment needs visibility > 0")
    e = h.energies
    d = h.dim
    log_z = float(logsumexp(-beta * e))
    # shifted exponentials keep everything finite for large beta*E
    shift = float(np.max(beta * e))
    expo = np.exp(beta * e - shift)
    s = float(np.sum(expo))
    args = expo - (1.0 - visibility) / d * s
    if np.min(args) <= 0.0:
        offender = int(np.argmin(args))
        # smallest visibility keeping every log argument positive
        lam_min = max(0.0, 1.0 - d * float(np.min(expo)) / s)
        raise AssignmentDomainError(
            f"log argument non-positive for outcome {offender}; "
            f"needs visibility > {lam_min:.6f}",
            outcome=offender,
            min_visibility=lam_min,
        )
    vals = (shift - np.log(visibility) + np.log(args)) / beta
    assignment = EnergyAssignment(values=vals)

    # verify the defining identity through the actual instrument maps
    if beta * float(np.max(np.abs(vals))) < 700.0:
        inv_z = float(np.exp(-log_z))
        gibbs_p = np.exp(-beta * e - log_z)
        rho = (h.basis * gibbs_p) @ h.basis.conj().T
        roots = inst.sqrt_effects
        acc = np.tensordot(np.exp(beta * vals), roots @ rho @ roots, axes=1)
        resid = float(np.max(np.abs(acc - inv_z * np.eye(d))))
        if resid > 1e-10 * max(1.0, inv_z):
            raise ArithmeticError(
                f"assignment identity residual {resid:.3e} exceeds tolerance"
            )
    return assignment


@dataclass(frozen=True)
class JointWorkObservable:
    """Grid of effects W_ab whose marginals are the two noisy measurements.

    Positivity is audited rather than enforced: above the visibility bound
    the grid still has exact marginals but some block turns indefinite, and
    min_effect_eigenvalue records how badly (with the witnessing index).
    """

    unitary: np.ndarray
    effects: np.ndarray  # (d, d, d, d) grid, first index a, second b
    instrument: NoisyEnergyPovm  # first measurement A_a with its square-root update
    b_povm: Povm  # second measurement in the Heisenberg picture, U^dag B_b U
    b_lab: Povm  # the same measurement's lab-frame effects B_b
    min_effect_eigenvalue: float
    min_effect_index: tuple
    marginal_deviation: float

    def __post_init__(self):
        self.effects.setflags(write=False)
        self.unitary.setflags(write=False)

    @property
    def positivity_ok(self) -> bool:
        return self.min_effect_eigenvalue >= POSITIVITY_AUDIT_TOL

    def work_values(self, f: EnergyAssignment, g: EnergyAssignment) -> np.ndarray:
        """Grid w(a,b) = g(b) - f(a)."""
        if f.outcomes != self.effects.shape[0] or g.outcomes != self.effects.shape[1]:
            raise ValueError("assignment sizes do not match the outcome grid")
        return g.values[None, :] - f.values[:, None]


def build_joint_observable(
    h_a: SpectralHamiltonian, h_b: SpectralHamiltonian, u, pair: VisibilityPair
) -> JointWorkObservable:
    """Construct W_ab = A_a^(1/2) Lambda^-1(U^dag B_b U) A_a^(1/2) for the
    noisy pair as V K V^dag, K the square-root grid in the eigenbasis V of h_a.

    Undoing the first measurement channel forces both marginals exactly. The
    minimum effect eigenvalue over the grid is recorded; it dips negative
    precisely when gamma exceeds the closed-form bound. Raises
    NonInvertibleInstrumentError when lam makes the channel singular.
    """
    d = h_a.dim
    if h_b.dim != d:
        raise ValueError(f"Hamiltonian dims differ: {d} vs {h_b.dim}")
    uu = require_unitary(u, name="process unitary")
    inst = noisy_effects(h_a, pair.lam)
    require_invertible(inst)
    b_lab = noisy_povm(h_b, pair.gamma)
    b_heis = heisenberg_povm(b_lab, uu)
    v = h_a.basis
    _, k = square_root_grid(inst, v.conj().T @ b_heis.effects @ v)
    w = v @ k @ v.conj().T
    eigs = np.linalg.eigvalsh(0.5 * (w + w.conj().transpose(0, 1, 3, 2)))
    flat = int(np.argmin(eigs[:, :, 0]))
    min_idx = (flat // d, flat % d)
    dev = check_marginals(w, inst.povm, b_heis)
    return JointWorkObservable(
        unitary=uu.copy(),
        effects=w,
        instrument=inst,
        b_povm=b_heis,
        b_lab=b_lab,
        min_effect_eigenvalue=float(eigs[:, :, 0].min()),
        min_effect_index=min_idx,
        marginal_deviation=dev,
    )
