"""Joint work observables for noisy sequential energy measurements.

The construction: measure the first Hamiltonian unsharply (visibility lam),
evolve, measure the second unsharply (visibility gamma). The grid

    W_ab = A_a^(1/2) C_b A_a^(1/2),   C_b = inv_channel(depolarize(U^dag P'_b U))

reproduces both marginals exactly for any unitary; whether every W_ab is
positive is controlled by gamma against the closed-form bound. Energy
assignment functions attach work values w(a,b) = g(b) - f(a) to the grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bloch import VisibilityPair
from .errors import AssignmentDomainError, ZeroVisibilityError
from .operators import SpectralHamiltonian, logsumexp, require_hermitian, require_unitary
from .povm import (
    LuedersInstrument,
    Povm,
    check_marginals,
    heisenberg_povm,
    inverse_instrument_channel,
    luders_apply,
    luders_instrument,
    noisy_effects,
)

POSITIVITY_AUDIT_TOL = -1e-9


class AssignmentKind(enum.Enum):
    NAIVE = "naive"
    CORRECTED_MEAN = "corrected"
    JARZYNSKI = "jarzynski"


@dataclass(frozen=True)
class EnergyAssignment:
    """Outcome-indexed energy values used to define work w(a,b) = g(b) - f(a)."""

    values: np.ndarray
    kind: AssignmentKind

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("assignment values must be finite")
        self.values.setflags(write=False)

    @property
    def outcomes(self) -> int:
        return self.values.shape[0]


def naive_assignment(h: SpectralHamiltonian) -> EnergyAssignment:
    """f(a) = E_a: read the sharp eigenvalue off the unsharp outcome."""
    return EnergyAssignment(values=h.energies.astype(np.float64).copy(), kind=AssignmentKind.NAIVE)


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
    return EnergyAssignment(values=vals, kind=AssignmentKind.CORRECTED_MEAN)


def jarzynski_assignment(inst: LuedersInstrument, beta: float) -> EnergyAssignment:
    """Log-domain values that make exp(-beta f) telescope against the Gibbs
    weights, f(a) = (1/beta) ln[(1/lam)(e^{beta E_a} - (1-lam)/d * S)] with
    S = sum_a e^{beta E_a}. The energies E_a and the visibility lam are
    read from `inst`, the instrument of the noisy energy measurement.

    The constant of the defining identity
    sum_a e^{beta f(a)} A_a^(1/2) rho_Gibbs A_a^(1/2) = (1/Z) * 1
    is fixed at 1/Z, so that at visibility 1 the values collapse to the
    eigenvalues. The identity is verified on construction to 1e-10, through
    `inst` itself. Raises ValueError unless 0 < beta < inf, and when `inst`
    carries no Hamiltonian.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if inst.hamiltonian is None or inst.visibility is None:
        raise ValueError("log-domain assignment needs a noisy-energy instrument")
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
    assignment = EnergyAssignment(values=vals, kind=AssignmentKind.JARZYNSKI)

    # verify the defining identity through the actual instrument maps
    if beta * float(np.max(np.abs(vals))) < 700.0:
        inv_z = float(np.exp(-log_z))
        gibbs_p = np.exp(-beta * e - log_z)
        rho = (h.basis * gibbs_p) @ h.basis.conj().T
        acc = np.zeros((d, d), dtype=np.complex128)
        for a in range(d):
            acc += np.exp(beta * vals[a]) * luders_apply(inst, a, rho)
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

    pair: VisibilityPair
    unitary: np.ndarray
    effects: np.ndarray  # (d, d, d, d) grid, first index a, second b
    a_povm: object
    b_povm: Povm  # second measurement in the Heisenberg picture, U^dag B_b U
    b_lab: Povm  # the same measurement's lab-frame effects B_b
    instrument: object
    min_effect_eigenvalue: float
    min_effect_index: tuple
    marginal_deviation: float

    def __post_init__(self):
        self.effects.setflags(write=False)
        self.unitary.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.effects.shape[2]

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
    """Construct W_ab = A_a^(1/2) C_b A_a^(1/2) for the noisy pair.

    C_b undoes the first measurement channel on the depolarized, Heisenberg-
    rotated effects of the second measurement, which forces both marginals
    exactly. The minimum effect eigenvalue over the grid is recorded; it dips
    negative precisely when gamma exceeds the closed-form bound.
    """
    d = h_a.dim
    if h_b.dim != d:
        raise ValueError(f"Hamiltonian dims differ: {d} vs {h_b.dim}")
    uu = require_unitary(u, name="process unitary")
    a_povm = noisy_effects(h_a, pair.lam)
    inst = luders_instrument(a_povm)
    b_lab = noisy_effects(h_b, pair.gamma)
    b_heis = heisenberg_povm(b_lab.povm, uu)
    c = np.stack([inverse_instrument_channel(inst, eff) for eff in b_heis.effects])
    w = np.einsum("aij,bjk,akl->abil", inst.sqrt_effects, c, inst.sqrt_effects)
    eigs = np.linalg.eigvalsh(0.5 * (w + w.conj().transpose(0, 1, 3, 2)))
    flat = int(np.argmin(eigs[:, :, 0]))
    min_idx = (flat // d, flat % d)
    dev = check_marginals(w, a_povm.povm, b_heis)
    return JointWorkObservable(
        pair=pair,
        unitary=uu.copy(),
        effects=w,
        a_povm=a_povm,
        b_povm=b_heis,
        b_lab=b_lab.povm,
        instrument=inst,
        min_effect_eigenvalue=float(eigs[:, :, 0].min()),
        min_effect_index=min_idx,
        marginal_deviation=dev,
    )


@dataclass(frozen=True)
class WorkDistribution:
    """Flattened outcome-pair distribution with attached work values."""

    work: np.ndarray
    probability: np.ndarray

    def __post_init__(self):
        for arr in (self.work, self.probability):
            arr.setflags(write=False)


def work_distribution(
    w_obs: JointWorkObservable, rho, f: EnergyAssignment, g: EnergyAssignment
) -> WorkDistribution:
    """p(a,b) = Tr[W_ab rho] with work values g(b) - f(a)."""
    r = require_hermitian(rho, name="state")
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state trace {tr} != 1")
    p = np.einsum("abij,ji->ab", w_obs.effects, r).real
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(
            f"grid statistics are not a distribution (min {p.min():.3e}, sum {p.sum():.12f}); "
            "the observable is likely above the positivity bound for this state"
        )
    work = w_obs.work_values(f, g)
    return WorkDistribution(work=work.ravel().copy(), probability=p.ravel())


def jarzynski_sum(dist: WorkDistribution, beta: float) -> float:
    """Exponential work average sum_ab p(a,b) e^{-beta w(a,b)}."""
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return float(np.sum(dist.probability * np.exp(-beta * dist.work)))


def mean_work(dist: WorkDistribution) -> float:
    return float(np.sum(dist.probability * dist.work))
