"""Joint work observables for noisy sequential energy measurements.

The construction: measure the first Hamiltonian unsharply (visibility lam),
evolve, measure the second unsharply (visibility gamma). The grid

    W_ab = A_a^(1/2) Lambda^-1(U^dag B_b U) A_a^(1/2),   Lambda the first channel

reproduces both marginals exactly for any unitary; whether every W_ab is
positive is controlled by gamma against the closed-form bound. The first
measurement is one NoisyEnergyPovm: its effects A_a are the grid's first
marginal, and its closed-form roots build the grid and verify the
log-domain assignment. Energy assignment functions attach work values
w(a,b) = g(b) - f(a) to the grid. Built from stacked Hamiltonians (see
`operators`), with visibilities and beta (k,), the observable, the
assignments and the work grids carry a leading case axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import VisibilityPair
from .errors import AssignmentDomainError, ZeroVisibilityError
from .gtpm import _check_beta, gibbs_state
from .operators import SpectralHamiltonian, case_axes, every, logsumexp, per_case, require_unitary
from .povm import (
    NoisyEnergyPovm,
    Povm,
    check_marginals,
    divide_coherences,
    heisenberg_povm,
    noisy_effects,
    noisy_povm,
    require_invertible,
    square_root_targets,
)

POSITIVITY_AUDIT_TOL = -1e-9
# Blocks whose least eigenvalues lie this close to the least of all are one
# tie. Effects sum to the identity, so this is 4 ulps at their scale; at
# d = 2 the blocks W_01 and W_10 (and W_00 and W_11) tie in exact
# arithmetic and differ by rounding only, up to about 1.4 ulps.
MIN_EFFECT_TIE = 4 * np.finfo(np.float64).eps


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
        return self.values.shape[-1]


def naive_assignment(h: SpectralHamiltonian) -> EnergyAssignment:
    """f(a) = E_a: read the sharp eigenvalue off the unsharp outcome."""
    return EnergyAssignment(values=h.energies.astype(np.float64).copy())


def corrected_assignment(h: SpectralHamiltonian, visibility: float) -> EnergyAssignment:
    """Mean-unbiased values f(a) = E_a/lam - (1-lam)/lam * mean(E).

    Chosen so the average operator of the noisy POVM reproduces the
    Hamiltonian itself, making average work exact at any visibility.
    """
    if (np.asarray(visibility) <= 0.0).any():
        raise ZeroVisibilityError("corrected assignment needs visibility > 0")
    e, vis = h.energies, case_axes(visibility, 1)
    ebar = e.mean(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflow to inf or nan fails EnergyAssignment's finiteness check
        vals = e / vis - (1.0 - vis) / vis * ebar
    return EnergyAssignment(values=vals)


def _log_domain(h: SpectralHamiltonian, visibility, beta):
    """The log-domain test shared by `jarzynski_domain` and
    `jarzynski_assignment`, over any case axes: (in_domain, lam_min, shift,
    args), where args = e^{beta E_a - shift} - (1-lam)/d * S must all be
    positive and shift = max_a beta E_a keeps every exponential finite."""
    e, d = h.energies, h.dim
    vis, b = case_axes(visibility, 1), case_axes(beta, 1)
    shift = (b * e).max(axis=-1, keepdims=True)
    expo = np.exp(b * e - shift)
    s = expo.sum(axis=-1, keepdims=True)
    args = expo - (1.0 - vis) / d * s
    lam_min = np.maximum(0.0, 1.0 - d * expo.min(axis=-1) / s[..., 0])
    return (args > 0.0).all(axis=-1), lam_min, shift, args


def jarzynski_domain(h: SpectralHamiltonian, visibility, beta):
    """Where the log-domain assignment of the noisy measurement of h exists:
    (in_domain, lam_min), per case for a stacked h. in_domain is the test
    `jarzynski_assignment` raises on; lam_min = 1 - d e^{beta E_min} /
    sum_a e^{beta E_a} (at least 0) is the least visibility inside it, in
    closed form."""
    in_domain, lam_min, _, _ = _log_domain(h, visibility, beta)
    return per_case(in_domain), per_case(lam_min)


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
    0 < beta < inf, and AssignmentDomainError outside `jarzynski_domain`
    (for a stack: when any case is; the error names the first). A stacked
    inst takes beta (k,).
    """
    _check_beta(beta)
    h, visibility = inst.hamiltonian, inst.visibility
    if (np.asarray(visibility) <= 0.0).any():
        raise ZeroVisibilityError("log-domain assignment needs visibility > 0")
    in_domain, lam_min, shift, args = _log_domain(h, visibility, beta)
    if not every(in_domain):
        # the first case outside the domain
        offender = int(np.argmin(args[~in_domain][0]))
        lam = float(lam_min[~in_domain][0])
        raise AssignmentDomainError(
            f"log argument non-positive for outcome {offender}; "
            f"needs visibility > {lam:.6f}",
            outcome=offender,
            min_visibility=lam,
        )
    b = case_axes(beta, 1)
    vals = (shift - np.log(case_axes(visibility, 1)) + np.log(args)) / b
    assignment = EnergyAssignment(values=vals)

    # verify the defining identity through the actual instrument maps, in
    # every case whose exponentials stay inside the float range
    e, d = h.energies, h.dim
    checked = beta * np.abs(vals).max(axis=-1) < 700.0
    if checked.any():
        log_z = np.asarray(logsumexp(-b * e))
        inv_z = np.exp(-log_z)
        rho = gibbs_state(h, beta).rho
        roots = inst.sqrt_effects
        weights = np.exp(np.where(checked[..., None], b * vals, 0.0))
        acc = np.einsum("...a,...aij->...ij", weights, roots @ rho[..., None, :, :] @ roots)
        resid = np.abs(acc - inv_z[..., None, None] * np.eye(d)).max(axis=(-2, -1))
        over = checked & (resid > 1e-10 * np.maximum(1.0, inv_z))
        if over.any():
            raise ArithmeticError(
                f"assignment identity residual {np.max(resid[over]):.3e} exceeds tolerance"
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
        if f.outcomes != self.effects.shape[-4] or g.outcomes != self.effects.shape[-3]:
            raise ValueError("assignment sizes do not match the outcome grid")
        return g.values[..., None, :] - f.values[..., :, None]


def build_joint_observable(
    h_a: SpectralHamiltonian, h_b: SpectralHamiltonian, u, pair: VisibilityPair
) -> JointWorkObservable:
    """Construct W_ab = A_a^(1/2) Lambda^-1(U^dag B_b U) A_a^(1/2) for the
    noisy pair as V K V^dag, K the square-root grid in the eigenbasis V of h_a.

    Undoing the first measurement channel forces both marginals exactly. The
    minimum effect eigenvalue over the grid is recorded; it dips negative
    precisely when gamma exceeds the closed-form bound. Its index is the
    first block (a, b), in row-major order, within MIN_EFFECT_TIE of it.
    Raises NonInvertibleInstrumentError when lam makes the channel singular.
    Stacked Hamiltonians take unitaries (k, d, d) and a pair of visibility
    arrays (k,), and give the grid (k, d, d, d, d) with its audit per case.
    """
    d = h_a.dim
    if h_b.dim != d:
        raise ValueError(f"Hamiltonian dims differ: {d} vs {h_b.dim}")
    uu = require_unitary(u, name="process unitary", stacked=h_a.stacked)
    inst = noisy_effects(h_a, pair.lam)
    require_invertible(inst)
    b_lab = noisy_povm(h_b, pair.gamma)
    b_heis = heisenberg_povm(b_lab, uu)
    v = h_a.basis[..., None, :, :]
    vh = v.conj().swapaxes(-1, -2)
    targets = square_root_targets(inst, vh @ b_heis.effects @ v)
    k = divide_coherences(inst.diagonal_effects, targets)
    w = v[..., None, :, :] @ k @ vh[..., None, :, :]
    least = np.linalg.eigvalsh(0.5 * (w + w.conj().swapaxes(-1, -2)))[..., 0]
    lowest = least.min(axis=(-2, -1))
    tied = least <= lowest[..., None, None] + MIN_EFFECT_TIE
    # argmax finds the first tied block
    flat = np.argmax(tied.reshape(*tied.shape[:-2], d * d), axis=-1)
    dev = check_marginals(w, inst.povm, b_heis)
    return JointWorkObservable(
        unitary=uu.copy(),
        effects=w,
        instrument=inst,
        b_povm=b_heis,
        b_lab=b_lab,
        min_effect_eigenvalue=per_case(lowest),
        min_effect_index=(per_case(flat // d), per_case(flat % d)),
        marginal_deviation=dev,
    )
