"""Generalized two-point measurement statistics.

Exact outcome distributions come from composing the four maps directly
(first unsharp measurement with state update, unitary, second unsharp
measurement). The Monte Carlo layer draws trajectories from a table the
caller built once with gtpm_distribution; the fluctuation check runs that
sequential composition itself and compares it against the joint-observable
algebra, which is an independent code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .operators import SpectralHamiltonian, logsumexp, require_unitary
from .povm import LuedersInstrument, Povm, luders_apply

DISTRIBUTION_TOL = 1e-10


@dataclass(frozen=True)
class DiagonalState:
    """Mixture of the eigenprojectors of a reference Hamiltonian."""

    probabilities: np.ndarray
    basis: SpectralHamiltonian

    def __post_init__(self):
        p = self.probabilities
        if p.ndim != 1 or p.shape[0] != self.basis.dim:
            raise ValueError(f"need {self.basis.dim} probabilities, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.min(p) < -1e-14 or abs(float(np.sum(p)) - 1.0) > 1e-12:
            raise ValueError("probabilities must be finite, nonnegative and sum to 1")
        p.setflags(write=False)

    @property
    def rho(self) -> np.ndarray:
        v = self.basis.basis
        return (v * self.probabilities) @ v.conj().T


def gibbs_state(h: SpectralHamiltonian, beta: float) -> DiagonalState:
    """Gibbs state exp(-beta H)/Z of h as a DiagonalState; needs 0 < beta < inf."""
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    log_z = float(logsumexp(-beta * h.energies))
    return DiagonalState(probabilities=np.exp(-beta * h.energies - log_z), basis=h)


def free_energy_difference(h_a: SpectralHamiltonian, h_b: SpectralHamiltonian, beta: float) -> float:
    """dF = -(1/beta) ln(Z_B/Z_A), computed in log space; needs 0 < beta < inf."""
    if not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    log_za = float(logsumexp(-beta * h_a.energies))
    log_zb = float(logsumexp(-beta * h_b.energies))
    return -(log_zb - log_za) / beta


def _validate_state(rho, dim: int) -> np.ndarray:
    r = np.asarray(rho, dtype=np.complex128)
    if r.shape != (dim, dim):
        raise ValueError(f"state shape {r.shape} != ({dim}, {dim})")
    if abs(float(np.trace(r).real) - 1.0) > 1e-10:
        raise ValueError("state must have unit trace")
    if float(np.min(np.linalg.eigvalsh(0.5 * (r + r.conj().T)))) < -1e-10:
        raise ValueError("state must be positive semidefinite")
    return r


def gtpm_distribution(rho, inst: LuedersInstrument, u, b_povm: Povm) -> np.ndarray:
    """Joint outcome probabilities p(a,b) = Tr[B_b U I_a(rho) U^dag]."""
    d = inst.dim
    r = _validate_state(rho, d)
    uu = require_unitary(u, name="process unitary")
    if b_povm.dim != d:
        raise ValueError(f"second POVM dim {b_povm.dim} != {d}")
    m = inst.outcomes
    p = np.empty((m, b_povm.outcomes), dtype=np.float64)
    for a in range(m):
        evolved = uu @ luders_apply(inst, a, r) @ uu.conj().T
        p[a] = np.einsum("bij,ji->b", b_povm.effects, evolved).real
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > DISTRIBUTION_TOL:
        raise ArithmeticError(
            f"computed statistics fail normalization (min {p.min():.3e}, sum {p.sum():.12f})"
        )
    return p


def sample_gtpm(p, n: int, seed) -> np.ndarray:
    """Outcome counts from n sequentially simulated trajectories.

    p is a two-point table p(a,b), as gtpm_distribution returns it. Each
    trajectory draws the first outcome a with probability sum_b p(a,b) and
    then the second outcome b with probability p(a,b) / sum_b p(a,b), with
    rounding-level negative entries clipped to zero. The n trajectories are
    drawn together in two multinomial stages: first-outcome counts, then
    each row's second outcomes. That has exactly the law of n sequential
    draws, costs O(m*n_b) whatever n is, and is deterministic per seed. A
    row of probability zero is never drawn. Raises ValueError unless p is a
    finite 2-D table with entries >= -1e-12 that sums to 1 within
    DISTRIBUTION_TOL, and n >= 1.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"need a 2-D table, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("table entries must be finite")
    if abs(p.sum() - 1.0) > DISTRIBUTION_TOL or p.min() < -1e-12:
        raise ValueError(
            f"table is not a distribution (min {p.min():.3e}, sum {p.sum():.12f})"
        )
    p = np.clip(p, 0.0, None)
    p_first = p.sum(axis=1)
    cond = np.divide(p, p_first[:, None], out=np.zeros_like(p), where=p_first[:, None] > 0.0)
    p_first /= p_first.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(rng.multinomial(n, p_first), cond)


def fluctuation_residual(w_obs, rho_diag: DiagonalState) -> float:
    """Largest gap between joint-observable statistics and the sequential
    two-step statistics on a state diagonal in the first energy basis.

    w_obs is a JointWorkObservable; its instrument, unitary and lab-frame
    second POVM (w_obs.b_lab) drive the sequential side. The two pipelines
    share no intermediate quantities: one contracts the W grid with the
    state, the other runs measure-evolve-measure.
    """
    inst = w_obs.instrument
    if inst.hamiltonian is None:
        raise ValueError("instrument must carry its Hamiltonian to certify the basis")
    if rho_diag.basis.dim != inst.hamiltonian.dim or not np.allclose(
        rho_diag.basis.projectors, inst.hamiltonian.projectors, atol=1e-12
    ):
        raise BasisMismatchError(
            "diagonal state basis differs from the measured energy eigenbasis"
        )
    rho = rho_diag.rho
    p_joint = np.einsum("abij,ji->ab", w_obs.effects, rho).real
    p_seq = gtpm_distribution(rho, inst, w_obs.unitary, w_obs.b_lab)
    if p_joint.shape != p_seq.shape:
        raise ValueError(f"grid shape {p_joint.shape} vs sequential {p_seq.shape}")
    return float(np.max(np.abs(p_joint - p_seq)))
