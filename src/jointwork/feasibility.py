"""Feasibility search for joint measurements with prescribed marginals.

The convex program: find a grid K_ab of PSD blocks with row sums A_a,
column sums B^U_b and diagonal statistics Tr[K_ab P_k] pinned to those of
the square-root construction. Solved by alternating projections with
Dykstra corrections between the affine constraint set (closed form,
entrywise, diagonals pinned) and the product of PSD cones (eigenvalue
clipping). A converged gap whose grid passes the exact marginal check is
FEASIBLE_ZERO_OBJECTIVE. INFEASIBLE means that no grid with these
marginals and these diagonal statistics was found: the projections
stalled, or converged on a grid whose marginals fail the check. It is a
stall verdict, not a checked certificate. The result carries the final gap
and the iteration count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .operators import SpectralHamiltonian, haar_random_unitary, hamiltonian_from_energies
from .povm import Povm, heisenberg_povm, luders_instrument, noisy_effects

STALL_WINDOW = 500
STALL_SCALE = 10.0


class FeasibilityStatus(enum.Enum):
    FEASIBLE_ZERO_OBJECTIVE = "FeasibleZeroObjective"
    INFEASIBLE = "Infeasible"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Marginal data and diagonal-statistics targets for the joint search.

    probe_basis columns define the projectors P_k used for the statistics
    constraints (the eigenbasis of the first Hamiltonian).
    """

    a_effects: np.ndarray  # (m, d, d)
    b_effects: np.ndarray  # (n, d, d)
    targets: np.ndarray  # (m, n, d, d)
    probe_basis: np.ndarray  # (d, d)

    def __post_init__(self):
        Povm(effects=self.a_effects.copy())
        Povm(effects=self.b_effects.copy())
        t = self.targets
        m, n = self.a_effects.shape[0], self.b_effects.shape[0]
        d = self.a_effects.shape[1]
        if t.shape != (m, n, d, d):
            raise ValueError(f"targets shape {t.shape} != ({m}, {n}, {d}, {d})")
        if np.max(np.abs(t - t.conj().transpose(0, 1, 3, 2))) > 1e-10:
            raise ValueError("targets must be Hermitian blocks")
        if self.probe_basis.shape != (d, d):
            raise ValueError("probe basis shape mismatch")
        for arr in (self.a_effects, self.b_effects, self.targets, self.probe_basis):
            arr.setflags(write=False)


def joint_feasibility_problem(
    h_a: SpectralHamiltonian, h_b: SpectralHamiltonian, u, lam: float, gamma: float
) -> FeasibilityProblem:
    """Problem instance for a noisy measurement pair around a unitary.

    Visibilities may be 1 here (sharp limit): the search itself never needs
    the inverse channel, so the projective no-go case is expressible.
    """
    if not (0.0 < lam <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError(f"visibilities must lie in (0,1], got ({lam}, {gamma})")
    a_povm = noisy_effects(h_a, lam)
    inst = luders_instrument(a_povm)
    b_heis = heisenberg_povm(noisy_effects(h_b, gamma).povm, u)
    targets = np.einsum(
        "aij,bjk,akl->abil", inst.sqrt_effects, b_heis.effects, inst.sqrt_effects
    )
    return FeasibilityProblem(
        a_effects=a_povm.effects.copy(),
        b_effects=b_heis.effects.copy(),
        targets=targets,
        probe_basis=h_a.basis.copy(),
    )


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    grid: np.ndarray  # (m, n, d, d), lab frame
    marginal_residual: float
    min_eigenvalue: float
    iterations: int
    gap: float

    def __post_init__(self):
        self.grid.setflags(write=False)


def _to_frame(grid, v):
    return np.einsum("ji,abjk,kl->abil", v.conj(), grid, v)


def _from_frame(grid, v):
    return np.einsum("ij,abjk,lk->abil", v, grid, v.conj())


def _marginal_residual(problem: FeasibilityProblem, grid) -> float:
    """Largest entrywise deviation of a lab-frame grid's row and column sums
    from the two marginals."""
    return float(
        max(
            np.max(np.abs(grid.sum(axis=1) - problem.a_effects)),
            np.max(np.abs(grid.sum(axis=0) - problem.b_effects)),
        )
    )


def solve_joint_feasibility(
    problem: FeasibilityProblem, tol: float = 1e-7, max_iter: int = 20000
) -> FeasibilityResult:
    """Project with the diagonal statistics pinned, in the probe frame
    (eigenbasis of the first Hamiltonian); never raises on non-convergence,
    the status field carries the verdict.

    The iteration starts at the target grid itself, which already satisfies
    the A-marginal and the diagonal statistics, leaving only the B-marginal
    and positivity to reconcile. Raises ValueError unless tol > 0 and
    max_iter >= 1.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    v = problem.probe_basis
    ae = np.einsum("ji,ajk,kl->ail", v.conj(), problem.a_effects, v)
    be = np.einsum("ji,ajk,kl->ail", v.conj(), problem.b_effects, v)
    te = _to_frame(problem.targets, v)
    tdiag = np.ascontiguousarray(np.diagonal(te, axis1=2, axis2=3).real)
    k_e, gap, iters, code = _kernels.dykstra(
        ae, be, tdiag, te, tol, max_iter, STALL_WINDOW, STALL_SCALE
    )
    grid = _from_frame(k_e, v)
    residual = _marginal_residual(problem, grid)
    if code == 2:
        status = FeasibilityStatus.MAX_ITERATIONS
    elif code == 0 and residual <= STALL_SCALE * tol:
        status = FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    else:
        # pinning the diagonal and matching the marginals are applied as one
        # composed step, which is a genuine projection only when the pinned
        # statistics are consistent with the marginals; a converged gap with
        # broken marginals means that consistency failed
        status = FeasibilityStatus.INFEASIBLE
    sym = 0.5 * (grid + grid.conj().transpose(0, 1, 3, 2))
    min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    return FeasibilityResult(
        status=status,
        grid=grid,
        marginal_residual=residual,
        min_eigenvalue=min_eig,
        iterations=iters,
        gap=float(gap),
    )


def estimate_critical_visibility(
    d: int,
    n_unitaries: int,
    tol: float = 1e-7,
    seed=0,
    resolution: float = 1e-3,
    max_iter: int = 20000,
    history: Optional[list] = None,
) -> float:
    """Empirical critical symmetric visibility by bisection over lam = gamma.

    A visibility passes when the solver finds a grid with both marginals and
    the pinned diagonal statistics (FEASIBLE_ZERO_OBJECTIVE) for every
    sampled unitary; the returned value is the largest passing visibility at
    the requested resolution. A probe that exhausts its iteration budget
    counts as failing (certification, not proof), and a probe stops at its
    first failing unitary. Appends (visibility, passed) pairs to `history`
    when given.
    """
    if n_unitaries < 1:
        raise ValueError(f"need at least one unitary, got {n_unitaries}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**63 - 1, size=n_unitaries)
    unitaries = [haar_random_unitary(d, int(s)) for s in seeds]

    def certified(u, lam):
        pr = joint_feasibility_problem(h, h, u, lam, lam)
        status = solve_joint_feasibility(pr, tol, max_iter).status
        return status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE

    def passes(lam):
        ok = all(certified(u, lam) for u in unitaries)
        if history is not None:
            history.append((lam, ok))
        return ok

    lo, hi = 0.02, 0.98
    if not passes(lo):
        raise RuntimeError(
            f"bisection bracket broken: visibility {lo} failed to certify"
        )
    if passes(hi):
        return hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
