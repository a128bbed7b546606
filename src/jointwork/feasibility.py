"""Feasibility search for joint measurements with prescribed marginals.

The convex program: find a grid K_ab of PSD blocks with row sums A_a,
column sums B^U_b and diagonal statistics Tr[K_ab P_k] pinned to those of
the square-root construction. The construction's own grid,
K_ab = A_a^(1/2) Lambda^-1(B_b) A_a^(1/2), meets every affine constraint in
closed form, so it is tried first (`square_root_certificate`); only when
its checks fail is the program solved, by alternating projections with
Dykstra corrections between the affine constraint set (closed form, entrywise,
diagonals pinned) and the product of PSD cones (eigenvalue clipping). The
verdicts:

- FEASIBLE_ZERO_OBJECTIVE after zero iterations: the square-root grid has
  every block's least eigenvalue above an eigvalsh error bound and passes
  the exact marginal check, residual <= STALL_SCALE*tol. Certified by a
  PSD grid.
- FEASIBLE_ZERO_OBJECTIVE from the projections: the gap converged and the
  grid passes the same marginal check. Certified on the residual.
- INFEASIBLE, certified: Farkas multipliers Y_a, Z_b, D_ab, read off the
  displacement between the two projections, passed an eigenvalue check
  (every Y_a + Z_b + diag(D_ab) is PSD) and give
  sum Tr[Y_a A_a] + sum Tr[Z_b B_b] + sum D_ab.t_ab < 0, which no grid
  can satisfy (`_kernels.farkas_certificate`).
- INFEASIBLE, not certified: the projections stalled, or converged on a
  grid whose marginals fail the check. A heuristic verdict.
- MAX_ITERATIONS: the budget ran out first. Not certified.

The result carries the final gap, the iteration count and whether its
verdict is certified.

`joint_feasibility_problem` poses one unitary, or a stack (k, d, d) of them
as one FeasibilityProblem whose second measurements and targets carry the
leading axis (each array about k*m*n*d^2*16 bytes), through
`povm.heisenberg_povm` and `povm.square_root_targets`; the square-root
check's residual is `povm.check_marginals`. The certificate and the
solver take one problem; the solver hands the five-argument kernel
`_kernels.dykstra(a_eff, b_eff, targets, tol, max_iter)` only its arrays
and budget. The visibility estimator poses each bisection probe's unitaries
as one stack and checks every square-root grid at once. A probe whose grids
all pass runs no solve; otherwise the unitaries whose grid failed are
solved, most negative least grid eigenvalue first, until the first
non-feasible verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import STALL_SCALE
from .operators import SpectralHamiltonian, haar_random_unitary, hamiltonian_from_energies
from .povm import (
    Povm,
    check_marginals,
    divide_coherences,
    heisenberg_povm,
    noisy_effects,
    noisy_povm,
    square_root_targets,
)


class FeasibilityStatus(enum.Enum):
    FEASIBLE_ZERO_OBJECTIVE = "FeasibleZeroObjective"
    INFEASIBLE = "Infeasible"
    MAX_ITERATIONS = "MaxIterations"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Marginal data and diagonal-statistics targets for the joint search,
    in the problem's frame: the projectors P_k of the statistics constraints
    are the computational-basis ones. With second measurements b (k, n, d, d)
    and targets (k, m, n, d, d) it holds a stack of k problems that share
    their first measurement a."""

    a: Povm  # m outcomes
    b: Povm  # n outcomes
    targets: np.ndarray  # (m, n, d, d), or (k, m, n, d, d)

    def __post_init__(self):
        if not (isinstance(self.a, Povm) and isinstance(self.b, Povm)):
            raise TypeError("both marginals must be Povm instances")
        if self.a.effects.ndim != 3:
            raise ValueError(f"first marginal must be one POVM, got effects {self.a.effects.shape}")
        if self.a.dim != self.b.dim:
            raise ValueError(f"marginal dimensions differ: {self.a.dim} != {self.b.dim}")
        t = self.targets
        m, n, d = self.a.outcomes, self.b.outcomes, self.a.dim
        shape = (*self.b.effects.shape[:-3], m, n, d, d)
        if t.shape != shape:
            raise ValueError(f"targets shape {t.shape} != {shape}")
        if np.max(np.abs(t - t.conj().swapaxes(-1, -2))) > 1e-10:
            raise ValueError("targets must be Hermitian blocks")
        t.setflags(write=False)


def joint_feasibility_problem(
    h_a: SpectralHamiltonian, h_b: SpectralHamiltonian, u, lam: float, gamma: float
) -> FeasibilityProblem:
    """Problem instance for a noisy measurement pair around a unitary, posed
    in the eigenbasis V of the first Hamiltonian.

    Conjugating every effect by V keeps joint measurability, so the pair
    (A_a, U^dag B_b U) becomes the first Hamiltonian's levels measured in
    the computational basis and the second measurement conjugated by U V.
    Visibilities may be 1 here (sharp limit): the search itself never needs
    the inverse channel, so the projective no-go case is expressible.
    A stack of unitaries (k, d, d) gives the stack of k problems: what does
    not depend on the unitary is built once, and every check (unitarity,
    Povm's, the targets' Hermiticity) runs once over the whole stack.
    """
    if not (0.0 < lam <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError(f"visibilities must lie in (0,1], got ({lam}, {gamma})")
    a = noisy_effects(hamiltonian_from_energies(h_a.energies), lam)
    b = heisenberg_povm(noisy_povm(h_b, gamma), np.asarray(u) @ h_a.basis)
    return FeasibilityProblem(a=a.povm, b=b, targets=square_root_targets(a, b.effects))


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    grid: np.ndarray  # (m, n, d, d), the problem's frame
    marginal_residual: float
    min_eigenvalue: float
    iterations: int
    gap: float
    certified: bool  # the verdict rests on a checked certificate

    def __post_init__(self):
        self.grid.setflags(write=False)


def _square_root_check(problem: FeasibilityProblem, tol: float):
    """The square-root grid of a problem, or of each problem of a stack,
    with its checks (see `square_root_certificate`).

    Returns None when an A_a is not a nonnegative diagonal or some
    kappa_ij <= 0 (the sharp limit); otherwise (grid, least, residual,
    passed): the grid (..., m, n, d, d) and per problem the least block
    eigenvalue, the exact marginal residual and whether both checks hold.
    """
    a_eff = problem.a.effects
    d = a_eff.shape[-1]
    diag = np.diagonal(a_eff, axis1=1, axis2=2).real
    if np.any(a_eff[:, ~np.eye(d, dtype=bool)]) or np.any(diag < 0.0):
        return None
    grid = divide_coherences(diag, problem.targets)
    if grid is None:
        return None
    sym = 0.5 * (grid + grid.conj().swapaxes(-1, -2))
    least = np.linalg.eigvalsh(sym)[..., 0]
    eps = np.finfo(least.dtype).eps
    blocks = (-2, -1)
    slack = _kernels.EIG_ERROR_PER_DIM * d * eps * np.abs(grid).sum(axis=blocks)
    residual = check_marginals(grid, problem.a, problem.b)
    passed = np.all(least >= slack, axis=blocks) & (residual <= STALL_SCALE * tol)
    return grid, least.min(axis=blocks), residual, passed


def square_root_certificate(
    problem: FeasibilityProblem, tol: float = 1e-7
) -> Optional[FeasibilityResult]:
    """The square-root grid K_ab = A_a^(1/2) Lambda^-1(B_b) A_a^(1/2) as a
    checked feasibility certificate, or None.

    With every A_a diagonal, the channel Lambda(X) = sum_a A_a^(1/2) X
    A_a^(1/2) keeps the diagonal and scales entry (i, j) by
    kappa_ij = sum_a sqrt(A_a,ii A_a,jj). So the grid is `targets` through
    `povm.divide_coherences`: its diagonals are the targets' own, and its
    row and column sums are A_a and B_b up to rounding.
    Returns FEASIBLE_ZERO_OBJECTIVE, certified, after zero iterations, when
    every block's eigvalsh minimum is at least EIG_ERROR_PER_DIM*d*eps times
    the sum of its absolute entries (`_kernels.farkas_certificate`'s bound)
    and the exact marginal residual is <= STALL_SCALE*tol. Returns None when
    an A_a is not a nonnegative diagonal, when some kappa_ij <= 0 (the sharp
    limit lam = 1), or when either check fails. Raises ValueError on a stack
    of problems.
    """
    if problem.targets.ndim != 4:
        raise ValueError(f"expected one problem, got a stack of targets {problem.targets.shape}")
    checked = _square_root_check(problem, tol)
    if checked is None or not checked[3]:
        return None
    grid, least, residual, _ = checked
    return FeasibilityResult(
        status=FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE,
        grid=grid,
        marginal_residual=float(residual),
        min_eigenvalue=float(least),
        iterations=0,
        gap=0.0,
        certified=True,
    )


def _check_solver_args(tol, max_iter):
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def solve_joint_feasibility(
    problem: FeasibilityProblem, tol: float = 1e-7, max_iter: int = 20000
) -> FeasibilityResult:
    """Try the square-root grid first, then project with the diagonal
    statistics pinned, in the problem's frame; never raises on
    non-convergence: the status field carries the verdict, and `certified`
    whether it rests on a checked certificate (see the module docstring).
    A square-root grid that passes `square_root_certificate` is returned as
    it is, FEASIBLE_ZERO_OBJECTIVE after zero iterations; otherwise kernel
    code 3, a Farkas certificate, is INFEASIBLE.

    The iteration starts at the target grid itself, which already satisfies
    the A-marginal and the diagonal statistics, leaving only the B-marginal
    and positivity to reconcile. Raises ValueError unless tol > 0 and
    max_iter >= 1, and on a stack of problems.
    """
    _check_solver_args(tol, max_iter)
    certificate = square_root_certificate(problem, tol)
    if certificate is not None:
        return certificate
    grid, gap, iters, code = _kernels.dykstra(
        problem.a.effects, problem.b.effects, problem.targets, tol, max_iter
    )
    residual = check_marginals(grid, problem.a, problem.b)
    feasible = code == 0 and residual <= STALL_SCALE * tol
    if code == 2:
        status = FeasibilityStatus.MAX_ITERATIONS
    elif feasible:
        status = FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    else:
        # code 3 carries a Farkas certificate and code 1 is a stall. Pinning
        # the diagonal and matching the marginals are applied as one composed
        # step, which is a genuine projection only when the pinned statistics
        # are consistent with the marginals; a converged gap with broken
        # marginals means that consistency failed
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
        certified=feasible or code == 3,
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
    the requested resolution. Any other verdict fails the probe: INFEASIBLE,
    certified or not, and MAX_ITERATIONS alike (certification, not proof).

    Each probe poses all its unitaries as one stack with
    `joint_feasibility_problem` and checks every square-root grid at once
    (`square_root_certificate`'s checks); a probe whose grids all pass runs
    no solve. Otherwise `solve_joint_feasibility` runs on the unitaries
    whose grid failed, most negative least grid eigenvalue first (a stable
    sort, so ties keep index order), and the probe stops at its first
    non-feasible verdict. Each
    solve is deterministic in its inputs, so the verdicts do not depend on
    the order. The stack's arrays (second measurements, targets, grids)
    take up to n_unitaries*m*n*d^2*16 = n_unitaries*d^4*16 bytes each.
    Appends (visibility, passed) pairs to `history` when given.
    """
    if n_unitaries < 1:
        raise ValueError(f"need at least one unitary, got {n_unitaries}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    # a probe whose grids all pass runs no solve, so check the solver's own
    # arguments here
    _check_solver_args(tol, max_iter)
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    rng = np.random.default_rng(seed)
    unitaries = haar_random_unitary(d, rng.integers(0, 2**63 - 1, size=n_unitaries))

    def passes(lam):
        # every lam < 1 has a square-root grid
        stack = joint_feasibility_problem(h, h, unitaries, lam, lam)
        _, least, _, passed = _square_root_check(stack, tol)
        failed = np.flatnonzero(~passed)
        ok = all(
            solve_joint_feasibility(
                FeasibilityProblem(stack.a, Povm(effects=stack.b.effects[i]), stack.targets[i]),
                tol, max_iter,
            ).status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
            for i in failed[np.argsort(least[failed], kind="stable")]
        )
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
