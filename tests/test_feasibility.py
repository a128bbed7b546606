import numpy as np
import pytest

from jointwork import _kernels
from jointwork.bloch import symmetric_critical_visibility
from jointwork.feasibility import (
    STALL_SCALE,
    STALL_WINDOW,
    FeasibilityProblem,
    FeasibilityStatus,
    estimate_critical_visibility,
    joint_feasibility_problem,
    solve_joint_feasibility,
)
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies

HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _qubit_problem(lam, gam=None, u=HAD):
    h = hamiltonian_from_energies([0.0, 1.0])
    return joint_feasibility_problem(h, h, u, lam, lam if gam is None else gam)


def test_problem_validation():
    h = hamiltonian_from_energies([0.0, 1.0])
    good = _qubit_problem(0.6)
    with pytest.raises(ValueError):
        joint_feasibility_problem(h, h, HAD, 0.0, 0.5)
    with pytest.raises(ValueError):
        joint_feasibility_problem(h, h, HAD, 0.5, 1.5)
    bad_targets = good.targets.copy()
    bad_targets[0, 0, 0, 1] += 1.0  # breaks hermiticity
    with pytest.raises(ValueError):
        FeasibilityProblem(
            a_effects=good.a_effects.copy(),
            b_effects=good.b_effects.copy(),
            targets=bad_targets,
            probe_basis=good.probe_basis.copy(),
        )


def test_sharp_visibility_is_expressible():
    # lam = gamma = 1 encodes the projective pair even though the analytic
    # construction itself stops short of that point
    prob = _qubit_problem(1.0)
    assert prob.a_effects.shape[1] == 2


def test_feasible_below_the_bound():
    lam = symmetric_critical_visibility(2) - 0.05
    res = solve_joint_feasibility(_qubit_problem(lam))
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    assert res.marginal_residual < 1e-6
    assert res.min_eigenvalue > -1e-7
    grid = res.grid
    assert np.allclose(grid, grid.conj().transpose(0, 1, 3, 2), atol=1e-10)
    # marginals of the returned grid reproduce both effect families
    assert np.max(np.abs(grid.sum(axis=1) - _qubit_problem(lam).a_effects)) < 1e-6


def test_infeasible_projective_pair():
    res = solve_joint_feasibility(_qubit_problem(1.0))
    assert res.status is FeasibilityStatus.INFEASIBLE
    assert res.gap > 0.1


def test_infeasible_above_the_bound():
    lam = symmetric_critical_visibility(2) + 0.04
    res = solve_joint_feasibility(_qubit_problem(lam))
    assert res.status is FeasibilityStatus.INFEASIBLE
    assert res.gap > 1e-3


def test_max_iterations_is_reported():
    res = solve_joint_feasibility(_qubit_problem(1.0), max_iter=50)
    assert res.status is FeasibilityStatus.MAX_ITERATIONS
    assert res.iterations >= 50


def _conflicted_problem():
    # same marginals, but diagonal statistics that no grid with those
    # marginals can have
    prob = _qubit_problem(0.6)
    bumped = prob.targets.copy()
    bumped[0, 0, 0, 0] += 0.05
    return FeasibilityProblem(
        a_effects=prob.a_effects.copy(),
        b_effects=prob.b_effects.copy(),
        targets=bumped,
        probe_basis=prob.probe_basis.copy(),
    )


def test_infeasible_without_a_grid_matching_the_pinned_statistics():
    # the sharp qubit pair stalls in the kernel
    res = solve_joint_feasibility(_qubit_problem(1.0))
    assert res.status is FeasibilityStatus.INFEASIBLE and res.gap > 0.1
    # the conflicted pin converges in gap, but its marginals fail the check
    res = solve_joint_feasibility(_conflicted_problem())
    assert res.status is FeasibilityStatus.INFEASIBLE and res.gap <= 1e-7
    assert res.marginal_residual > STALL_SCALE * 1e-7
    res = solve_joint_feasibility(_qubit_problem(0.6))
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE


def test_kernel_grid_keeps_the_pinned_diagonals():
    # exact equality is why the solver reports no diagonal-statistics mismatch
    prob = _qubit_problem(0.6)
    target = np.ascontiguousarray(np.diagonal(prob.targets, axis1=2, axis2=3).real)
    for x0, max_iter in ((prob.targets, 20000), (np.zeros_like(prob.targets), 3)):
        grid, *_ = _kernels.dykstra(
            prob.a_effects, prob.b_effects, target, x0, 1e-7, max_iter,
            STALL_WINDOW, STALL_SCALE,
        )
        assert np.array_equal(np.diagonal(grid, axis1=2, axis2=3), target)


def test_status_enum_values():
    assert FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE.value == "FeasibleZeroObjective"
    assert FeasibilityStatus.INFEASIBLE.value == "Infeasible"
    assert FeasibilityStatus.MAX_ITERATIONS.value == "MaxIterations"


def test_haar_feasibility_matches_closed_form_region(rng):
    h = hamiltonian_from_energies([0.0, 1.0, 2.0])
    lam_crit = symmetric_critical_visibility(3)
    for seed in (1, 2, 3):
        u = haar_random_unitary(3, seed)
        below = solve_joint_feasibility(
            joint_feasibility_problem(h, h, u, lam_crit - 0.03, lam_crit - 0.03)
        )
        assert below.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE


def test_estimate_critical_visibility_qubit():
    history = []
    est = estimate_critical_visibility(2, 10, resolution=2e-3, seed=4, history=history)
    assert abs(est - 1.0 / np.sqrt(2.0)) < 0.005
    assert len(history) >= 3
    assert all(isinstance(ok, (bool, np.bool_)) for _, ok in history)


@pytest.mark.parametrize("d", [2, 3])
def test_estimate_verdicts_match_the_full_solver(d):
    history = []
    estimate_critical_visibility(
        d, 3, seed=5, resolution=0.02, max_iter=1500, history=history
    )
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=3)
    unitaries = [haar_random_unitary(d, int(s)) for s in seeds]
    assert any(ok for _, ok in history) and not all(ok for _, ok in history)
    for lam, ok in history:
        statuses = [
            solve_joint_feasibility(
                joint_feasibility_problem(h, h, u, lam, lam), max_iter=1500
            ).status
            for u in unitaries
        ]
        assert ok == all(s is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE for s in statuses)


def test_estimate_stops_at_float_resolution():
    history = []
    est = estimate_critical_visibility(
        2, 1, resolution=1e-300, max_iter=200, history=history
    )
    assert 0.02 <= est < 0.98
    assert len(history) < 70


def test_estimate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_critical_visibility(1, 5)
    with pytest.raises(ValueError):
        estimate_critical_visibility(2, 0)
    with pytest.raises(ValueError):
        estimate_critical_visibility(2, 5, resolution=0.0)
    with pytest.raises(ValueError):
        estimate_critical_visibility(2, 5, tol=0.0)
    with pytest.raises(ValueError):
        estimate_critical_visibility(2, 5, max_iter=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            estimate_critical_visibility(2, 5, resolution=bad)
        with pytest.raises(ValueError):
            estimate_critical_visibility(2, 5, tol=bad)
    with pytest.raises(ValueError):
        solve_joint_feasibility(_qubit_problem(0.6), max_iter=0)
    with pytest.raises(ValueError):
        solve_joint_feasibility(_qubit_problem(0.6), tol=-1e-7)
