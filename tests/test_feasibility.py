import warnings
from collections import Counter

import numpy as np
import pytest

from jointwork import _kernels, feasibility
from jointwork.bloch import kappa, symmetric_critical_visibility
from jointwork.errors import NotUnitaryError
from jointwork.feasibility import (
    STALL_SCALE,
    FeasibilityProblem,
    FeasibilityStatus,
    estimate_critical_visibility,
    joint_feasibility_problem,
    solve_joint_feasibility,
    square_root_certificate,
)
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies, require_unitary
from jointwork.povm import (
    Povm,
    check_marginals,
    divide_coherences,
    heisenberg_povm,
    noisy_effects,
    noisy_povm,
)

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
        FeasibilityProblem(a=good.a, b=good.b, targets=bad_targets)
    with pytest.raises(TypeError):
        FeasibilityProblem(a=good.a.effects, b=good.b, targets=good.targets)
    h3 = hamiltonian_from_energies([0.0, 1.0, 2.0])
    qutrit = joint_feasibility_problem(h3, h3, np.eye(3), 0.6, 0.6)
    with pytest.raises(ValueError):
        FeasibilityProblem(a=qutrit.a, b=good.b, targets=good.targets)


def test_sharp_visibility_is_expressible():
    # lam = gamma = 1 encodes the projective pair even though the analytic
    # construction itself stops short of that point
    prob = _qubit_problem(1.0)
    assert prob.a.effects.shape[1] == 2


def test_feasible_below_the_bound():
    lam = symmetric_critical_visibility(2) - 0.05
    res = solve_joint_feasibility(_qubit_problem(lam))
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    assert res.marginal_residual < 1e-6
    assert res.min_eigenvalue > -1e-7
    grid = res.grid
    assert np.allclose(grid, grid.conj().transpose(0, 1, 3, 2), atol=1e-10)
    # marginals of the returned grid reproduce both effect families
    assert np.max(np.abs(grid.sum(axis=1) - _qubit_problem(lam).a.effects)) < 1e-6


def test_infeasible_projective_pair():
    res = solve_joint_feasibility(_qubit_problem(1.0))
    assert res.status is FeasibilityStatus.INFEASIBLE
    assert res.gap > 0.1
    # stopped by a checked Farkas certificate, long before the stall window
    assert res.certified and res.iterations < 50


def test_infeasible_above_the_bound():
    lam = symmetric_critical_visibility(2) + 0.04
    res = solve_joint_feasibility(_qubit_problem(lam))
    assert res.status is FeasibilityStatus.INFEASIBLE
    assert res.gap > 1e-3


def test_max_iterations_is_reported():
    # near the boundary: certified infeasible only after about 3,600 iterations
    h = hamiltonian_from_energies([0.0, 1.0, 2.0])
    prob = joint_feasibility_problem(h, h, haar_random_unitary(3, 0), 0.65, 0.65)
    res = solve_joint_feasibility(prob, max_iter=50)
    assert res.status is FeasibilityStatus.MAX_ITERATIONS
    assert res.iterations >= 50
    assert not res.certified


def _conflicted_problem():
    # same marginals, but diagonal statistics that no grid with those
    # marginals can have
    prob = _qubit_problem(0.6)
    bumped = prob.targets.copy()
    bumped[0, 0, 0, 0] += 0.05
    return FeasibilityProblem(a=prob.a, b=prob.b, targets=bumped)


def test_infeasible_without_a_grid_matching_the_pinned_statistics():
    # the sharp qubit pair is certified in the kernel
    res = solve_joint_feasibility(_qubit_problem(1.0))
    assert res.status is FeasibilityStatus.INFEASIBLE and res.gap > 0.1
    # the conflicted pin converges in gap, but its marginals fail the check:
    # infeasible, without a certificate
    res = solve_joint_feasibility(_conflicted_problem())
    assert res.status is FeasibilityStatus.INFEASIBLE and res.gap <= 1e-7
    assert res.marginal_residual > STALL_SCALE * 1e-7
    assert not res.certified
    res = solve_joint_feasibility(_qubit_problem(0.6))
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE and res.certified
    # the conflicted pin's square-root grid is refused by its marginal check
    assert square_root_certificate(_conflicted_problem()) is None


@pytest.mark.parametrize("d", [2, 3])
def test_square_root_grid_certifies_a_feasible_problem(d):
    tol = 1e-7
    if d == 2:
        prob = _qubit_problem(0.6)
    else:
        h = hamiltonian_from_energies([0.0, 1.0, 2.0])
        lam = symmetric_critical_visibility(3) - 0.03
        prob = joint_feasibility_problem(h, h, haar_random_unitary(3, 7), lam, lam)
    res = square_root_certificate(prob, tol)
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE and res.certified
    assert res.iterations == 0 and res.gap == 0.0
    assert np.array_equal(
        np.diagonal(res.grid, axis1=2, axis2=3), np.diagonal(prob.targets, axis1=2, axis2=3)
    )
    assert res.marginal_residual == check_marginals(res.grid, prob.a, prob.b)
    assert res.marginal_residual <= STALL_SCALE * tol
    hermitian = 0.5 * (res.grid + res.grid.conj().transpose(0, 1, 3, 2))
    assert np.linalg.eigvalsh(hermitian).min() == res.min_eigenvalue > 0.0
    # the solver returns it without running the projections
    solved = solve_joint_feasibility(prob, tol)
    assert solved.iterations == 0 and np.array_equal(solved.grid, res.grid)


def test_square_root_grid_is_refused_at_the_sharp_pair_and_outside_the_bound():
    with warnings.catch_warnings():
        # kappa_ij = 0 at lam = 1 is caught before it divides anything
        warnings.simplefilter("error", RuntimeWarning)
        assert square_root_certificate(_qubit_problem(1.0)) is None
    # criterion 4's pair: lam = gamma = 0.75 around the Hadamard
    prob = _qubit_problem(0.75)
    assert square_root_certificate(prob) is None
    res = solve_joint_feasibility(prob)
    assert res.status is FeasibilityStatus.INFEASIBLE and res.certified
    assert res.iterations > 0
    # a sharp second measurement around U = 1 gives diagonal blocks with a
    # zero eigenvalue, which does not clear the error bound: PSD, but left
    # to the projections
    singular = _qubit_problem(0.6, 1.0, np.eye(2, dtype=complex))
    assert square_root_certificate(singular) is None
    res = solve_joint_feasibility(singular)
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    assert res.iterations > 0


def test_square_root_grid_needs_a_nonnegative_diagonal_first_measurement():
    # a feasible qubit problem and its square-root grid, turned by the
    # Hadamard: the turned grid is feasible for the turned problem, but A_a
    # is no longer diagonal, so only the projections can decide it
    prob = _qubit_problem(0.6)
    turned = FeasibilityProblem(
        a=Povm(effects=HAD @ prob.a.effects @ HAD),
        b=Povm(effects=HAD @ prob.b.effects @ HAD),
        targets=HAD @ square_root_certificate(prob).grid @ HAD,
    )
    assert square_root_certificate(turned) is None
    res = solve_joint_feasibility(turned)
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    assert res.iterations > 0
    # a diagonal entry below zero, within the POVM check's floor, has no
    # real square root
    effects = np.array([np.diag([1.0, -1e-12]), np.diag([0.0, 1.0 + 1e-12])], dtype=complex)
    negative = FeasibilityProblem(a=Povm(effects=effects), b=prob.b, targets=prob.targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert square_root_certificate(negative) is None


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _busch(u, lam, gam):
    # |a + b| + |a - b| for the Bloch vectors of the two unbiased binary
    # observables: a = lam z for the first, b = gam n for U^dag B U
    n = np.einsum("kij,jl,lm,mi->k", PAULI, u.conj().T, PAULI[2], u).real / 2.0
    a, b = lam * np.array([0.0, 0.0, 1.0]), gam * n
    return np.linalg.norm(a + b) + np.linalg.norm(a - b)


def _busch_draws():
    # 120 qubit pairs: (Busch criterion, problem)
    rng = np.random.default_rng(2024)
    for _ in range(120):
        u = haar_random_unitary(2, int(rng.integers(0, 2**63 - 1)))
        lam, gam = rng.uniform(0.3, 1.0, size=2)
        yield _busch(u, lam, gam), _qubit_problem(lam, gam, u)


def test_qubit_verdicts_agree_with_busch_criterion():
    # at d = 2 the pinned problem is feasible exactly when the pair is
    # jointly measurable, |a + b| + |a - b| <= 2 (Busch, PRD 33, 2253, 1986)
    seen = Counter()
    for criterion, prob in _busch_draws():
        res = solve_joint_feasibility(prob, max_iter=1500)
        if criterion <= 2.0:
            seen["compatible"] += 1
            assert not (res.status is FeasibilityStatus.INFEASIBLE and res.certified)
        elif criterion >= 2.05:
            seen["incompatible"] += 1
            assert res.status is FeasibilityStatus.INFEASIBLE and res.certified
    assert seen["compatible"] >= 20 and seen["incompatible"] >= 20


def test_qubit_square_root_verdicts_agree_with_busch_and_the_kernel():
    # at d = 2 the pinned problem is feasible exactly when the square-root
    # grid is PSD; the projections, run on their own, reach the same verdict
    seen = Counter()
    for criterion, prob in _busch_draws():
        psd_grid = square_root_certificate(prob) is not None
        if criterion <= 2.0:
            assert psd_grid
        elif criterion >= 2.05:
            assert not psd_grid
        *_, code = _kernels.dykstra(prob.a.effects, prob.b.effects, prob.targets, 1e-7, 1500)
        assert code == (0 if psd_grid else 3)
        seen[psd_grid] += 1
    assert seen[True] >= 20 and seen[False] >= 20


def test_kernel_grid_keeps_the_pinned_diagonals():
    # exact equality is why the solver reports no diagonal-statistics mismatch
    prob = _qubit_problem(0.6)
    target = np.diagonal(prob.targets, axis1=2, axis2=3).real
    for max_iter in (20000, 3):
        grid, *_ = _kernels.dykstra(prob.a.effects, prob.b.effects, prob.targets, 1e-7, max_iter)
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


@pytest.mark.parametrize("d", [2, 3])
def test_rotated_first_hamiltonian_is_posed_in_its_eigenbasis(d):
    energies = np.arange(d, dtype=np.float64)
    v = haar_random_unitary(d, 11)
    h_rot = hamiltonian_from_energies(energies, v)
    h_diag = hamiltonian_from_energies(energies)
    h_b = hamiltonian_from_energies(energies, haar_random_unitary(d, 12))
    u = haar_random_unitary(d, 13)
    lam = symmetric_critical_visibility(d) - 0.03
    rot = joint_feasibility_problem(h_rot, h_b, u, lam, lam)
    diag = joint_feasibility_problem(h_diag, h_b, u @ v, lam, lam)
    assert np.array_equal(rot.a.effects, diag.a.effects)
    assert np.array_equal(rot.b.effects, diag.b.effects)
    assert np.array_equal(rot.targets, diag.targets)
    res = solve_joint_feasibility(rot)
    assert res.status is FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE
    # the sharp pair: the first Hamiltonian's levels against the levels
    # rotated by V H V^dag, mutually unbiased in any frame
    if d == 2:
        sharp = joint_feasibility_problem(h_rot, h_rot, v @ HAD @ v.conj().T, 1.0, 1.0)
        res = solve_joint_feasibility(sharp)
        assert res.status is FeasibilityStatus.INFEASIBLE and res.gap > 0.1


def _stack_and_singles(d, lam, n_unitaries=6, seed=3):
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    us = np.stack([haar_random_unitary(d, seed + k) for k in range(n_unitaries)])
    stack = joint_feasibility_problem(h, h, us, lam, lam)
    singles = [joint_feasibility_problem(h, h, u, lam, lam) for u in us]
    return us, stack, singles


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("lam", [0.5, 0.64, 1.0])
def test_stacked_pose_is_bitwise_the_per_unitary_problems(d, lam, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        us, stack, singles = _stack_and_singles(d, lam)
        b, targets = stack.b.effects, stack.targets
        assert b.shape[0] == targets.shape[0] == len(us)
        assert not (b.flags.writeable or targets.flags.writeable)
        checked = feasibility._square_root_check(stack, 1e-7)
        h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
        roots = noisy_effects(h, lam).sqrt_effects
        for k, prob in enumerate(singles):
            assert np.array_equal(stack.a.effects, prob.a.effects)
            assert np.array_equal(b[k], prob.b.effects)
            assert np.array_equal(targets[k], prob.targets)
            # the per-unitary formulas, one matrix at a time
            b_heis = heisenberg_povm(noisy_povm(h, lam), us[k]).effects
            assert np.array_equal(b[k], b_heis)
            assert np.array_equal(
                targets[k], np.einsum("aij,bjk,akl->abil", roots, b_heis, roots)
            )
            if checked is not None:
                # the grid the certificate divides out of the problem's targets
                diag = np.diagonal(prob.a.effects, axis1=1, axis2=2).real
                assert np.array_equal(checked[0][k], divide_coherences(diag, prob.targets))
        if lam < 1.0:
            assert checked is not None
            return
        # the sharp limit has no square-root grid, so its solves reach the
        # kernel, still without a warning
        assert checked is None
        calls = []
        kernel = _kernels.dykstra
        monkeypatch.setattr(_kernels, "dykstra", lambda *args: calls.append(1) or kernel(*args))
        res = solve_joint_feasibility(singles[0], max_iter=200)
    assert calls == [1] and res.iterations > 0
    assert res.status is not FeasibilityStatus.FEASIBLE_ZERO_OBJECTIVE


def test_stacked_pose_checks_the_whole_stack():
    h = hamiltonian_from_energies([0.0, 1.0, 2.0])
    us = np.stack([haar_random_unitary(3, k) for k in range(4)])

    def pose(u):
        return joint_feasibility_problem(h, h, u, 0.6, 0.6)

    bad = us.copy()
    bad[2] *= 1.001
    with pytest.raises(NotUnitaryError):
        pose(bad)
    with pytest.raises(ValueError):
        pose(us[None])  # a stack of stacks
    with pytest.raises(ValueError):
        pose(np.stack([haar_random_unitary(2, k) for k in range(4)]))
    nonfinite = us.copy()
    nonfinite[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        pose(nonfinite)
    # an empty stack is refused by its shape, not by a reduction over nothing
    empty = r"got shape \(0, 3, 3\)"
    with pytest.raises(ValueError, match=empty):
        pose(us[:0])
    with pytest.raises(ValueError, match=empty):
        require_unitary(us[:0], stacked=True)
    with pytest.raises(ValueError, match=empty):
        hamiltonian_from_energies(np.zeros((0, 3)), us[:0])


def test_stacked_problem_is_refused_where_one_problem_is_meant():
    _, stack, singles = _stack_and_singles(3, 0.6, n_unitaries=4)
    shape = r"\(4, 3, 3, 3, 3\)"
    with pytest.raises(ValueError, match=shape):
        square_root_certificate(stack)
    with pytest.raises(ValueError, match=shape):
        solve_joint_feasibility(stack)
    # the problems of a stack share one first measurement
    a = Povm(effects=np.stack([singles[0].a.effects] * 4))
    with pytest.raises(ValueError, match=r"\(4, 3, 3, 3\)"):
        FeasibilityProblem(a=a, b=stack.b, targets=stack.targets)
    # a stack of second measurements takes a stack of targets
    with pytest.raises(ValueError):
        FeasibilityProblem(a=stack.a, b=stack.b, targets=singles[0].targets)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_square_root_check_matches_the_certificate(d):
    seen = Counter()
    crit = symmetric_critical_visibility(d)
    for lam in (crit - 0.05, crit + 0.005, crit + 0.02, crit + 0.1):
        _, stack, singles = _stack_and_singles(d, lam, n_unitaries=10)
        grid, least, residual, passed = feasibility._square_root_check(stack, 1e-7)
        assert least.shape == residual.shape == passed.shape == (10,)
        for k, prob in enumerate(singles):
            diag = np.diagonal(prob.a.effects, axis1=1, axis2=2).real
            one_grid = divide_coherences(diag, prob.targets)
            assert np.array_equal(one_grid, grid[k])
            one = feasibility._square_root_check(prob, 1e-7)
            assert np.array_equal(one[0], one_grid)
            assert one[1:] == (least[k], residual[k], passed[k])
            cert = square_root_certificate(prob)
            assert (cert is not None) == passed[k]
            if cert is not None:
                assert cert.min_eigenvalue == least[k]
                assert cert.marginal_residual == residual[k]
                assert np.array_equal(cert.grid, grid[k])
            seen[bool(passed[k])] += 1
    assert seen[True] >= 5 and seen[False] >= 5


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


# estimate, probe history and solves per probe of
# estimate_critical_visibility(d, 20, seed=seed, max_iter=1500), the solves
# counted with the unitaries tried in index order
PINNED_ESTIMATES = {
    (2, 1): (
        0.711875,
        [(0.02, True), (0.98, False), (0.5, True), (0.74, False), (0.62, True),
         (0.6799999999999999, True), (0.71, True), (0.725, False), (0.7175, False),
         (0.71375, False), (0.711875, True), (0.7128125000000001, False)],
        [20, 1, 20, 1, 20, 20, 20, 4, 4, 4, 20, 4],
    ),
    (2, 2): (
        0.7062499999999999,
        [(0.02, True), (0.98, False), (0.5, True), (0.74, False), (0.62, True),
         (0.6799999999999999, True), (0.71, False), (0.695, True),
         (0.7024999999999999, True), (0.7062499999999999, True),
         (0.7081249999999999, False), (0.7071874999999999, False)],
        [20, 1, 20, 1, 20, 20, 6, 20, 20, 20, 6, 6],
    ),
    (3, 1): (
        0.6387499999999999,
        [(0.02, True), (0.98, False), (0.5, True), (0.74, False), (0.62, True),
         (0.6799999999999999, False), (0.6499999999999999, False), (0.635, True),
         (0.6425, False), (0.6387499999999999, True), (0.640625, False),
         (0.6396875, False)],
        [20, 1, 20, 1, 20, 1, 4, 20, 5, 20, 5, 5],
    ),
}


def _least_grid_eigenvalue(prob, d, lam):
    # the square-root grid written out: targets with each off-diagonal
    # entry divided by kappa(d, lam)
    off = ~np.eye(d, dtype=bool)
    grid = prob.targets.copy()
    grid[:, :, off] /= kappa(d, lam)
    return np.linalg.eigvalsh(0.5 * (grid + grid.conj().transpose(0, 1, 3, 2))).min()


@pytest.mark.parametrize("d, seed", sorted(PINNED_ESTIMATES))
def test_estimate_is_pinned_and_solves_failed_grids_most_negative_first(d, seed, monkeypatch):
    estimate, pinned_history, index_order_solves = PINNED_ESTIMATES[(d, seed)]
    history = []
    solves, kernel_calls, first_kernel_b = Counter(), Counter(), {}
    solve, kernel = feasibility.solve_joint_feasibility, _kernels.dykstra

    def counted_solve(*args):
        solves[len(history)] += 1
        return solve(*args)

    def counted_kernel(a_eff, b_eff, *args):
        kernel_calls[len(history)] += 1
        first_kernel_b.setdefault(len(history), b_eff)
        return kernel(a_eff, b_eff, *args)

    monkeypatch.setattr(feasibility, "solve_joint_feasibility", counted_solve)
    monkeypatch.setattr(_kernels, "dykstra", counted_kernel)
    assert estimate_critical_visibility(
        d, 20, seed=seed, max_iter=1500, history=history
    ) == estimate
    assert history == pinned_history
    per_probe = [solves[i] for i in range(len(history))]
    assert sum(solves.values()) == sum(per_probe)
    assert all(a <= b for a, b in zip(per_probe, index_order_solves))
    assert sum(per_probe) < sum(index_order_solves)
    # a probe whose square-root grids all pass runs no solve; a failing one
    # runs the projections once, on the unitary that fails it
    assert all(per_probe[i] == 0 for i, (_, ok) in enumerate(history) if ok)
    assert [kernel_calls[i] for i in range(len(history))] == [
        0 if ok else 1 for _, ok in history
    ]
    # and that unitary is the one whose grid has the most negative least
    # eigenvalue
    h = hamiltonian_from_energies(np.arange(d, dtype=np.float64))
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=20)
    unitaries = [haar_random_unitary(d, int(s)) for s in seeds]
    for i, (lam, ok) in enumerate(history):
        if ok:
            continue
        problems = [joint_feasibility_problem(h, h, u, lam, lam) for u in unitaries]
        worst = min(problems, key=lambda p: _least_grid_eigenvalue(p, d, lam))
        assert _least_grid_eigenvalue(worst, d, lam) < 0.0
        assert np.array_equal(first_kernel_b[i], worst.b.effects)


def test_estimate_poses_each_probe_once_with_the_public_function(monkeypatch):
    calls = []
    pose = feasibility.joint_feasibility_problem

    def counted_pose(h_a, h_b, u, lam, gamma):
        calls.append(np.shape(u))
        return pose(h_a, h_b, u, lam, gamma)

    monkeypatch.setattr(feasibility, "joint_feasibility_problem", counted_pose)
    history = []
    estimate_critical_visibility(3, 7, seed=2, resolution=0.01, max_iter=1500, history=history)
    # one stacked pose of all the unitaries per probe
    assert calls == [(7, 3, 3)] * len(history)


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
