import json

import numpy as np
import pytest

from jointwork import cli, povm
from jointwork.bloch import VisibilityPair, gamma_bound
from jointwork.cli import VERIFY_BUDGET, VERIFY_LIMITS, _verify_partition, main
from jointwork.errors import AssignmentDomainError
from jointwork.gtpm import DiagonalState, fluctuation_residual
from jointwork.operators import haar_random_unitary, hamiltonian_from_energies
from jointwork.povm import instrument_channel, inverse_instrument_channel
from jointwork.workobs import EnergyAssignment, corrected_assignment


# the names of cli._verify_inputs's arrays, in its order
DRAWS = (
    "e_a", "seed_a", "e_b", "seed_b", "seed_u", "lam", "gam", "beta", "f", "g", "x", "probs", "y"
)


def _case_draws(d, case_seed):
    # reference: one case's inputs, one generator call each, in their order
    rng = np.random.default_rng(case_seed)

    def random_levels():
        gaps = rng.random(d) + 0.05
        e = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        return e + rng.standard_normal() * 0.2

    def ginibre():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    e_a, seed_a = random_levels(), rng.integers(2**63)
    e_b, seed_b = random_levels(), rng.integers(2**63)
    seed_u, lam = rng.integers(2**63), rng.uniform(0.3, 0.95)
    gam = rng.uniform(0.2, 1.0) * min(gamma_bound(d, lam), 1.0 - 1e-9)
    beta, f, g = rng.uniform(0.3, 2.0), rng.standard_normal(d), rng.standard_normal(d)
    x = ginibre()
    values = (e_a, seed_a, e_b, seed_b, seed_u, lam, gam, beta, f, g, x, rng.random(d), ginibre())
    return dict(zip(DRAWS, values))


def _verify_case(d, case_seed):
    # reference: the same draws and invariants, one case at a time through
    # the unstacked library calls
    c = _case_draws(d, case_seed)
    lam, gam, beta = c["lam"], c["gam"], c["beta"]
    h_a = hamiltonian_from_energies(c["e_a"], haar_random_unitary(d, c["seed_a"]))
    h_b = hamiltonian_from_energies(c["e_b"], haar_random_unitary(d, c["seed_b"]))
    u = haar_random_unitary(d, c["seed_u"])
    pair = VisibilityPair(lam, gam)

    w, _, p_gibbs = cli._two_point_chain(h_a, h_b, u, pair, beta)
    out = {
        "marginal": w.marginal_deviation,
        "completeness": float(np.max(np.abs(w.effects.sum(axis=(0, 1)) - np.eye(d)))),
        "min_effect_eigenvalue": w.min_effect_eigenvalue,
    }

    f = EnergyAssignment(values=c["f"])
    g = EnergyAssignment(values=c["g"])
    lhs = np.einsum("ab,abij->ij", w.work_values(f, g), w.effects)
    rhs = np.einsum("a,aij->ij", g.values, w.b_povm.effects) - np.einsum(
        "a,aij->ij", f.values, w.instrument.effects
    )
    out["average_condition"] = float(np.max(np.abs(lhs - rhs)))

    x = c["x"]
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    fc, gc = corrected_assignment(h_a, lam), corrected_assignment(h_b, gam)
    wop = np.einsum("ab,abij->ij", w.work_values(fc, gc), w.effects)
    expect = (
        np.trace(h_b.matrix() @ u @ rho @ u.conj().T).real
        - np.trace(h_a.matrix() @ rho).real
    )
    out["corrected_work"] = abs(float(np.trace(wop @ rho).real) - expect)

    probs = c["probs"] / c["probs"].sum()
    out["fluctuation"] = fluctuation_residual(w, DiagonalState(probabilities=probs, basis=h_a))

    y = 0.5 * (c["y"] + c["y"].conj().T)
    inst = w.instrument
    out["channel_round_trip"] = float(
        np.max(np.abs(inverse_instrument_channel(inst, instrument_channel(inst, y)) - y))
    )

    try:
        weights, reference, _ = cli._jarzynski_terms(w, h_a, h_b, beta)
        out["jarzynski"] = abs(float(np.sum(p_gibbs * weights)) - reference)
    except AssignmentDomainError:
        out["jarzynski"] = None
    return out


def _case_seeds(seed, d_count, cases):
    # the case seeds cmd_verify draws, one row per dimension
    rng = np.random.default_rng(seed)
    return [[int(s) for s in rng.integers(0, 2**63, size=cases)] for _ in range(d_count)]


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("cases", [1, 24, 25, 26, 199, 200, 201])
def test_partition_covers_the_cases_in_even_blocks_within_the_budget(d, cases):
    blocks = _verify_partition(d, cases)
    assert [i for b in blocks for i in range(cases)[b]] == list(range(cases))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert all(k * d**4 <= VERIFY_BUDGET or k == 1 for k in sizes)
    # the fewest blocks: one fewer would hold a block over the budget
    if len(blocks) > 1:
        assert -(-cases // (len(blocks) - 1)) * d**4 > VERIFY_BUDGET


def test_partition_of_the_audit_cases():
    # 200 cases at d = 2..5 run in 15 blocks
    shapes = {d: [b.stop - b.start for b in _verify_partition(d, 200)] for d in (2, 3, 4, 5)}
    assert shapes == {2: [200], 3: [100] * 2, 4: [50] * 4, 5: [25] * 8}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_block_battery_matches_the_per_case_reference(d):
    seeds = [int(s) for s in np.random.default_rng(100 + d).integers(0, 2**63, size=60)]
    refs = [_verify_case(d, s) for s in seeds]
    got = {k: [] for k in (*VERIFY_LIMITS, "min_effect_eigenvalue", "jarzynski_skipped")}
    for b in _verify_partition(d, len(seeds)):
        block = cli._verify_block(d, seeds[b])
        for key, vals in block.items():
            got[key].extend(vals.tolist())
    skipped = [r["jarzynski"] is None for r in refs]
    assert got["jarzynski_skipped"] == skipped
    assert 0 < sum(skipped) < len(seeds)
    for key in (*VERIFY_LIMITS, "min_effect_eigenvalue"):
        want = [r[key] for r in refs if r[key] is not None]
        assert len(got[key]) == len(want)
        assert np.max(np.abs(np.subtract(got[key], want))) <= 1e-14, key


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_block_draws_equal_the_per_case_draws(d):
    # the block's merged generator calls and its arithmetic over the block
    # give every case's inputs bit for bit, in one block of 60 at d <= 4
    # and three of 20 at d = 5
    seeds = [int(s) for s in np.random.default_rng(200 + d).integers(0, 2**63, size=60)]
    for b in _verify_partition(d, len(seeds)):
        block = seeds[b]
        got = dict(zip(DRAWS, cli._verify_inputs(d, block)))
        refs = [_case_draws(d, s) for s in block]
        for key in DRAWS:
            want = np.array([r[key] for r in refs])
            assert got[key].shape == want.shape, key
            assert np.array_equal(got[key], want), key


# one case; then the most cases one block holds at d = 5 (25) and at d = 3
# (192), and one case more, which splits them into two blocks
EDGE_DIMS = (2, 3, 5)
BLOCK_EDGES = sorted({1} | {VERIFY_BUDGET // d**4 + j for d in (3, 5) for j in (0, 1)})


@pytest.mark.parametrize("cases", BLOCK_EDGES)
def test_verify_records_at_block_edges(tmp_path, capsys, cases):
    out = tmp_path / "v.jsonl"
    argv = ["verify", "--dims", ",".join(map(str, EDGE_DIMS)), "--cases", str(cases), "--seed", "3"]
    assert main([*argv, "--output", str(out), "--precision", "15"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict ok=true"
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == len(EDGE_DIMS) + 2
    for d, seeds, rec in zip(EDGE_DIMS, _case_seeds(3, len(EDGE_DIMS), cases), records[1:-1]):
        refs = [_verify_case(d, s) for s in seeds]
        assert (rec["d"], rec["cases"]) == (d, cases)
        assert rec["jarzynski_skipped"] == sum(r["jarzynski"] is None for r in refs)
        for key in VERIFY_LIMITS:
            want = max((r[key] for r in refs if r[key] is not None), default=0.0)
            assert abs(rec[f"max_{key}"] - want) <= 1e-14 and rec[f"ok_{key}"]
        want = min(r["min_effect_eigenvalue"] for r in refs)
        assert abs(rec["min_effect_eigenvalue"] - want) <= 1e-14


def test_verify_runs_the_library_inverse_channel(monkeypatch, capsys):
    # with the inverse channel broken, the blocks must see it
    monkeypatch.setattr(povm, "divide_coherences", lambda a_diag, x: x)
    assert main(["verify", "--dims", "3", "--cases", "4", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "ok_channel_round_trip=false" in out
    assert out.splitlines()[-1] == "verdict ok=false"


def test_verify_reports_do_not_depend_on_the_block_shape(tmp_path, monkeypatch, capsys):
    # the budget's blocks (one of 60 at d <= 4, three of 20 at d = 5) against
    # fixed blocks of 25, 25 and 10 cases: the same bytes
    argv = ["verify", "--dims", "2,3,4,5", "--cases", "60", "--seed", "3", "--precision", "15"]
    reports = []
    for partition in (_verify_partition, lambda d, cases: [
        slice(i, i + 25) for i in range(0, cases, 25)
    ]):
        monkeypatch.setattr(cli, "_verify_partition", partition)
        out = tmp_path / f"v{len(reports)}.jsonl"
        assert main([*argv, "--output", str(out)]) == 0
        reports.append((out.read_bytes(), capsys.readouterr().out))
    assert reports[0] == reports[1]
