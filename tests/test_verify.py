import json

import numpy as np
import pytest

from jointwork import cli, povm
from jointwork.bloch import VisibilityPair, gamma_bound
from jointwork.cli import VERIFY_BLOCK, VERIFY_LIMITS, main
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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_block_battery_matches_the_per_case_reference(d):
    seeds = [int(s) for s in np.random.default_rng(100 + d).integers(0, 2**63, size=60)]
    refs = [_verify_case(d, s) for s in seeds]
    got = {k: [] for k in (*VERIFY_LIMITS, "min_effect_eigenvalue", "jarzynski_skipped")}
    for i in range(0, len(seeds), VERIFY_BLOCK):
        block = cli._verify_block(d, seeds[i:i + VERIFY_BLOCK])
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
    # give every case's inputs bit for bit; 60 cases end on a short block
    seeds = [int(s) for s in np.random.default_rng(200 + d).integers(0, 2**63, size=60)]
    for i in range(0, len(seeds), VERIFY_BLOCK):
        block = seeds[i:i + VERIFY_BLOCK]
        got = dict(zip(DRAWS, cli._verify_inputs(d, block)))
        refs = [_case_draws(d, s) for s in block]
        for key in DRAWS:
            want = np.array([r[key] for r in refs])
            assert got[key].shape == want.shape, key
            assert np.array_equal(got[key], want), key


@pytest.mark.parametrize("cases", [1, VERIFY_BLOCK, VERIFY_BLOCK + 1])
def test_verify_records_at_block_edges(tmp_path, capsys, cases):
    # one case, one full block, and a full block plus a one-case block
    out = tmp_path / "v.jsonl"
    argv = ["verify", "--dims", "2,5", "--cases", str(cases), "--seed", "3"]
    assert main([*argv, "--output", str(out), "--precision", "15"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict ok=true"
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for d, seeds, rec in zip((2, 5), _case_seeds(3, 2, cases), records[1:3]):
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
