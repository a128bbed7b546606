import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointwork
from jointwork import cli
from jointwork.cli import EXIT_BROKEN_PIPE, main

QUBIT_SPEC = {
    "dimension": 2,
    "hamiltonian_a": {"energies": [0.0, 1.0]},
    "hamiltonian_b": {"energies": [0.0, 2.0]},
    "unitary": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    "visibility": {"lambda": 0.6, "gamma": 0.6},
    "beta": 1.0,
    "assignments": {"f": "jarzynski", "g": "naive"},
    "samples": 50000,
    "seed": 11,
}


def _write_spec(tmp_path, **overrides):
    spec = dict(QUBIT_SPEC)
    spec.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_bounds_reference_row(capsys):
    assert main(["bounds", "2", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "d,lambda_sym,lambda_opt,lambda_mub_corrected,lambda_mub_printed"
    assert lines[1] == "2,0.7071068,0.7071068,0.7071068,0.2071068"
    assert len(lines) == 4


def test_bounds_rejects_bad_range(capsys):
    assert main(["bounds", "5", "2"]) == 2
    assert main(["bounds", "2", "100"]) == 2


def test_bounds_precision_flag(capsys):
    assert main(["bounds", "2", "2", "--precision", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1] == "2,0.707,0.707,0.707,0.207"
    assert main(["bounds", "2", "2", "--precision", "0"]) == 2
    assert main(["bounds", "2", "2", "--precision", "16"]) == 2


def test_bounds_csv_file_round_trip(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "2", "3", "--output", str(out), "--format", "csv"]) == 0
    assert out.read_text().strip() == capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "argv, target",
    [
        (["bounds", "2", "3"], "missing/x.jsonl"),
        (["bounds", "2", "3", "--format", "csv"], "missing/x.csv"),
        (["verify", "--dims", "2", "--cases", "2", "--seed", "1"], "missing/x"),
        (["bounds", "2", "3", "--format", "csv"], "."),
    ],
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, monkeypatch, argv, target):
    # the target is refused before any work runs, not after it
    cases = []
    verify_case = cli._verify_case
    monkeypatch.setattr(cli, "_verify_case", lambda *a: cases.append(a) or verify_case(*a))
    assert main([*argv, "--output", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --output") and captured.err.count("\n") == 1
    assert captured.out == "" and cases == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "2", "3", "--seed", "1"],
        ["bounds", "2", "3", "--force"],
        ["verify", "--force"],
        ["feasibility", "--force"],
        ["sample", "exp.json", "--force"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_report_and_records(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "run.jsonl"
    assert main(["run", spec, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "jarzynski_exact: 0.8299966" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    by_kind = {r["record"]: r for r in records}
    assert by_kind["header"]["seed"] == 11
    assert by_kind["bound_check"]["admissible"] is True
    assert by_kind["observable_audit"]["positivity_ok"] is True
    assert by_kind["jarzynski"]["identity_residual"] < 1e-10
    assert abs(by_kind["jarzynski"]["reference"] - 0.8299966) < 1e-6


def test_run_emits_byte_identical_reports(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", spec, "--output", str(a)]) == 0
    assert main(["run", spec, "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_run_inadmissible_exits_3_unless_forced(tmp_path, capsys):
    spec = _write_spec(tmp_path, visibility={"lambda": 0.8, "gamma": 0.8})
    assert main(["run", spec]) == 3
    err = capsys.readouterr().err
    assert "positivity bound" in err
    spec2 = _write_spec(
        tmp_path,
        visibility={"lambda": 0.8, "gamma": 0.8},
        assignments={"f": "corrected", "g": "corrected"},
    )
    assert main(["run", spec2, "--force"]) == 0
    out = capsys.readouterr().out
    assert "min_effect_eigenvalue" in out


def test_run_jarzynski_domain_exits_3(tmp_path, capsys):
    spec = _write_spec(tmp_path, visibility={"lambda": 0.3, "gamma": 0.3})
    assert main(["run", spec]) == 3
    assert "visibility" in capsys.readouterr().err
    # a corrected assignment that overflows is undefined in the same way
    wide = {"energies": [0.0, 1e10]}
    for which, overrides in (
        ("f", {"hamiltonian_a": wide, "visibility": {"lambda": 1e-299, "gamma": 0.5}}),
        ("g", {"hamiltonian_b": wide, "visibility": {"lambda": 0.5, "gamma": 1e-300}}),
    ):
        spec = _write_spec(tmp_path, assignments={"f": "corrected", "g": "corrected"}, **overrides)
        assert main(["run", spec]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: requested {which} assignment undefined")
        assert "Traceback" not in err


def test_run_domain_skip_reported_for_other_assignments(tmp_path, capsys):
    spec = _write_spec(
        tmp_path,
        visibility={"lambda": 0.3, "gamma": 0.3},
        assignments={"f": "corrected", "g": "corrected"},
    )
    out = tmp_path / "r.jsonl"
    assert main(["run", spec, "--output", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    jar = next(r for r in records if r["record"] == "jarzynski")
    assert jar["skipped"] is True
    assert 0.0 < jar["min_visibility"] < 1.0


def test_input_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2')
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert main(["run", _write_spec(tmp_path, dimension=1)]) == 2
    assert main(["run", _write_spec(tmp_path, beta=-1.0)]) == 2
    assert main(["run", _write_spec(tmp_path, unitary={"matrix": [[[1, 0]]]})]) == 2
    assert (
        main(["run", _write_spec(tmp_path, unitary={"matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]})])
        == 2
    )
    assert main(["run", _write_spec(tmp_path, assignments={"f": "wild"})]) == 2
    assert main(["run", _write_spec(tmp_path), "--seed", "-3"]) == 2
    capsys.readouterr()


BAD_NUMBERS = {
    "beta_nan": {"beta": float("nan")},
    "beta_inf": {"beta": float("inf")},
    "energy_inf": {"hamiltonian_a": {"energies": [0.0, float("inf")]}},
    "energy_bool": {"hamiltonian_b": {"energies": [0.0, True]}},
    "matrix_nan": {"unitary": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]}},
    "lambda_nan": {"visibility": {"lambda": float("nan"), "gamma": 0.6}},
    "gamma_bool": {"visibility": {"lambda": 0.6, "gamma": True}},
    "dimension_bool": {"dimension": True},
    "samples_bool": {"samples": True},
    "samples_beyond_c_long": {"samples": 2**63},
    "seed_bool": {"seed": True},
    "haar_seed_bool": {"unitary": {"haar_seed": True}},
}


@pytest.mark.parametrize("command", ["run", "sample"])
@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_spec_rejects_booleans_and_non_finite_numbers(tmp_path, capsys, command, case):
    assert main([command, _write_spec(tmp_path, **BAD_NUMBERS[case])]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_with_haar_seed(tmp_path, capsys):
    spec = _write_spec(tmp_path, unitary={"haar_seed": 5})
    out = tmp_path / "r.jsonl"
    assert main(["run", spec, "--output", str(out)]) == 0
    capsys.readouterr()
    header = json.loads(out.read_text().splitlines()[0])
    assert header["haar_seed"] == 5


def test_sample_deterministic(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["sample", spec, "--samples", "20000", "--output", str(a)]) == 0
    assert main(["sample", spec, "--samples", "20000", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    cells = [r for r in records if r["record"] == "cell"]
    assert sum(c["count"] for c in cells) == 20000


def test_two_point_table_built_once_per_experiment(tmp_path, capsys, monkeypatch):
    # sample draws from the table it reports; run builds it a second time
    # only inside the fluctuation check, whose sequential side is its own
    calls = []
    build = jointwork.gtpm.gtpm_distribution

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(jointwork.gtpm, "gtpm_distribution", counted)
    monkeypatch.setattr(jointwork.cli, "gtpm_distribution", counted)
    spec = _write_spec(tmp_path)
    assert main(["sample", spec]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["run", spec]) == 0
    assert len(calls) == 2
    capsys.readouterr()


def test_sample_rejects_out_of_range_samples_flag(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    assert main(["sample", spec, "--samples", "0"]) == 2
    assert main(["sample", spec, "--samples", str(2**63)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sample_csv_triplets(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["sample", spec, "--samples", "1000", "--output", str(out), "--format", "csv"]) == 0
    capsys.readouterr()
    for line in out.read_text().splitlines():
        assert len(line.split(",")) == 3


def test_verify_small(capsys):
    assert main(["verify", "--dims", "2", "--cases", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_rejects_bad_dims(capsys):
    assert main(["verify", "--dims", "x"]) == 2
    assert main(["verify", "--dims", "1"]) == 2
    assert main(["verify", "--cases", "0"]) == 2
    capsys.readouterr()


def test_feasibility_rejects_bad_limits(capsys):
    assert main(["feasibility", "--dim", "1"]) == 2
    assert main(["feasibility", "--unitaries", "0"]) == 2
    assert main(["feasibility", "--tol", "0"]) == 2
    assert main(["feasibility", "--resolution", "0"]) == 2
    for bad in ("nan", "inf", "-inf"):
        assert main(["feasibility", f"--tol={bad}"]) == 2
        assert main(["feasibility", f"--resolution={bad}", "--max-iter", "50"]) == 2
    assert main(["feasibility", "--max-iter", "0"]) == 2
    assert main(["feasibility", "--max-iter", "-5"]) == 2
    capsys.readouterr()


def test_feasibility_command(tmp_path, capsys):
    out = tmp_path / "f.jsonl"
    rc = main(
        [
            "feasibility",
            "--dim",
            "2",
            "--unitaries",
            "5",
            "--resolution",
            "4e-3",
            "--seed",
            "2",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "estimate" in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    est = next(r for r in records if r["record"] == "estimate")
    assert abs(est["critical_visibility"] - 1.0 / np.sqrt(2.0)) < 0.01
    assert any(r["record"] == "probe" for r in records)


@pytest.mark.parametrize(
    "argv", [["bounds", "2", "64"], ["verify", "--dims", "2", "--cases", "2", "--seed", "1"]]
)
def test_closed_stdout_exits_quietly(argv):
    # the reader is gone before the first write, as when `| head -1` has
    # already taken its line
    src = str(Path(jointwork.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jointwork.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""
