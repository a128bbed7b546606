import numpy as np
import pytest

from jointwork.operators import hamiltonian_from_energies, haar_random_unitary

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The np.linalg.eigvalsh calls made while a test runs, one entry each."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(1)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def rotated_spectrum(values, seed):
    """U diag(values) U^dag for a Haar unitary U drawn from seed."""
    u = haar_random_unitary(len(values), seed)
    return (u * np.asarray(values)) @ u.conj().T


def random_hamiltonian(d, rng, rotated=True):
    gaps = rng.random(d) + 0.1
    energies = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    basis = haar_random_unitary(d, int(rng.integers(2**63))) if rotated else None
    return hamiltonian_from_energies(energies, basis)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
