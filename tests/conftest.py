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


def sequential_product_minimum(dm, d, seed=0):
    """Minimum of <a x b| dm |a x b> over product states, by alternating
    eigenvector descent (the see-saw).

    Nine starts, one after another: the two-level Hadamard (a, b) =
    ((1, 1, 0, ...), (1, -1, 0, ...))/sqrt(2), then 8 random pairs from
    default_rng(seed). Each step sets a to the lowest eigenvector of
    <b| dm |b>, then b to that of <a| dm |a>; a start stops once a step
    moves its expectation by at most 1e-14, or after 500 steps.
    """
    t = dm.reshape(d, d, d, d)

    def expectation(a, b):
        return np.einsum("i,k,ikjl,j,l->", a.conj(), b.conj(), t, a, b).real

    rng = np.random.default_rng(seed)
    a0 = np.zeros(d, dtype=np.complex128)
    b0 = np.zeros(d, dtype=np.complex128)
    a0[0] = a0[1] = 1.0 / np.sqrt(2.0)
    b0[0] = 1.0 / np.sqrt(2.0)
    b0[1] = -1.0 / np.sqrt(2.0)
    starts = [(a0, b0)]
    for _ in range(8):
        ra = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rb = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append((ra / np.linalg.norm(ra), rb / np.linalg.norm(rb)))
    best = np.inf
    for a, b in starts:
        val = expectation(a, b)
        for _ in range(500):
            ma = np.einsum("k,ikjl,l->ij", b.conj(), t, b)
            a = np.linalg.eigh(0.5 * (ma + ma.conj().T))[1][:, 0]
            mb = np.einsum("i,ikjl,j->kl", a.conj(), t, a)
            b = np.linalg.eigh(0.5 * (mb + mb.conj().T))[1][:, 0]
            new = expectation(a, b)
            if abs(val - new) <= 1e-14:
                val = new
                break
            val = new
        best = min(best, val)
    return float(best)


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
