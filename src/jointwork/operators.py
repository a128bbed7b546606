"""Hermitian linear-algebra primitives shared by the measurement modules.

Everything here works on dense complex128 arrays. Hamiltonians are kept in
spectral form (energies, rank-1 projectors, eigenbasis) because downstream
code constantly needs the eigenbasis to build effects and to undo the
measurement channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    NotHermitianError,
    NotPsdError,
    NotUnitaryError,
)

HERMITICITY_TOL = 1e-12
PSD_FLOOR = -1e-10
EIGENVALUE_GAP_TOL = 1e-9
UNITARITY_TOL = 1e-10


def as_square_array(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def require_hermitian(m, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    a = as_square_array(m)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > tol:
        raise NotHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    # symmetrize so eigh sees an exactly Hermitian input
    return 0.5 * (a + a.conj().T)


def require_unitary(m, tol: float = UNITARITY_TOL, name: str = "matrix") -> np.ndarray:
    a = as_square_array(m)
    dev = np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0])))
    if dev > tol:
        raise NotUnitaryError(f"{name} fails unitarity by {dev:.3e} (tol {tol:.1e})")
    return a


def logsumexp(x) -> float:
    """log(sum(exp(x))) of a finite real vector, by scipy.special.logsumexp's
    algorithm: shift by the maximum, leave the maxima out of the exponential
    sum s, count them as m, and return log1p(s/m) + log(m) + max.
    """
    a = np.asarray(x, dtype=np.float64)
    top = np.max(a)
    at_top = a == top
    m = float(np.count_nonzero(at_top))
    s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top))
    return float(np.log1p(s / m) + np.log(m) + top)


def matrix_sqrt_psd(m, floor: float = PSD_FLOOR) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in [floor, 0) are clamped to zero; anything below floor
    raises NotPsdError.
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    if w[0] < floor:
        raise NotPsdError(f"matrix has eigenvalue {w[0]:.3e} below floor {floor:.1e}")
    w = np.sqrt(np.clip(w, 0.0, None))
    root = (v * w) @ v.conj().T
    return 0.5 * (root + root.conj().T)


@dataclass(frozen=True)
class SpectralHamiltonian:
    """Non-degenerate Hamiltonian in spectral form.

    energies are strictly ascending; basis columns are the matching
    orthonormal eigenvectors; projectors[k] = |v_k><v_k|.
    """

    energies: np.ndarray
    basis: np.ndarray
    projectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def matrix(self) -> np.ndarray:
        return (self.basis * self.energies) @ self.basis.conj().T

    def __post_init__(self):
        d = self.energies.shape[0]
        if self.energies.ndim != 1 or d < 1:
            raise ValueError("need at least one energy level")
        if self.basis.shape != (d, d) or self.projectors.shape != (d, d, d):
            raise ValueError("basis/projector shapes inconsistent with level count")
        gaps = np.diff(self.energies)
        if gaps.size and np.min(gaps) <= EIGENVALUE_GAP_TOL:
            raise DegenerateSpectrumError(
                f"smallest level spacing {np.min(gaps):.3e} <= {EIGENVALUE_GAP_TOL:.1e}"
            )
        for arr in (self.energies, self.basis, self.projectors):
            arr.setflags(write=False)


def hamiltonian_from_energies(energies, basis=None) -> SpectralHamiltonian:
    """Build a SpectralHamiltonian from levels and an optional eigenbasis.

    With basis omitted the computational basis is used. Energies must be
    strictly ascending.
    """
    e = np.asarray(energies, dtype=np.float64).ravel()
    d = e.shape[0]
    if d > 1 and np.any(np.diff(e) < 0.0):
        raise ValueError("energies must be strictly ascending")
    if basis is None:
        v = np.eye(d, dtype=np.complex128)
    else:
        v = require_unitary(basis, name="eigenbasis")
        if v.shape[0] != d:
            raise ValueError(f"basis dimension {v.shape[0]} does not match {d} energies")
    proj = np.einsum("ik,jk->kij", v, v.conj())
    return SpectralHamiltonian(energies=e, basis=v, projectors=proj)


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The QR phases are fixed so the triangular factor has a positive
    diagonal, which makes the distribution exactly Haar and the output a
    deterministic function of the seed.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph
