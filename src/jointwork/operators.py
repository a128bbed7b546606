"""Hermitian linear-algebra primitives shared by the measurement modules.

Everything here works on dense complex128 arrays. Hamiltonians are kept in
spectral form (energies, rank-1 projectors, eigenbasis) because downstream
code constantly needs the eigenbasis to build effects and to undo the
measurement channel.

A stack of cases rides on one leading axis: a Hamiltonian with energies
(k, d) holds k Hamiltonians, and the functions that take one pass it on
through the measurement, state and assignment constructors, with every check
run once over the whole stack. Without the leading axis each function
works on one case, as it always has.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NotHermitianError, NotUnitaryError

HERMITICITY_TOL = 1e-12
EIGENVALUE_GAP_TOL = 1e-9
UNITARITY_TOL = 1e-10


def as_square_array(m, stacked: bool = False) -> np.ndarray:
    """m as a finite complex128 square matrix, or with stacked=True as a
    stack (k, d, d) of them; an empty one is refused."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2] or not a.size:
        kind = "a stack of square matrices" if stacked else "a square matrix"
        raise ValueError(f"expected {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    a = as_square_array(m)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > HERMITICITY_TOL:
        raise NotHermitianError(
            f"{name} deviates from Hermiticity by {dev:.3e} (tol {HERMITICITY_TOL:.1e})"
        )
    # symmetrize so eigh sees an exactly Hermitian input
    return 0.5 * (a + a.conj().T)


def require_unitary(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """m as a unitary matrix; with stacked=True a stack (k, d, d) of them,
    every one held to the same tolerance by one check."""
    a = as_square_array(m, stacked)
    dev = np.max(np.abs(a @ a.conj().swapaxes(-1, -2) - np.eye(a.shape[-1])))
    if dev > UNITARITY_TOL:
        raise NotUnitaryError(f"{name} fails unitarity by {dev:.3e} (tol {UNITARITY_TOL:.1e})")
    return a


def per_case(x):
    """A value reduced over each case: the Python scalar for one case, the
    array (k,) for a stack."""
    return x if isinstance(x, np.ndarray) and x.ndim else x.item()


def case_axes(x, n: int):
    """A per-case parameter (k,) with n trailing axes, to broadcast against
    arrays with n axes per case; a scalar as it is."""
    return x.reshape(x.shape + (1,) * n) if isinstance(x, np.ndarray) else x


def every(ok) -> bool:
    """Whether a per-case test holds in every case: ok is one bool, or an
    array of them for a stack."""
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def _require_finite(m: np.ndarray, name: str) -> None:
    """ValueError naming the non-finite entries of m, if it has any."""
    if not np.isfinite(m).all():
        bad = np.argwhere(~np.isfinite(m))
        first = tuple(bad[0].tolist())
        raise ValueError(f"{name} hold {len(bad)} non-finite entries, the first at index {first}")


def _psd_floor_breach(m: np.ndarray, floor: float):
    """None when the Hermitian part H of every matrix in the finite stack m
    (..., d, d) has H >= floor * 1, else the least eigenvalue over them.
    The test is a Cholesky factorization of 2(H - floor * 1), which succeeds
    iff that matrix is positive definite, up to about d*eps*|H|. Only when
    it fails does eigvalsh run, to decide and to give the eigenvalue."""
    two_h = m + m.conj().swapaxes(-1, -2)
    two_h -= 2.0 * floor * np.eye(m.shape[-1])
    try:
        np.linalg.cholesky(two_h)
    except np.linalg.LinAlgError:
        worst = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))))
        return worst if worst < floor else None
    return None


def take_cases(obj, idx):
    """The cases idx of a stack: arrays indexed on their leading (case)
    axis, read-only where the source is; tuples and dataclasses field by
    field; anything else as it is. A dataclass is copied with its fields
    replaced, not rebuilt: every constructor check holds case by case, so
    the cases of a checked stack need no second check."""
    if isinstance(obj, np.ndarray):
        out = obj[idx]
        if not obj.flags.writeable:
            out.setflags(write=False)
        return out
    if isinstance(obj, tuple):
        return tuple(take_cases(x, idx) for x in obj)
    if dataclasses.is_dataclass(obj):
        out = copy.copy(obj)
        for f in dataclasses.fields(obj):
            object.__setattr__(out, f.name, take_cases(getattr(obj, f.name), idx))
        return out
    return obj


def logsumexp(x):
    """log(sum(exp(x))) over the last axis of a finite real array, by
    scipy.special.logsumexp's algorithm: shift by the maximum, leave the
    maxima out of the exponential sum s, count them as m, and return
    log1p(s/m) + log(m) + max. A float for a vector, (k,) for (k, d).
    """
    a = np.asarray(x, dtype=np.float64)
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    m = at_top.sum(axis=-1, dtype=np.float64)
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=-1)
    return per_case(np.log1p(s / m) + np.log(m) + top[..., 0])


@dataclass(frozen=True)
class SpectralHamiltonian:
    """Non-degenerate Hamiltonian in spectral form.

    energies are strictly ascending; basis columns are the matching
    orthonormal eigenvectors; projectors[k] = |v_k><v_k|. With energies
    (k, d), basis (k, d, d) and projectors (k, d, d, d) it holds a stack of
    k Hamiltonians.
    """

    energies: np.ndarray
    basis: np.ndarray
    projectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.energies.ndim == 2

    def matrix(self) -> np.ndarray:
        return (self.basis * self.energies[..., None, :]) @ self.basis.conj().swapaxes(-1, -2)

    def __post_init__(self):
        if self.energies.ndim not in (1, 2) or self.energies.shape[-1] < 1:
            raise ValueError("need at least one energy level")
        cases, d = self.energies.shape[:-1], self.energies.shape[-1]
        if self.basis.shape != (*cases, d, d) or self.projectors.shape != (*cases, d, d, d):
            raise ValueError("basis/projector shapes inconsistent with level count")
        gaps = np.diff(self.energies, axis=-1)
        if gaps.size and np.min(gaps) <= EIGENVALUE_GAP_TOL:
            raise DegenerateSpectrumError(
                f"smallest level spacing {np.min(gaps):.3e} <= {EIGENVALUE_GAP_TOL:.1e}"
            )
        for arr in (self.energies, self.basis, self.projectors):
            arr.setflags(write=False)


def hamiltonian_from_energies(energies, basis=None) -> SpectralHamiltonian:
    """Build a SpectralHamiltonian from levels and an optional eigenbasis.

    With basis omitted the computational basis is used. Energies must be
    strictly ascending, and no two may differ by more than the float range.
    Energies (k, d) with a basis (k, d, d) build a stack of k Hamiltonians;
    any other shape of energies is flattened into one list of levels.
    """
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 2:
        e = e.ravel()
    cases, d = e.shape[:-1], e.shape[-1]
    if d > 1:
        # a difference of finite energies can overflow; for ascending levels
        # the largest one is the spread
        with np.errstate(over="ignore"):
            if np.any(np.diff(e, axis=-1) < 0.0):
                raise ValueError("energies must be strictly ascending")
            if not np.isfinite(e[..., -1] - e[..., 0]).all():
                raise ValueError("energy level differences overflow the float range")
    if basis is None:
        v = np.eye(d, dtype=np.complex128)
        if cases:
            v = np.broadcast_to(v, (*cases, d, d))
    else:
        v = require_unitary(basis, name="eigenbasis", stacked=bool(cases))
        if v.shape[:-1] != (*cases, d):
            raise ValueError(f"basis dimension {v.shape[-1]} does not match {d} energies")
    proj = np.einsum("...ik,...jk->...kij", v, v.conj())
    return SpectralHamiltonian(energies=e, basis=v, projectors=proj)


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The QR phases are fixed so the triangular factor has a positive
    diagonal, which makes the distribution exactly Haar and the output a
    deterministic function of the seed. An array of k seeds gives the stack
    (k, dim, dim): each matrix drawn from its own seed's stream, the QR run
    once over the stack.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")

    stacked = isinstance(seed, np.ndarray) and seed.ndim == 1
    seeds = seed if stacked else [seed]
    # one draw per seed fills the real parts, then the imaginary parts: the
    # values of two (dim, dim) draws in turn
    g = np.empty((len(seeds), 2, dim, dim))
    for gi, s in zip(g, seeds):
        np.random.default_rng(s).standard_normal(out=gi)
    z = g[:, 0] + 1j * g[:, 1]
    q, r = np.linalg.qr((z if stacked else z[0]) / np.sqrt(2.0))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]
