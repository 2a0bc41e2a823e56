"""Generalized Bloch-sphere machinery for d-level systems.

A traceless Hermitian operator basis ``L_1 .. L_{d^2-1}`` with
``Tr(L_i L_j) = 2 delta_ij`` turns density matrices into real coordinate
vectors.  The normalization used throughout this package is

    rho(u) = I/d + sqrt((d-1)/(2d)) * sum_i u_i L_i ,

the unique scaling under which pure states have unit-norm coordinates and
the overlap of two pure states is the projection rule

    Tr(rho(a) rho(u)) = [1 + (d-1) a.u] / d .

Basis ordering is fixed and relied upon elsewhere: symmetric off-diagonal
pairs first, then antisymmetric pairs, then diagonal matrices, each block
in (j, k) row-major order.  For d=2 this is exactly (sigma_x, sigma_y,
sigma_z), so the computational state |0> has coordinates (0, 0, 1).

Randomness is counter-based: ``substream(seed, index)`` builds independent
Philox generators, so concurrent consumers draw from disjoint streams
without sharing mutable state, and results depend only on (seed, index).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "generate_basis",
    "state_to_bloch",
    "bloch_to_density",
    "expected_abs_projection",
    "substream",
    "sample_sphere",
    "sample_haar_pure",
    "haar_unitary",
]


@lru_cache(maxsize=None)
def _basis_matrices(d: int) -> np.ndarray:
    mats = []
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m * math.sqrt(2.0 / (l * (l + 1))))
    out = np.stack(mats, axis=0)
    out.setflags(write=False)
    return out


def generate_basis(d: int) -> np.ndarray:
    """Return the generalized Gell-Mann basis for dimension ``d``.

    A read-only array of shape (d**2 - 1, d, d) with
    ``Tr(basis[i] @ basis[j]) == 2 * delta_ij``.  Ordering: symmetric
    pairs, antisymmetric pairs, diagonal matrices.  Raises ValueError for
    d < 2.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return _basis_matrices(int(d))


def _bloch_scale(d: int) -> float:
    # coordinate = scale * Tr(rho L_i) inverts rho = I/d + sqrt((d-1)/(2d)) sum u_i L_i
    return math.sqrt(d / (2.0 * (d - 1)))


def state_to_bloch(psi: np.ndarray) -> np.ndarray:
    """Map a normalized pure state to its unit Bloch coordinate vector.

    Parameters
    ----------
    psi : complex array, shape (d,)
        State amplitudes with unit Euclidean norm (checked to 1e-12).

    Returns
    -------
    real array, shape (d**2 - 1,)
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = psi.shape[0]
    if d < 2:
        raise ValueError("state must live in dimension >= 2")
    nrm2 = float(np.sum(np.abs(psi) ** 2))
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: |psi|^2 = {nrm2!r}")
    mats = generate_basis(d)
    # Tr(|psi><psi| L) = <psi| L |psi>
    tr = np.einsum("i,kij,j->k", psi.conj(), mats, psi)
    return np.real(tr) * _bloch_scale(d)


def bloch_to_density(u: np.ndarray, d: int | None = None) -> np.ndarray:
    """Reconstruct the density matrix of a Bloch coordinate vector."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if d is None:
        d = int(round(math.sqrt(u.shape[0] + 1)))
    if d * d - 1 != u.shape[0]:
        raise ValueError(f"coordinate length {u.shape[0]} does not match d={d}")
    mats = generate_basis(d)
    return np.eye(d, dtype=complex) / d + math.sqrt((d - 1) / (2.0 * d)) * np.einsum(
        "k,kij->ij", u, mats
    )


def expected_abs_projection(n: int) -> float:
    """Mean absolute projection ``E|u . w|`` of a uniform unit vector.

    For ``u`` uniform on the sphere S^{n-1} and any fixed unit ``w``,
    ``E|u . w| = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))``.  Computed via
    log-gamma so large ``n`` stays finite.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n + 1) / 2.0)) / math.sqrt(math.pi)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based random stream keyed by (seed, index)."""
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_sphere(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform samples on the unit sphere S^{n-1}.

    Returns shape (n,) when ``size`` is None, else (size, n).  Isotropic
    Gaussian draws normalized to unit length; rows that collapse below
    1e-12 in norm are redrawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 1 if size is None else int(size)
    x = rng.standard_normal((m, n))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        x[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(x, axis=1)
    x /= norms[:, None]
    return x[0] if size is None else x


def sample_haar_pure(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure states: normalized complex Gaussian amplitudes.

    Returns shape (d,) when ``size`` is None, else (size, d).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    m = 1 if size is None else int(size)
    z = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    norms = np.linalg.norm(z, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        z[bad] = rng.standard_normal((int(bad.sum()), d)) + 1j * rng.standard_normal(
            (int(bad.sum()), d)
        )
        norms = np.linalg.norm(z, axis=1)
    z /= norms[:, None]
    return z[0] if size is None else z


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]
