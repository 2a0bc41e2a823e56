"""Generalized Bloch-sphere machinery for d-level systems.

A traceless Hermitian operator basis ``L_1 .. L_{d^2-1}`` with
``Tr(L_i L_j) = 2 delta_ij`` turns density matrices into real coordinate
vectors.  The normalization used throughout this package is

    rho(u) = I/d + sqrt((d-1)/(2d)) * sum_i u_i L_i ,

the unique scaling under which pure states have unit-norm coordinates and
the overlap of two pure states is the projection rule

    Tr(rho(a) rho(u)) = [1 + (d-1) a.u] / d .

The basis is the generalized Gell-Mann set.  For each pair j < k the
symmetric ``|j><k| + |k><j|`` and antisymmetric ``-i|j><k| + i|k><j|``,
and for l = 1..d-1 the diagonal
``sqrt(2/(l(l+1))) (sum_{a<l} |a><a| - l |l><l|)``.  Its ordering is fixed
and relied upon elsewhere: symmetric pairs first, then antisymmetric
pairs, then diagonals.  Both pair blocks run over the pairs in the order
of ``np.tril_indices(d, -1)``, by the larger index k first, then j:
(k, j) = (1, 0), (2, 0), (2, 1), (3, 0), ...  For d=2 this is exactly
(sigma_x, sigma_y, sigma_z), so the computational state |0> has
coordinates (0, 0, 1).  No basis matrix is ever built: `state_to_bloch`
and `bloch_to_density` apply these entries as index formulas, O(d^2) per
state.

Randomness is counter-based: ``substream(seed, index)`` builds independent
Philox generators, so concurrent consumers draw from disjoint streams
without sharing mutable state, and results depend only on (seed, index).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "state_to_bloch",
    "bloch_to_density",
    "expected_abs_projection",
    "substream",
    "sample_sphere",
    "sample_haar_pure",
    "haar_unitary",
]


def state_to_bloch(psi: np.ndarray) -> np.ndarray:
    """Map normalized pure states to their unit Bloch coordinate vectors.

    Each coordinate is ``sqrt(d/(2(d-1))) <psi| L_i |psi>``, written out
    per block (Bertlmann & Krammer, J. Phys. A 41, 235303 (2008)): with
    ``z = conj(psi_j) psi_k`` over the pairs k > j, the symmetric block is
    ``2 Re z``, the antisymmetric block ``2 Im z``, and diagonal l is
    ``sqrt(2/(l(l+1))) (sum_{a<l} |psi_a|^2 - l |psi_l|^2)``.

    Parameters
    ----------
    psi : complex array, shape (..., d)
        State amplitudes along the last axis, each state of unit Euclidean
        norm (checked to 1e-12).

    Returns
    -------
    real array, shape (..., d**2 - 1)
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 0 or psi.shape[-1] < 2:
        raise ValueError("state must live in dimension >= 2")
    d = psi.shape[-1]
    p = np.abs(psi) ** 2
    nrm2 = p.sum(axis=-1)
    bad = ~(np.abs(nrm2 - 1.0) <= 1e-12)  # a NaN norm fails too
    if bad.any():
        raise ValueError(f"state is not normalized: |psi|^2 = {float(nrm2[bad][0])!r}")
    k, j = np.tril_indices(d, -1)
    z = psi[..., j].conj() * psi[..., k]
    l = np.arange(1, d)
    diag = (np.cumsum(p, axis=-1)[..., :-1] - l * p[..., 1:]) * np.sqrt(2.0 / (l * (l + 1)))
    coords = np.concatenate([2.0 * z.real, 2.0 * z.imag, diag], axis=-1)
    return coords * math.sqrt(d / (2.0 * (d - 1)))


def bloch_to_density(u: np.ndarray) -> np.ndarray:
    """Reconstruct density matrices ``I/d + sqrt((d-1)/(2d)) sum_i u_i L_i``.

    ``u`` has shape (..., d**2 - 1), the result (..., d, d); ``d`` is read
    from the coordinate length, and a length that is not d**2 - 1 for any
    d >= 2 raises `ValueError`.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = u.shape[-1]
    d = math.isqrt(n + 1)
    if d < 2 or d * d - 1 != n:
        raise ValueError(f"coordinate length {n} is not d**2 - 1 for any d >= 2")
    k, j = np.tril_indices(d, -1)
    m = len(k)
    sym, anti = u[..., :m], u[..., m : 2 * m]
    l = np.arange(1, d)
    w = u[..., 2 * m :] * np.sqrt(2.0 / (l * (l + 1)))
    # diagonal a: the sum of w_l over l > a, minus a w_a
    diag = np.zeros(u.shape[:-1] + (d,))
    diag[..., :-1] = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    diag[..., 1:] -= l * w
    scale = math.sqrt((d - 1) / (2.0 * d))
    out = np.zeros(u.shape[:-1] + (d, d), dtype=complex)
    out[..., j, k] = scale * (sym - 1j * anti)
    out[..., k, j] = scale * (sym + 1j * anti)
    out[..., np.arange(d), np.arange(d)] = scale * diag + 1.0 / d
    return out


def expected_abs_projection(n: int) -> float:
    """Mean absolute projection ``E|u . w|`` of a uniform unit vector.

    For ``u`` uniform on the sphere S^{n-1} and any fixed unit ``w``,
    ``E|u . w| = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))``.  Below n = 200
    this is taken from log-gamma values.  Their difference cancels, losing
    about n ulps, so from n = 200 up the ratio ``Gamma(z + 1/2) / Gamma(z)``,
    z = n/2, comes from its asymptotic series
    ``sqrt(z) (1 - 1/(8z) + 1/(128z^2) + 5/(1024z^3) - 21/(32768z^4)
    - 399/(262144z^5))``, whose next term is below 3e-16 there.  Relative
    error against 40-digit mpmath: at most 1.1e-13 below n = 200 (6.3e-14
    at the Bloch dimensions n = d^2 - 1, at d = 14) and 4e-16 from n = 200
    up to 1e12.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n < 200:
        return math.exp(math.lgamma(n / 2.0) - math.lgamma((n + 1) / 2.0)) / math.sqrt(math.pi)
    t = 2.0 / n  # 1/z
    series = 1.0 + t * (
        -1.0 / 8 + t * (1.0 / 128 + t * (5.0 / 1024 + t * (-21.0 / 32768 - t * 399.0 / 262144)))
    )
    return 1.0 / (math.sqrt(math.pi * n / 2.0) * series)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based random stream keyed by (seed, index)."""
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unit_rows(draw, m: int) -> np.ndarray:
    """``draw(m)`` with unit rows.  While k rows are below 1e-12 in norm,
    they are replaced by the rows of ``draw(k)``."""
    x = draw(m)
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        x[bad] = draw(int(bad.sum()))
        norms = np.linalg.norm(x, axis=1)
    x /= norms[:, None]
    return x


def sample_sphere(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform samples on the unit sphere S^{n-1}.

    Returns shape (n,) when ``size`` is None, else (size, n).  Isotropic
    Gaussian draws normalized to unit length; rows that collapse below
    1e-12 in norm are redrawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 1 if size is None else int(size)
    x = _unit_rows(lambda k: rng.standard_normal((k, n)), m)
    return x[0] if size is None else x


def sample_haar_pure(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure states: normalized complex Gaussian amplitudes.

    Returns shape (d,) when ``size`` is None, else (size, d).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    m = 1 if size is None else int(size)
    z = _unit_rows(
        lambda k: rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)), m
    )
    return z[0] if size is None else z


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]
