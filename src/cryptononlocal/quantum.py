"""Exact quantum predictions for the chained d-outcome scenario.

Two parties each choose one of N Fourier-type measurement bases and obtain
outcomes in {0, .., d-1}.  On the maximally entangled state the joint
distribution depends on the setting pair only through the phase gap
``f = alpha_A - beta_B``, for which a closed form exists:

    P((Y - X) mod d = m | A, B) = sin^2(pi (m+f)) / (d^2 sin^2(pi (m+f)/d)),

with the limit 1/d when ``m + f`` is a multiple of d.  The chained quantity

    I_N = sum_i ( <[X_i - Y_i]> + <[Y_i - X_{i+1}]> ),   X_{N+1} := X_1 + 1,

([.] is mod d, <.> the mean) collapses to ``2 N t`` on this distribution,
where ``t`` is the mean of m under the closed form at ``f = 1/(2N)``.  That
identity is what `cglmp_chained_value` evaluates; the Born-rule tensor path
is kept as the reference implementation and the two are cross-checked in
the test suite.

Setting indices A, B are 1-based (phases alpha_A = (A - 1/2)/N and
beta_B = B/N are defined for A, B = 1 .. N); probability tensors are
indexed ``probs[A-1, B-1, X, Y]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainedSettings",
    "chained_settings",
    "cglmp_bases",
    "maximally_entangled",
    "JointDistribution",
    "joint_distribution",
    "joint_from_bases",
    "closed_form_probs",
    "expected_mod",
    "chained_value",
    "cglmp_chained_value",
    "gamma_factor",
    "asymptotic_chained_value",
]

PROB_TOL = 1e-12


@dataclass(frozen=True)
class ChainedSettings:
    """Measurement phases for the chained scenario.

    ``alpha[A-1] = (A - 1/2)/N`` for Alice, ``beta[B-1] = B/N`` for Bob.
    """

    d: int
    n: int
    alpha: np.ndarray
    beta: np.ndarray


def chained_settings(d: int, n: int) -> ChainedSettings:
    """Standard chained phases for n settings per side in dimension d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(1, n + 1, dtype=float)
    return ChainedSettings(d=d, n=n, alpha=(idx - 0.5) / n, beta=idx / n)


def cglmp_bases(settings: ChainedSettings) -> tuple[np.ndarray, np.ndarray]:
    """Fourier-type measurement bases for both sides.

    Returns (alice, bob), each of shape (N, d, d), where
    ``alice[A-1, X, j] = exp(2 pi i j (X - alpha_A) / d) / sqrt(d)`` and
    Bob's phases carry the opposite sign.  Every basis is orthonormal.
    """
    d, n = settings.d, settings.n
    j = np.arange(d)
    x = np.arange(d)
    ph_a = np.einsum("j,ax->axj", j, x[None, :] - settings.alpha[:, None])
    ph_b = np.einsum("j,by->byj", j, x[None, :] - settings.beta[:, None])
    alice = np.exp(2j * np.pi / d * ph_a) / math.sqrt(d)
    bob = np.exp(-2j * np.pi / d * ph_b) / math.sqrt(d)
    return alice, bob


def maximally_entangled(d: int) -> np.ndarray:
    """The state sum_j |jj> / sqrt(d) as a flat d**2 vector."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def _as_probs(dist) -> np.ndarray:
    """The ``(n, n, d, d)`` tensor of a JointDistribution or of a bare array."""
    probs = np.asarray(getattr(dist, "probs", dist), dtype=float)
    shape = probs.shape
    if len(shape) != 4 or shape[0] != shape[1] or shape[2] != shape[3]:
        raise ValueError(f"expected shape (n, n, d, d), got {shape}")
    return probs


def _signaling_residuals(probs: np.ndarray) -> tuple[float, float]:
    """Largest spread of Alice's marginals over Bob's settings, and vice versa."""
    # einsum runs these short d-axis reductions in one pass, about twice as
    # fast as sum(axis=...) on large tensors
    alice = np.einsum("abxy->abx", probs)
    bob = np.einsum("abxy->aby", probs)
    # reducing over the leading axis runs on long rows, over axis 1 on
    # d-long ones: the transposed copy costs less than it saves
    alice_by_b = np.ascontiguousarray(alice.transpose(1, 0, 2))  # (B, A, X)
    return float(np.ptp(alice_by_b, axis=0).max()), float(np.ptp(bob, axis=0).max())


@dataclass(frozen=True)
class JointDistribution:
    """Conditional outcome distribution P(X, Y | A, B), ``probs[A-1, B-1, X, Y]``."""

    d: int
    n: int
    probs: np.ndarray

    def validate(self, tol: float = PROB_TOL, no_signaling: bool = False) -> None:
        """Check shape, finiteness, sign (entries >= -tol) and normalization.

        With ``no_signaling`` also require each party's marginals to vary by
        at most ``tol`` across the other party's settings.
        """
        p = self.probs
        expected = (self.n, self.n, self.d, self.d)
        if p.shape != expected:
            raise ValueError(
                f"probs shape {p.shape} does not match (n, n, d, d) = {expected}"
            )
        # NaN compares False, so the sign and sum checks would pass it
        deviation = np.abs(np.einsum("abxy->ab", p) - 1.0).max()
        if not math.isfinite(deviation):
            raise ValueError("non-finite entry")
        if p.min() < -tol:
            raise ValueError("negative probability entry")
        if deviation > tol:
            raise ValueError("setting pair not normalized")
        if no_signaling:
            residual = max(_signaling_residuals(p))
            if residual > tol:
                raise ValueError(
                    f"distribution signals (residual {residual:.3g} > {tol:.3g})"
                )


def joint_from_bases(
    state: np.ndarray, alice: np.ndarray, bob: np.ndarray
) -> JointDistribution:
    """Born-rule joint distribution of a bipartite state under given bases.

    ``alice``/``bob`` have shape (N, d, d) with rows ``[setting, outcome, :]``.
    All N^2 d^2 amplitudes ``<X_A (x) Y_B | psi>`` come from one
    ``(N d, d) @ (d, N d)`` product; nothing here uses the phase structure
    of the chained bases, so this stays the independent reference for
    `closed_form_probs`.
    """
    alice = np.asarray(alice, dtype=complex)
    bob = np.asarray(bob, dtype=complex)
    if alice.ndim != 3 or alice.shape[1] != alice.shape[2]:
        raise ValueError(f"basis arrays must have shape (N, d, d), got {alice.shape}")
    if bob.shape != alice.shape:
        raise ValueError("Alice and Bob basis arrays must share a shape")
    n, d = alice.shape[0], alice.shape[1]
    s = np.asarray(state, dtype=complex).reshape(-1)
    if s.shape[0] != d * d:
        raise ValueError(f"state length {s.shape[0]} does not match d={d}")
    # amp[(A, X), (B, Y)] = <X_A (x) Y_B | psi>
    half = alice.conj().reshape(n * d, d) @ s.reshape(d, d)
    amp = half @ bob.conj().reshape(n * d, d).T
    probs = np.empty((n, n, d, d))
    np.abs(amp.reshape(n, d, n, d).transpose(0, 2, 1, 3), out=probs)
    del amp
    probs *= probs
    dist = JointDistribution(d=d, n=n, probs=probs)
    dist.validate(no_signaling=True)
    return dist


def joint_distribution(state: np.ndarray, settings: ChainedSettings) -> JointDistribution:
    """Joint distribution of ``state`` under the chained measurement bases."""
    alice, bob = cglmp_bases(settings)
    return joint_from_bases(state, alice, bob)


def _difference_probs(d: int, f: np.ndarray) -> np.ndarray:
    """Closed-form P((Y-X) mod d = m) for phase gaps ``f``; shape f.shape + (d,)."""
    f = np.asarray(f, dtype=float)
    theta = f[..., None] + np.arange(d)
    small = theta / d - np.round(theta / d)
    den = np.sin(np.pi * theta / d) ** 2
    num = np.sin(np.pi * theta) ** 2
    safe = np.abs(small) > 1e-12
    out = np.empty_like(den)
    out[safe] = num[safe] / (d * d * den[safe])
    out[~safe] = 1.0  # theta = 0 (mod d): the class soaks up all the weight
    return out


def closed_form_probs(settings: ChainedSettings) -> np.ndarray:
    """Analytic joint tensor, equal to the Born-rule path entrywise.

    Entry (A, B, X, Y) is ``sin^2(pi theta) / (d^3 sin^2(pi theta / d))``
    with ``theta = Y - X + alpha_A - beta_B``, taking the limit 1/d at
    theta = 0 (mod d).  The closed form is evaluated once per distinct
    phase gap ``alpha_A - beta_B`` (1296 of them for the standard settings
    at N = 200, against 40 000 setting pairs) and whole d x d blocks are
    gathered from there, so every entry is the one an entrywise evaluation
    gives, bit for bit.
    """
    d, n = settings.d, settings.n
    alpha = np.asarray(settings.alpha, dtype=float)
    beta = np.asarray(settings.beta, dtype=float)
    for name, phases in (("alpha", alpha), ("beta", beta)):
        if phases.shape != (n,):
            raise ValueError(f"{name} must have shape (n,) = ({n},), got {phases.shape}")
        if not np.isfinite(phases).all():
            raise ValueError(f"{name} has a non-finite phase")
    gaps, where = np.unique(np.subtract.outer(alpha, beta), return_inverse=True)
    m = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d  # m[X, Y] = (Y-X) mod d
    blocks = _difference_probs(d, gaps)[:, m] / d  # (gap, X, Y)
    # numpy 2.0 returns the inverse in the input's shape, 1.x flat
    return blocks[where.reshape(n, n)]


def expected_mod(dist, a: int, b: int, sign: int = 1, offset: int = 0) -> float:
    """Mean of ``[sign*(X - Y) + offset] mod d`` at setting pair (a, b).

    Accepts a JointDistribution or a bare (N, N, d, d) array; ``a`` and
    ``b`` are 1-based setting indices.
    """
    probs = _as_probs(dist)
    n, d = probs.shape[0], probs.shape[2]
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"setting indices ({a}, {b}) out of range 1..{n}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = np.arange(d)[:, None]
    y = np.arange(d)[None, :]
    weights = (sign * (x - y) + offset) % d
    return float(np.sum(weights * probs[a - 1, b - 1]))


def chained_value(dist) -> float:
    """The chained quantity I_N of a joint distribution tensor.

    Accepts a JointDistribution or a bare (N, N, d, d) array.  The wrap
    pairs setting A=1 with B=N and shifts Alice's outcome by one.
    """
    probs = _as_probs(dist)
    n, d = probs.shape[0], probs.shape[2]
    x = np.arange(d)[:, None]
    y = np.arange(d)[None, :]
    w_xy = (x - y) % d
    w_yx = (y - x) % d
    w_wrap = (y - x - 1) % d
    diag = np.einsum("iixy->xy", probs)
    total = float(np.sum(w_xy * diag))
    if n > 1:
        above = np.einsum("iixy->xy", probs[1:, :-1])
        total += float(np.sum(w_yx * above))
    total += float(np.sum(w_wrap * probs[0, n - 1]))
    return total


def cglmp_chained_value(d: int, n: int) -> float:
    """Exact I_N on the maximally entangled state, fast closed form.

    All 2N terms of the chain are equal by phase symmetry, so
    ``I_N = 2 N sum_m m P_m(1/(2N))``.  Agrees with
    ``chained_value(joint_distribution(...))`` to 1e-10.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    pm = _difference_probs(d, np.array(1.0 / (2 * n)))
    return float(2 * n * np.sum(np.arange(d) * pm))


def gamma_factor(d: int) -> float:
    """Leading coefficient of the large-N decay of I_N.

    ``gamma = pi^2/(4 d^2) * sum_{j=1}^{d-1} j / sin^2(pi j / d)``.  Expanding
    the closed form in ``f = 1/(2N)`` gives

        I_N = 2 gamma / N + c2 / N^2 + O(1/N^3),
        c2(d) = -(pi^3 / (2 d^3)) sum_{m=1}^{d-1} m cos(pi m/d) / sin^3(pi m/d),

    with c2 > 0 for d >= 3 (0.4420 at d=3, 0.9689 at d=4).  The terms m and
    d-m cancel at d=2, so c2(2) = 0: there ``I_N = 2N sin^2(pi/(4N))``
    exactly and the first correction is cubic, ``-pi^4/(384 N^3)``.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    j = np.arange(1, d)
    return float(np.pi**2 / (4 * d * d) * np.sum(j / np.sin(np.pi * j / d) ** 2))


def asymptotic_chained_value(d: int, n: int) -> float:
    """Leading-order approximation ``2 gamma(d) / N`` of the exact I_N.

    The error is ``c2(d)/N^2 + O(1/N^3)`` with c2 as in `gamma_factor`; at
    d=2, where c2 vanishes, it is ``-pi^4/(384 N^3) + O(1/N^5)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * gamma_factor(d) / n
