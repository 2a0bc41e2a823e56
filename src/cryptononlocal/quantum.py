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

import functools
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
    "chained_value",
    "cglmp_chained_value",
    "gamma_factor",
    "asymptotic_chained_value",
]

PROB_TOL = 1e-12
# Amplitudes per block of `joint_from_bases` (1 MiB of complex128): a block
# and its moduli stay in cache, and the full (N d, N d) amplitude array is
# never held beside the tensor.  At d=8, N=200 blocks of 2**14 to 2**17 time
# within 5 % of each other; 2**20 takes twice as long.
_BORN_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class ChainedSettings:
    """Measurement phases ``alpha[A-1]``, ``beta[B-1]`` of N = ``n`` settings.

    Construction refuses phases that are not real, finite, 1-D, non-empty and
    of one length, and stores them mod d, their period, where the Born-rule
    tensor keeps its accuracy."""

    d: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("d must be >= 2")
        for name in ("alpha", "beta"):
            phases = _as_float_array(getattr(self, name), name)
            if phases.ndim != 1 or phases.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array, got {phases.shape}")
            if not np.isfinite(phases).all():
                raise ValueError(f"{name} has a non-finite phase")
            object.__setattr__(self, name, np.mod(phases, self.d))
        if self.alpha.shape != self.beta.shape:
            raise ValueError(f"alpha and beta differ in length: {self.n} != {self.beta.size}")

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def chained_settings(d: int, n: int) -> ChainedSettings:
    """Standard chained phases for n settings per side in dimension d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(1, n + 1, dtype=float)
    return ChainedSettings(d, (idx - 0.5) / n, idx / n)


def cglmp_bases(settings: ChainedSettings) -> tuple[np.ndarray, np.ndarray]:
    """Fourier-type measurement bases for both sides.

    Returns (alice, bob), each of shape (N, d, d), where
    ``alice[A-1, X, j] = exp(2 pi i j (X - alpha_A) / d) / sqrt(d)`` and
    Bob's phases carry the opposite sign.  Every basis is orthonormal.
    """
    d = settings.d
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


def _as_float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, if every entry is a real number.

    ``np.asarray(values, dtype=float)`` would parse the strings ``"1"`` and
    ``"0"``, take booleans as 1 and 0, and drop imaginary parts with only a
    warning.  Here strings, booleans and complex entries with a nonzero
    imaginary part raise `ValueError` naming their dtype, as does input that
    is ragged, not numeric or past the float range (an integer above
    2**1024).  A float array is returned as it is.
    """
    not_real = f"{name} is not a rectangular array of numbers"
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{not_real}: {exc}") from exc
    kind = arr.dtype.kind
    if kind not in "iufcO":
        raise ValueError(f"{not_real}: it has dtype {arr.dtype}")
    if kind == "O" or not isinstance(values, np.ndarray):
        # numpy promotes a boolean among numbers to 1.0 and an object array
        # parses strings, so look at each entry's own type
        entries = arr if kind == "O" else np.array(values, dtype=object)
        for entry_type in set(map(type, entries.flat)):
            if issubclass(entry_type, (str, bytes, bool, np.bool_)):
                raise ValueError(f"{not_real}: an entry has dtype {entry_type.__name__}")
    if kind == "c":
        if np.any(arr.imag):
            raise ValueError(f"{not_real}: dtype {arr.dtype} with a nonzero imaginary part")
        arr = arr.real
    try:
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{not_real}: {exc}") from exc


def _signaling_residuals(probs: np.ndarray) -> tuple[float, float]:
    """Largest spread of Alice's marginals over Bob's settings, and vice versa."""
    # einsum runs these short d-axis reductions in one pass, about twice as
    # fast as sum(axis=...) on large tensors
    alice = np.einsum("abxy->abx", probs)
    bob = np.einsum("abxy->aby", probs)
    # reducing over the leading axis runs on long rows, over axis 1 on
    # d-long ones: the transposed copy costs less than it saves
    alice_by_b = np.ascontiguousarray(alice.transpose(1, 0, 2))  # (B, A, X)
    return (
        float((alice_by_b.max(axis=0) - alice_by_b.min(axis=0)).max()),
        float((bob.max(axis=0) - bob.min(axis=0)).max()),
    )


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Conditional outcome distribution P(X, Y | A, B), ``probs[A-1, B-1, X, Y]``.

    The one form every tensor reader takes.  ``probs`` is converted once, on
    construction, to a float array of shape (n, n, d, d); any other shape, or
    input that is not a rectangular array of real numbers, raises `ValueError`.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _as_float_array(self.probs, "probs"))
        shape = self.probs.shape
        if len(shape) != 4 or shape[0] != shape[1] or shape[2] != shape[3]:
            raise ValueError(f"probs must have shape (n, n, d, d), got {shape}")

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def d(self) -> int:
        return self.probs.shape[2]

    def validate(self, tol: float = PROB_TOL, no_signaling: bool = False) -> None:
        """Check finiteness, sign (entries >= -tol) and normalization.

        With ``no_signaling`` also require each party's marginals to vary by
        at most ``tol`` across the other party's settings.
        """
        p = self.probs
        # NaN compares False, so the sign and sum checks would pass it.  The
        # sums of finite entries can overflow too, so np.isfinite decides
        # which defect a non-finite deviation names.
        deviation = np.abs(np.einsum("abxy->ab", p) - 1.0).max()
        if not math.isfinite(deviation) and not np.isfinite(p).all():
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
    The amplitudes ``<X_A (x) Y_B | psi>`` come a block of Alice settings at
    a time, ``max(1, 2**16 // (N d^2))`` of them, from one
    ``(rows d, d) @ (d, N d)`` product whose moduli are squared and written
    into the ``(N, N, d, d)`` tensor; peak memory is the tensor plus one
    ~1 MiB block.  Nothing here uses the phase structure of the chained
    bases, so this stays the independent reference for `closed_form_probs`.
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
    # amp[(A, X), (B, Y)] = <X_A (x) Y_B | psi>, for `rows` settings A at a time
    half = alice.conj().reshape(n * d, d) @ s.reshape(d, d)
    bob_t = bob.conj().reshape(n * d, d).T
    probs = np.empty((n, n, d, d))
    rows = max(1, _BORN_BLOCK // (n * d * d))
    for a in range(0, n, rows):
        block = np.abs(half[a * d : (a + rows) * d] @ bob_t)
        block *= block
        probs[a : a + rows] = block.reshape(-1, d, n, d).transpose(0, 2, 1, 3)
    dist = JointDistribution(probs)
    dist.validate(no_signaling=True)
    return dist


def joint_distribution(state: np.ndarray, settings: ChainedSettings) -> JointDistribution:
    """Joint distribution of ``state`` under the chained measurement bases."""
    alice, bob = cglmp_bases(settings)
    return joint_from_bases(state, alice, bob)


def _difference_probs(d: int, f: np.ndarray) -> np.ndarray:
    """Closed-form P((Y-X) mod d = m) for float phase gaps ``f``; shape f.shape + (d,)."""
    theta = f[..., None] + np.arange(d)
    x = theta / d
    turns = np.round(x)
    small = np.abs(x - turns)
    # near a nonzero multiple of d both sines lose their relative accuracy, so
    # take them at the offset from it, exact by Sterbenz: the period is d
    theta -= d * turns * (small < 0.25 / d)
    pi_theta = np.pi * theta
    den = np.sin(pi_theta / d) ** 2
    num = np.sin(pi_theta) ** 2
    safe = small > 1e-12
    out = np.empty_like(den)
    out[safe] = num[safe] / (d * d * den[safe])
    out[~safe] = 1.0  # theta = 0 (mod d): the class soaks up all the weight
    return out


def closed_form_probs(settings: ChainedSettings) -> JointDistribution:
    """Analytic joint distribution, equal to the Born-rule path entrywise
    (to ~1e-15 at any finite phases; tests check 1e-12 up to |phase| = 1e9).

    Entry (A, B, X, Y) is ``sin^2(pi theta) / (d^3 sin^2(pi theta / d))``
    with ``theta = Y - X + alpha_A - beta_B``, taking the limit 1/d at
    theta = 0 (mod d).  The closed form is evaluated once per distinct
    phase gap ``alpha_A - beta_B`` (1296 of them for the standard settings
    at N = 200, against 40 000 setting pairs) and whole d x d blocks are
    gathered from there, so every entry is the one an entrywise evaluation
    gives, bit for bit.  Being a distribution by construction, it is not validated.
    """
    d, n = settings.d, settings.n
    gaps, where = np.unique(
        np.subtract.outer(settings.alpha, settings.beta), return_inverse=True
    )
    m = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d  # m[X, Y] = (Y-X) mod d
    blocks = _difference_probs(d, gaps)[:, m] / d  # (gap, X, Y)
    # numpy 2.0 returns the inverse in the input's shape, 1.x flat
    return JointDistribution(blocks[where.reshape(n, n)])


def chained_value(dist: JointDistribution) -> float:
    """The chained quantity I_N of a joint distribution.

    The wrap pairs setting A=1 with B=N and shifts Alice's outcome by one.
    """
    probs, n = dist.probs, dist.n
    w_xy, w_yx, w_wrap = _chain_weights(dist.d)
    diag = np.einsum("iixy->xy", probs)
    total = float((w_xy * diag).sum())
    if n > 1:
        above = np.einsum("iixy->xy", probs[1:, :-1])
        total += float((w_yx * above).sum())
    total += float((w_wrap * probs[0, n - 1]).sum())
    return total


@functools.lru_cache(maxsize=32)
def _chain_weights(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only weights ``[X - Y]``, ``[Y - X]`` and ``[Y - X - 1]`` (mod d)
    of the chain terms, indexed ``[X, Y]``."""
    x = np.arange(d)[:, None]
    y = np.arange(d)[None, :]
    weights = ((x - y) % d, (y - x) % d, (y - x - 1) % d)
    for w in weights:
        w.flags.writeable = False
    return weights


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
    return float(2 * n * (np.arange(d) * pm).sum())


def gamma_factor(d: int) -> float:
    """Leading coefficient of the large-N decay of I_N.

    ``gamma = pi^2/(4 d^2) * sum_{j=1}^{d-1} j / sin^2(pi j / d)``.  Expanding
    the closed form in ``f = 1/(2N)`` gives

        I_N = 2 gamma / N + c2 / N^2 + O(1/N^3),
        c2(d) = -(pi^3 / (2 d^3)) sum_{m=1}^{d-1} m cos(pi m/d) / sin^3(pi m/d),

    with c2 > 0 for d >= 3 (0.4420 at d=3, 0.9689 at d=4).  The terms m and
    d-m cancel at d=2, so c2(2) = 0: there ``I_N = 2N sin^2(pi/(4N))``
    exactly and the first correction is cubic, ``-pi^4/(384 N^3)``.

    The d - 1 terms are summed in float: relative error against 40-digit
    mpmath at most 2.2e-13 over d = 2..1000 (worst at d = 939).
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
