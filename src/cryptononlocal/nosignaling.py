"""No-signaling distribution tooling.

Distance measures, generators and verifiers for conditional distributions
P(X, Y | A, B) that leave each party's marginals independent of the remote
setting.  The central property checked here: for any no-signaling
distribution, every setting's outcome marginal changes by at most I_N under
a cyclic relabeling of outcomes,

    Delta(P_X, P_{X+1}) <= I_N ,

where ``Delta(P, Q) = sum_x |P(x) - Q(x)| / d``.  The proof chains two
facts, both verifiable here on their own: the agreement bound
``P(X_A = Y_B) <= 1 - Delta(P_{X_A}, P_{Y_B})`` and the triangle
inequality of Delta.  Everything is checked in the stronger per-setting
form, which implies the averaged statement for any hidden-state
distribution.  Input tensors go through `JointDistribution.validate`, the
one validation path; 1-D outcome distributions through a check of their
own (finite, non-negative, normalized).

Also provided: the minimum of I_N over local strategies (the
local-causality floor d-1, in closed form, with an all-zero witness) and
the certificate that two distinct measurement directions can never both be
perfectly predicted by one hidden unit vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .leggett import basis_to_bloch
from .quantum import (
    JointDistribution,
    _as_float_array,
    _signaling_residuals,
    chained_value,
)

__all__ = [
    "statistical_distance",
    "NoSignalingReport",
    "check_no_signaling",
    "random_no_signaling",
    "ShiftBoundReport",
    "verify_shift_bound",
    "AgreementReport",
    "check_agreement_bound",
    "DeterministicStrategy",
    "strategy_chained_value",
    "lhv_min_chained",
    "ContradictionReport",
    "deterministic_contradiction",
]

_NORM_TOL = 1e-9


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = _as_float_array(p, name).reshape(-1)
    if p.size == 0:
        raise ValueError(f"{name} is empty")
    # Python's float sum, unlike ndarray.sum, never warns: any non-finite entry
    # or overflow makes it inf or nan, and only then does np.isfinite run.
    total = sum(p.tolist())
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise ValueError(f"{name} has a non-finite entry")
    if p.min() < -1e-12:
        raise ValueError(f"{name} has a negative entry")
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"{name} is not normalized")
    return p


def statistical_distance(p: np.ndarray, q: np.ndarray) -> float:
    """1/d-normalized L1 distance ``sum_x |P(x) - Q(x)| / d``.

    Symmetric, zero iff P = Q, bounded by 2/d, and satisfies the triangle
    inequality.
    """
    p = _check_distribution(p, "P")
    q = _check_distribution(q, "Q")
    if p.shape != q.shape:
        raise ValueError("distributions have different outcome counts")
    return float(np.abs(p - q).sum() / p.shape[0])


@dataclass(frozen=True)
class NoSignalingReport:
    alice_residual: float
    bob_residual: float
    residual: float
    passed: bool


def check_no_signaling(dist: JointDistribution, tol: float = 1e-12) -> NoSignalingReport:
    """Largest variation of either party's marginals across remote settings."""
    res_a, res_b = _signaling_residuals(dist.probs)
    residual = max(res_a, res_b)
    return NoSignalingReport(
        alice_residual=res_a,
        bob_residual=res_b,
        residual=residual,
        passed=residual <= tol,
    )


def random_no_signaling(
    d: int, n: int, mix: float, rng: np.random.Generator
) -> JointDistribution:
    """Random no-signaling distribution built from provably safe blocks.

    A convex mixture of (i) local deterministic strategies and (ii)
    modulo-correlated boxes Y = X + f(A, B) with X uniform, weighted
    (1 - mix) : mix.  Both blocks are no-signaling by construction, so no
    projection or clipping is ever needed.  Every draw comes from the
    Generator ``rng``; ``substream(seed, 0)`` gives one keyed to a seed.

    Each term is added to a flat buffer of n^2 d^2 entries by one scatter
    into the cells it weighs: one per setting pair for a strategy, one per
    setting pair and X for a box.  The generator calls are those of the
    dense construction, in its order, and every entry sums its terms in the
    order drawn, from 0.0, so the tensor is bit for bit the one that adding
    a dense array per term gives.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    flat = np.zeros(n * n * d * d)
    # entry (A, B, X, Y) sits at flat index (A n + B) d^2 + X d + Y
    pair = np.arange(0, flat.size, d * d).reshape(n, n)

    n_local = int(rng.integers(1, 6))
    w = rng.dirichlet(np.ones(n_local))
    for i in range(n_local):
        a = rng.integers(0, d, size=n)
        b = rng.integers(0, d, size=n)
        flat[pair + (a * d)[:, None] + b] += (1.0 - mix) * w[i]

    n_box = int(rng.integers(1, 6))
    v = rng.dirichlet(np.ones(n_box))
    x = np.arange(d)
    cells = x * d + (x + x[:, None]) % d  # cells[f, X] = X d + (X + f) mod d
    for i in range(n_box):
        f = rng.integers(0, d, size=(n, n))
        flat[pair[:, :, None] + cells[f]] += mix * v[i] / d

    dist = JointDistribution(flat.reshape(n, n, d, d))
    dist.validate()
    return dist


@dataclass(frozen=True, eq=False)
class ShiftBoundReport:
    chained: float
    shifts: np.ndarray  # per-setting Alice shift distances
    max_shift: float
    slack: float
    passed: bool


def verify_shift_bound(dist: JointDistribution, tol: float = 1e-9) -> ShiftBoundReport:
    """Check ``Delta(P_X|a, P_X+1|a) <= I_N`` for every Alice setting.

    The distribution is checked by `JointDistribution.validate` with
    ``no_signaling=True`` at ``tol``: finiteness, sign, normalization and
    no-signaling (the bound presumes it).  ``slack`` is I_N minus the
    largest per-setting shift distance and must stay above -tol.
    """
    dist.validate(tol, no_signaling=True)
    i_n = chained_value(dist)
    # (A, X), B-averaged: the sum and division that mean(axis=1) makes
    marg = dist.probs.sum(axis=3).sum(axis=1) / dist.n
    # marg[:, next_x] is np.roll(marg, -1, axis=1), in one call
    next_x = np.arange(1, dist.d + 1) % dist.d
    shifts = np.abs(marg - marg[:, next_x]).sum(axis=1) / dist.d
    max_shift = float(shifts.max())
    slack = i_n - max_shift
    return ShiftBoundReport(
        chained=i_n,
        shifts=shifts,
        max_shift=max_shift,
        slack=slack,
        passed=slack >= -tol,
    )


@dataclass(frozen=True)
class AgreementReport:
    p_equal: float
    distance: float
    slack: float
    passed: bool


def check_agreement_bound(
    dist: JointDistribution, a: int, b: int, tol: float = 1e-9
) -> AgreementReport:
    """Check ``P(X_A = Y_B) <= 1 - Delta(P_{X_A}, P_{Y_B})`` at one pair.

    ``a`` and ``b`` are 1-based setting indices; anything but an integer
    (a bool, a float) is refused.
    """
    _check_index("setting", "a", a, 1, dist.n)
    _check_index("setting", "b", b, 1, dist.n)
    block = dist.probs[a - 1, b - 1]
    p_equal = float(block.trace())
    delta = statistical_distance(block.sum(axis=1), block.sum(axis=0))
    slack = 1.0 - delta - p_equal
    return AgreementReport(
        p_equal=p_equal, distance=delta, slack=slack, passed=slack >= -tol
    )


def _check_index(kind: str, name: str, index, lo: int, hi: int) -> None:
    """Refuse an index that is not an integer (a bool, a float) or not in lo..hi."""
    if isinstance(index, (bool, np.bool_)) or not isinstance(index, (int, np.integer)):
        raise ValueError(f"{kind} index {name}={index!r} is not an integer")
    if not lo <= index <= hi:
        raise ValueError(f"{kind} index {name}={index} out of range {lo}..{hi}")


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome per setting for each side."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]


def strategy_chained_value(d: int, alice, bob) -> int:
    """I_N of a deterministic strategy; always an integer."""
    if d < 2:
        raise ValueError("d must be >= 2")
    a = np.asarray(alice, dtype=int)
    b = np.asarray(bob, dtype=int)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("alice and bob must be non-empty equal-length outcome sequences")
    a_next = np.roll(a, -1)
    a_next[-1] = a[0] + 1
    return int(np.sum((a - b) % d) + np.sum((b - a_next) % d))


def lhv_min_chained(d: int, n: int) -> tuple[int, DeterministicStrategy]:
    """Minimum of I_N over all local strategies, d - 1, with a witness.

    I_N is linear in the distribution, so over local models (deterministic
    or mixed) its minimum is attained at a deterministic strategy, outcomes
    a_i for Alice and b_i for Bob.  Its 2n chain terms
    ``[a_i - b_i]`` and ``[b_i - a_{i+1}]`` (``[.]`` is mod d, a_{n+1} =
    a_1 + 1) are integers in 0..d-1 whose sum is congruent to the
    telescoped ``a_1 - (a_1 + 1) = -1``, i.e. to d - 1, modulo d.  A
    non-negative integer congruent to d - 1 is at least d - 1, and the
    all-zero strategy attains it (every term is 0 except the wrap term,
    d - 1).  This is the local-causality floor of Barrett, Kent and
    Pironio, PRL 97, 170409 (2006).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    zeros = (0,) * n
    return d - 1, DeterministicStrategy(alice=zeros, bob=zeros)


@dataclass(frozen=True, eq=False)
class ContradictionReport:
    """Infeasibility certificate for perfect predictions at two settings.

    ``max_min_overlap`` is the maximum over unit u of min(a1.u, a2.u); a
    positive ``gap`` = 1 - max certifies that no hidden unit vector aligns
    perfectly with both measurement directions at once.
    """

    vector_a: np.ndarray
    vector_b: np.ndarray
    best_direction: np.ndarray
    max_min_overlap: float
    gap: float
    certified: bool


def deterministic_contradiction(
    basis1: np.ndarray, basis2: np.ndarray, x1: int, x2: int
) -> ContradictionReport:
    """Certificate that outcomes x1, x2 of two distinct bases cannot both
    be certain.

    Perfect prediction of outcome x requires ``a^x . u = 1``, i.e. u equal
    to the measurement Bloch vector.  For distinct vectors the best any
    unit u can do is ``max_u min(a1.u, a2.u) = (1 + a1.a2)/|a1 + a2| < 1``,
    attained at the normalized bisector.  Equal vectors yield no
    certificate; antipodal vectors give max 0 (gap 1).  The outcomes
    ``x1`` and ``x2`` are integers in 0..d-1; anything else is refused.
    """
    vectors1 = basis_to_bloch(np.asarray(basis1)).vectors
    vectors2 = basis_to_bloch(np.asarray(basis2)).vectors
    _check_index("outcome", "x1", x1, 0, vectors1.shape[0] - 1)
    _check_index("outcome", "x2", x2, 0, vectors2.shape[0] - 1)
    a, b = vectors1[x1], vectors2[x2]
    if np.linalg.norm(a - b) <= 1e-10:
        return ContradictionReport(
            vector_a=a,
            vector_b=b,
            best_direction=a,
            max_min_overlap=1.0,
            gap=0.0,
            certified=False,
        )
    s = a + b
    norm_s = float(np.linalg.norm(s))
    if norm_s <= 1e-12:
        # antipodal: min(a.u, -a.u) <= 0 with equality on the equator
        perp = np.zeros_like(a)
        perp[int(np.argmin(np.abs(a)))] = 1.0
        perp -= (perp @ a) * a
        perp /= np.linalg.norm(perp)
        return ContradictionReport(
            vector_a=a,
            vector_b=b,
            best_direction=perp,
            max_min_overlap=0.0,
            gap=1.0,
            certified=True,
        )
    u_best = s / norm_s
    max_min = float((1.0 + a @ b) / norm_s)
    return ContradictionReport(
        vector_a=a,
        vector_b=b,
        best_direction=u_best,
        max_min_overlap=max_min,
        gap=1.0 - max_min,
        certified=True,
    )
