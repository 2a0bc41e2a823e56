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
import numbers
from dataclasses import dataclass

import numpy as np

from .bloch import _as_array, _bloch_coords, _integer
from .quantum import JointDistribution, _chain_terms, _check_bases, _check_tol, _joint
from .quantum import _signaling_residuals, chained_value

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
    p = _as_array(p, name)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {p.shape}")
    if p.size == 0:
        raise ValueError(f"{name} is empty")
    _check_entries(p, name)
    return p


def _check_entries(p: np.ndarray, name: str) -> None:
    """Refuse a non-empty float array ``p`` with a non-finite or negative
    entry, or whose entries do not sum to 1 (to ``_NORM_TOL``), naming it ``name``."""
    # Python's float sum, unlike ndarray.sum, never warns: any non-finite entry
    # or overflow makes it inf or nan, and only then does np.isfinite run.
    values = p.ravel().tolist()
    total = sum(values)
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise ValueError(f"{name} has a non-finite entry")
    # every entry is finite here, so the list's minimum is p.min()
    if min(values) < -1e-12:
        raise ValueError(f"{name} has a negative entry")
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"{name} is not normalized")


def statistical_distance(p: np.ndarray, q: np.ndarray) -> float:
    """1/d-normalized L1 distance ``sum_x |P(x) - Q(x)| / d``.

    Symmetric, zero iff P = Q, bounded by 2/d, and satisfies the triangle
    inequality.  Each of P and Q must be a one-dimensional, finite,
    non-negative array that sums to 1 (to 1e-9), else `ValueError` names it.
    """
    p = _check_distribution(p, "P")
    q = _check_distribution(q, "Q")
    if p.shape != q.shape:
        raise ValueError("distributions have different outcome counts")
    return float(np.add.reduce(np.abs(p - q)) / p.shape[0])


@dataclass(frozen=True)
class NoSignalingReport:
    alice_residual: float
    bob_residual: float
    residual: float
    passed: bool


def check_no_signaling(dist: JointDistribution, tol: float = 1e-12) -> NoSignalingReport:
    """Largest variation of either party's marginals across remote settings;
    a NaN or negative ``tol`` raises `ValueError`, a ``dist`` that is not a
    `JointDistribution` `TypeError`."""
    _check_tol(tol)
    res_a, res_b = _signaling_residuals(_joint(dist).probs)
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
    An ``rng`` that is not a `numpy.random.Generator`, or a ``mix`` that is
    not a real number (a bool included), raises `TypeError`.

    Each term is added to a flat buffer of n^2 d^2 entries by one scatter
    into the cells it weighs: one per setting pair for a strategy, one per
    setting pair and X for a box.  The generator calls are those of the
    dense construction, in its order, and every entry sums its terms in the
    order drawn, from 0.0, so the tensor is bit for bit the one that adding
    a dense array per term gives.  A distribution by construction, it is not validated.
    """
    d, n = _integer("d", d, 2), _integer("n", n, 1)
    # a float, the common case, skips the isinstance calls
    if type(mix) is not float and (isinstance(mix, bool) or not isinstance(mix, numbers.Real)):
        raise TypeError(f"mix={mix!r} is not a number")
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(
            f"rng is a {type(rng).__name__}, not a numpy Generator: "
            "draw one with substream(seed, stream)"
        )
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

    return JointDistribution(flat.reshape(n, n, d, d))


@dataclass(frozen=True, eq=False)
class ShiftBoundReport:
    chained: float
    shifts: np.ndarray  # per-setting Alice shift distances
    max_shift: float
    slack: float
    passed: bool


def verify_shift_bound(dist: JointDistribution, tol: float = 1e-9) -> ShiftBoundReport:
    """Check ``Delta(P_X|a, P_X+1|a) <= I_N`` for every Alice setting.

    `JointDistribution.validate` at ``tol`` is the one check of ``dist``
    (and of a ``verify --input`` fixture), no-signaling included, as the
    bound presumes it; a ``dist`` that is not a `JointDistribution` raises
    `TypeError`.  ``slack`` is I_N minus the largest per-setting shift
    distance and must stay above -tol.
    """
    dist = _joint(dist)
    dist.validate(tol)
    i_n = chained_value(dist)
    # (A, X), B-averaged: the sum and division that mean(axis=1) makes
    marg = np.add.reduce(np.add.reduce(dist.probs, axis=3), axis=1)
    marg /= dist.n
    # marg - np.roll(marg, -1, axis=1), in two subtractions
    step = np.empty_like(marg)
    np.subtract(marg[:, :-1], marg[:, 1:], out=step[:, :-1])
    np.subtract(marg[:, -1], marg[:, 0], out=step[:, -1])
    shifts = np.add.reduce(np.abs(step, out=step), axis=1)
    shifts /= dist.d
    max_shift = float(np.maximum.reduce(shifts))
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

    ``a`` and ``b`` are 1-based setting indices; a bool or a float raises
    `TypeError`, an index outside 1..n or a NaN or negative ``tol`` `ValueError`.
    A ``dist`` that is not a `JointDistribution` raises `TypeError`.  The
    pair's d x d block is the one thing read, and the one thing checked: a
    non-finite entry, one below -1e-12 or a sum off 1 by more than 1e-9
    raises `ValueError` naming ``setting pair (a, b)``.  Its marginals then
    sum to 1 as well, so Delta is taken of them without further checks.
    """
    _check_tol(tol)
    n = _joint(dist).n
    a = _integer("setting index a", a, 1, n)
    b = _integer("setting index b", b, 1, n)
    block = dist.probs[a - 1, b - 1]
    _check_entries(block, f"setting pair ({a}, {b})")
    p_equal = float(block.trace())
    gap = np.add.reduce(block, axis=1)  # Alice's marginal less Bob's
    gap -= np.add.reduce(block, axis=0)
    delta = float(np.add.reduce(np.abs(gap)) / block.shape[0])
    slack = 1.0 - delta - p_equal
    return AgreementReport(
        p_equal=p_equal, distance=delta, slack=slack, passed=slack >= -tol
    )


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcome per setting for each side."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]


def strategy_chained_value(d: int, alice, bob) -> int:
    """I_N of a deterministic strategy, over `quantum._chain_terms`; an integer.

    Outcomes must be integers in 0..d-1.  A side whose array has a float or
    boolean dtype, or holds a value out of range, raises `ValueError`.  An
    array is checked by dtype, minimum and maximum; a list or tuple also by
    the type of each entry, since numpy gives ``[0, True]`` an integer dtype.
    """
    d = _integer("d", d, 2)
    a = np.asarray(alice)
    b = np.asarray(bob)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("alice and bob must be non-empty equal-length outcome sequences")
    for name, side, outcomes in (("alice", alice, a), ("bob", bob, b)):
        if outcomes.dtype.kind not in "iu":
            raise ValueError(f"{name} outcomes are not integers (dtype {outcomes.dtype})")
        if not isinstance(side, np.ndarray) and any(
            issubclass(t, (bool, np.bool_)) for t in set(map(type, side))
        ):
            raise ValueError(f"{name} outcomes are not integers (an entry is a bool)")
        if outcomes.min() < 0 or outcomes.max() > d - 1:
            raise ValueError(f"{name} outcomes are out of range 0..{d - 1}")
    # the default integer width, so that a - b cannot wrap in a narrow or unsigned dtype
    a, b = a.astype(int, copy=False), b.astype(int, copy=False)
    return sum(
        int(np.sum((sign * (a[i : i + k] - b[j : j + k]) - shift) % d))
        for sign, shift, i, j, k in _chain_terms(a.size)
    )


def lhv_min_chained(d: int, n: int) -> tuple[int, DeterministicStrategy]:
    """Minimum of I_N over all local strategies, d - 1, with a witness.

    I_N is linear in the distribution, so over local models (deterministic
    or mixed) its minimum is attained at a deterministic strategy, outcomes
    a_i for Alice and b_i for Bob.  Its 2n chain terms (`quantum._chain_terms`,
    with a_{n+1} = a_1 + 1) are integers in 0..d-1 whose sum telescopes to
    ``a_1 - (a_1 + 1) = -1``, i.e. to d - 1, modulo d.  A non-negative integer
    congruent to d - 1 is at least d - 1, and the all-zero strategy attains it
    (every term is 0 but the wrap term, d - 1): the local-causality floor of
    Barrett, Kent and Pironio, PRL 97, 170409 (2006).
    """
    d, n = _integer("d", d, 2), _integer("n", n, 1)
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
    ``x1`` and ``x2`` are integers in 0..d-1: a bool or a float raises
    `TypeError`, an outcome out of range `ValueError`.  Each basis goes
    through the one basis check, named ``basis1`` or ``basis2``; bases of
    two different dimensions raise `ValueError` too.
    """
    basis1 = _check_bases(basis1, "basis1", 2)
    basis2 = _check_bases(basis2, "basis2", 2)
    d = len(basis1)
    if len(basis2) != d:
        raise ValueError(f"bases of different dimensions: d={d} and d={len(basis2)}")
    x1 = _integer("outcome index x1", x1, 0, d - 1)
    x2 = _integer("outcome index x2", x2, 0, d - 1)
    # only the two compared states: the map works row by row
    a, b = _bloch_coords(basis1[x1]), _bloch_coords(basis2[x2])
    equal = bool(np.linalg.norm(a - b) <= 1e-10)
    s = a + b
    norm_s = float(np.linalg.norm(s))
    if norm_s <= 1e-12:
        # antipodal: min(a.u, -a.u) <= 0 with equality on the equator
        u_best = np.zeros_like(a)
        u_best[int(np.argmin(np.abs(a)))] = 1.0
        u_best -= (u_best @ a) * a
        u_best /= np.linalg.norm(u_best)
        max_min = 0.0
    else:
        u_best = s / norm_s
        max_min = 1.0 if equal else float((1.0 + a @ b) / norm_s)
    return ContradictionReport(
        vector_a=a,
        vector_b=b,
        best_direction=u_best,
        max_min_overlap=max_min,
        gap=1.0 - max_min,
        certified=not equal,
    )
