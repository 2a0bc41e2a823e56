"""Exact quantum predictions for the chained d-outcome scenario.

Two parties each choose one of N Fourier-type measurement bases and obtain
outcomes in {0, .., d-1}.  On the maximally entangled state the joint
distribution depends on the setting pair only through the phase gap
``f = alpha_A - beta_B``, for which a closed form exists:

    P((Y - X) mod d = m | A, B) = sin^2(pi (m+f)) / (d^2 sin^2(pi (m+f)/d)),

with the limit 1 when ``m + f`` is a multiple of d.  The chained quantity

    I_N = sum_i ( <[X_i - Y_i]> + <[Y_i - X_{i+1}]> ),   X_{N+1} := X_1 + 1,

([.] is mod d, <.> the mean; `_chain_terms` is the one list of its 2N terms)
collapses to ``2 N t`` on this distribution, where ``t`` is the mean of m
under the closed form at ``f = 1/(2N)``.  That identity is what
`cglmp_chained_value` evaluates; the Born-rule tensor path is kept as the
reference implementation and the two are cross-checked in the test suite.

Setting indices A, B are 1-based (phases alpha_A = (A - 1/2)/N and
beta_B = B/N are defined for A, B = 1 .. N); probability tensors are
indexed ``probs[A-1, B-1, X, Y]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _TASK_PRODUCT, _as_array, _integer, _run_tasks

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
# Amplitudes per block of `joint_from_bases`, held as two 512 KiB float64
# halves (real and imaginary parts): a block stays in cache, and the full
# (N d, N d) amplitude array is never held beside the tensor.  At d=8, N=200
# blocks of 2**14 to 2**17 time within 5 % of each other; 2**20 takes twice
# as long.
_BORN_BLOCK = 1 << 16
# Entries per pooled task of `joint_from_bases` and `closed_form_probs`, at
# the least: a pool costs ~0.18 ms to start, and a (4, 67) Born tensor,
# 2**16 entries, took 0.92 ms pooled against 0.57 ms in the calling thread.
_TENSOR_TASK = 1 << 19


@dataclass(frozen=True, eq=False)
class ChainedSettings:
    """Measurement phases ``alpha[A-1]``, ``beta[B-1]`` of N = ``n`` settings.

    Construction refuses phases that are not real, finite, 1-D, non-empty and
    of one length, and stores them mod d, their period, in [0, d), where the
    Born-rule tensor keeps its accuracy, as read-only arrays."""

    d: int
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _integer("d", self.d, 2))
        for name in ("alpha", "beta"):
            phases = _as_array(getattr(self, name), name)
            if phases.ndim != 1 or phases.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array, got {phases.shape}")
            if not np.isfinite(phases).all():
                raise ValueError(f"{name} has a non-finite phase")
            phases = np.mod(phases, self.d)
            # a tiny negative phase, such as -1e-20, rounds up to d itself
            phases[phases == self.d] = 0.0
            phases.flags.writeable = False
            object.__setattr__(self, name, phases)
        if self.alpha.shape != self.beta.shape:
            raise ValueError(f"alpha and beta differ in length: {self.n} != {self.beta.size}")

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


def chained_settings(d: int, n: int) -> ChainedSettings:
    """Standard chained phases for n settings per side in dimension d."""
    n = _integer("n", n, 1)
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
    d = _integer("d", d, 2)
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def _signaling_residuals(probs: np.ndarray) -> tuple[float, float]:
    """Largest spread of Alice's marginals over Bob's settings, and vice versa."""
    # einsum runs these short d-axis reductions in one pass, about twice as
    # fast as sum(axis=...) on large tensors
    alice = np.einsum("abxy->abx", probs)
    bob = np.einsum("abxy->aby", probs)
    # reducing over the leading axis runs on long rows, over axis 1 on
    # d-long ones: the transposed copy costs less than it saves
    alice_by_b = np.ascontiguousarray(alice.transpose(1, 0, 2))  # (B, A, X)
    # the ufuncs' own reductions: at small n and d the ndarray.max and .min
    # wrappers cost more than the arithmetic
    alice_spread = np.maximum.reduce(alice_by_b, axis=0)
    alice_spread -= np.minimum.reduce(alice_by_b, axis=0)
    bob_spread = np.maximum.reduce(bob, axis=0)
    bob_spread -= np.minimum.reduce(bob, axis=0)
    return (
        float(np.maximum.reduce(alice_spread, axis=None)),
        float(np.maximum.reduce(bob_spread, axis=None)),
    )


def _check_tol(tol: float) -> None:
    """Refuse a NaN or negative tolerance: NaN compares False, so a check at
    it passes everything or nothing, and a negative one fails exact input."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Conditional outcome distribution P(X, Y | A, B), ``probs[A-1, B-1, X, Y]``.

    The one form every tensor reader takes.  ``probs`` is converted once, on
    construction, to a float array of shape (n, n, d, d), n >= 1, d >= 2; any other
    shape, or input that is not a rectangular array of real numbers, raises `ValueError`.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _as_array(self.probs, "probs"))
        shape = self.probs.shape
        if len(shape) != 4 or not shape[0] == shape[1] >= 1 or not shape[2] == shape[3] >= 2:
            raise ValueError(f"probs must have shape (n, n, d, d), got {shape} (n >= 1, d >= 2)")

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def d(self) -> int:
        return self.probs.shape[2]

    def validate(self, tol: float = PROB_TOL) -> None:
        """Check finiteness, sign (entries >= -tol), normalization and
        no-signaling: each party's marginals vary by at most ``tol`` across
        the other party's settings.  Boxes built as distributions are not
        checked (`closed_form_probs`, `random_no_signaling`, and
        `joint_from_bases`, which checks its state and bases instead)."""
        _check_tol(tol)
        p = self.probs
        # NaN compares False, so the sign and sum checks would pass it.  The
        # sums of finite entries can overflow too, so np.isfinite decides
        # which defect a non-finite deviation names.
        deviation = np.maximum.reduce(np.abs(np.einsum("abxy->ab", p) - 1.0), axis=None)
        if not math.isfinite(deviation) and not np.isfinite(p).all():
            raise ValueError("non-finite entry")
        if np.minimum.reduce(p, axis=None) < -tol:
            raise ValueError("negative probability entry")
        if deviation > tol:
            raise ValueError("setting pair not normalized")
        residual = max(_signaling_residuals(p))
        if residual > tol:
            raise ValueError(f"distribution signals (residual {residual:.3g} > {tol:.3g})")


def _joint(dist) -> JointDistribution:
    """``dist`` itself; anything but a `JointDistribution` raises `TypeError`."""
    if not isinstance(dist, JointDistribution):
        raise TypeError(
            f"dist is a {type(dist).__name__}, not a JointDistribution: "
            "wrap the array with JointDistribution first"
        )
    return dist


def _check_bases(bases, name: str, ndim: int) -> np.ndarray:
    """``bases`` as a complex array of measurement bases, the one check of
    every basis: one ``(d, d)`` basis (``ndim`` 2) or a stack ``(N, d, d)``
    of N >= 1 (``ndim`` 3), d >= 2, rows ``[outcome, :]``.

    It is coerced by `_as_array`, must have finite entries and must have
    orthonormal rows, ``max |U U^dagger - I| <= PROB_TOL``; otherwise
    `ValueError` names ``name`` and, in a stack, the first failing 1-based
    setting.  A complex array is returned as it is.
    """
    bases = _as_array(bases, name, complex)
    shape = bases.shape
    stacked = ndim == 3
    if bases.ndim != ndim or shape[-1] != shape[-2] or not stacked and shape[-1] < 2:
        if stacked:
            raise ValueError(f"{name}: basis arrays must have shape (N, d, d), got {shape}")
        raise ValueError(f"{name}: expected a (d >= 2, d) array of basis rows, got {shape}")
    d = shape[-1]
    if not bases.size or d < 2:
        raise ValueError(f"{name}: basis arrays need N >= 1 and d >= 2, got shape {shape}")
    # named as such, before the Gram product would turn it into a NaN
    if not np.isfinite(bases).all():
        raise ValueError(f"{name} has a non-finite entry")
    # huge finite entries overflow to inf, and inf * 0 to NaN: both are
    # refused below by name, not by a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        gram = bases @ np.swapaxes(bases, -1, -2).conj()
        # the diagonals, as a strided view of the new, contiguous product
        gram.reshape(-1, d * d)[:, :: d + 1] -= 1.0
        deviation = np.abs(gram).max(axis=(-2, -1)).reshape(-1)
    bad = ~(deviation <= PROB_TOL)  # a NaN deviation fails too
    if bad.any():
        k = np.flatnonzero(bad)[0]
        basis = f"{name} setting {k + 1}" if stacked else name
        raise ValueError(
            f"{basis} is not an orthonormal basis: "
            f"max |U U^dagger - I| = {deviation[k]:.3g} > {PROB_TOL:g}"
        )
    return bases


def joint_from_bases(
    state: np.ndarray, alice: np.ndarray, bob: np.ndarray
) -> JointDistribution:
    """Born-rule joint distribution of a bipartite state under given bases.

    ``alice``/``bob`` have shape (N, d, d), N >= 1 and d >= 2, with rows
    ``[setting, outcome, :]``, and ``state`` is one-dimensional with d**2
    entries.  They are checked on entry, before any product, Alice's first,
    and `ValueError` names the first defect: each stack goes through the one
    basis check, `_check_bases` (which names the first 1-based setting whose
    rows are not orthonormal, ``max |U U^dagger - I| > PROB_TOL``), and the
    state through the one array check: one-dimensional (never flattened),
    finite, with a norm^2 within ``PROB_TOL`` of 1.

    The tensor is then not checked again: under the Born rule with complete
    measurements it is a distribution by construction.  Its entries are
    squares, so never negative, and with a norm^2 and Gram matrices within
    ``PROB_TOL`` of 1 and I, each setting pair sums to 1 and each party's
    marginals agree across the other party's settings to about
    ``2 d PROB_TOL``, plus rounding.

    The amplitudes ``<X_A (x) Y_B | psi>`` come a block of Alice settings at
    a time, ``max(1, 2**16 // (N d^2))`` of them, in real arithmetic: with
    ``h`` Alice's half-contracted rows and ``B`` Bob's conjugated columns,
    ``[Re h | -Im h]`` and ``[Im h | Re h]`` times ``[Re B; Im B]`` give the
    real and imaginary parts of a ``(rows d, N d)`` block, whose squares are
    summed in place and written into the ``(N, N, d, d)`` tensor.

    The blocks run as contiguous tasks of at least ``_TENSOR_TASK`` (2**19)
    amplitudes on `bloch._run_tasks`, the package's one thread pool.  Each
    task owns one ~1 MiB buffer for all of its blocks and cuts each block's
    two products into column slabs, a multiple of 16 wide, of at most
    ``bloch._TASK_PRODUCT`` (2**18) multiply-adds, so that OpenBLAS runs
    them in the worker's own thread.  A tensor of fewer than 2**20
    amplitudes, or one where a 16-column slab of a block passes that bound
    (d > 90), is one task in the calling thread with whole products, which
    OpenBLAS may split over its own threads.  Each entry is the same dot
    product over 2d terms whatever the slab, task or thread, so none of
    them moves a bit.  Peak memory is the tensor, one buffer per worker and
    the ``(N d, 2 d)`` factors.  Nothing here uses the phase structure of
    the chained bases, so this stays the independent reference for
    `closed_form_probs`.
    """
    alice = _check_bases(alice, "alice", 3)
    bob = _check_bases(bob, "bob", 3)
    if bob.shape != alice.shape:
        raise ValueError("Alice and Bob basis arrays must share a shape")
    n, d = alice.shape[0], alice.shape[1]
    s = _as_array(state, "state", complex)
    if s.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {s.shape}")
    if s.shape[0] != d * d:
        raise ValueError(f"state length {s.shape[0]} does not match d={d}")
    if not np.isfinite(s).all():
        raise ValueError("state has a non-finite entry")
    norm2 = np.vdot(s, s).real
    if abs(norm2 - 1.0) > PROB_TOL:
        raise ValueError(f"state is not normalized: norm^2 - 1 = {norm2 - 1.0:.3g}")
    # re[(A, X), (B, Y)] + i im[...] = <X_A (x) Y_B | psi>, `rows` settings A at a time
    half = alice.conj().reshape(n * d, d) @ s.reshape(d, d)
    w_re = np.concatenate([half.real, -half.imag], axis=1)
    w_im = np.concatenate([half.imag, half.real], axis=1)
    del half
    # [Re; Im] of Bob's conjugated rows as columns, zero-padded to a multiple
    # of 16: OpenBLAS rounds a ragged tile of columns differently with the
    # number of rows, and the last bits of the tensor would then depend on
    # the block size
    bob = bob.reshape(n * d, d)
    cols = np.zeros((2 * d, -(-n * d // 16) * 16))
    cols[:d, : n * d] = bob.real.T
    np.negative(bob.imag.T, out=cols[d:, : n * d])
    width = cols.shape[1]
    probs = np.empty((n, n, d, d))
    rows = max(1, _BORN_BLOCK // (n * d * d))
    blocks = range(0, n, rows)
    height = min(rows, n) * d  # rows of the largest block
    # columns per product: a multiple of 16 within _TASK_PRODUCT multiply-adds
    slab = _TASK_PRODUCT // (height * 2 * d) // 16 * 16
    n_tasks = min(len(blocks), (n * d) ** 2 // _TENSOR_TASK) if slab else 1
    if n_tasks < 2:
        # whole products: OpenBLAS may split them over its own threads, and
        # at d = 100 one took ~0.6x the time of its 2**18 slabs
        n_tasks, slab = 1, width

    def task(t: int) -> None:
        buf = np.empty((2, height, width))
        for a in blocks[t * len(blocks) // n_tasks : (t + 1) * len(blocks) // n_tasks]:
            k = min(rows, n - a) * d
            re, im = buf[0, :k], buf[1, :k]
            for c in range(0, width, slab):
                np.matmul(w_re[a * d : a * d + k], cols[:, c : c + slab], out=re[:, c : c + slab])
                np.matmul(w_im[a * d : a * d + k], cols[:, c : c + slab], out=im[:, c : c + slab])
            re *= re
            im *= im
            re += im
            probs[a : a + rows] = re[:, : n * d].reshape(-1, d, n, d).transpose(0, 2, 1, 3)

    _run_tasks(task, n_tasks)
    return JointDistribution(probs)


def joint_distribution(state: np.ndarray, settings: ChainedSettings) -> JointDistribution:
    """Joint distribution of ``state`` under the chained measurement bases."""
    alice, bob = cglmp_bases(settings)
    return joint_from_bases(state, alice, bob)


def _difference_probs(d: int, r: np.ndarray) -> np.ndarray:
    """The one evaluation of the closed form: ``P_m = sin^2(pi theta) / (d^2
    sin^2(pi theta / d))`` at ``theta = r + m`` for reduced gaps ``r`` in
    [-1/2, 1/2] and classes m = 1 .. d-1; shape r.shape + (d,).

    Every such theta lies at least 1/2 from each multiple of d, so neither
    sine vanishes and no limit is needed.  Column m = 0, the class at
    ``theta = r`` that may sit on the limit, is left exactly 0 (its weight in
    I_N); `closed_form_probs` fills it as the complement of the others.
    """
    pi_theta = np.pi * (r[..., None] + np.arange(d))
    den = np.sin(pi_theta / d) ** 2
    den[..., 0] = np.inf
    num = np.sin(pi_theta) ** 2
    return num / (d * d * den)


def closed_form_probs(settings: ChainedSettings) -> JointDistribution:
    """Analytic joint distribution, equal to the Born-rule path entrywise
    (to ~1e-15 at any finite phases; tests check 1e-12 up to |phase| = 1e9).

    Entry (A, B, X, Y) is ``sin^2(pi theta) / (d^3 sin^2(pi theta / d))``
    with ``theta = Y - X + alpha_A - beta_B``, taking the limit 1/d at
    theta = 0 (mod d).  Each distinct phase gap (1296 for the standard
    settings at N = 200, against 40 000 setting pairs) is split exactly
    into ``t = round(gap)`` and ``r = gap - t`` in [-1/2, 1/2]; as the law
    has period d in theta, class m of the gap is the kernel's column
    ``(m + t) mod d`` at r, and column 0, the one class near a multiple of
    d, is one minus the others, so each block sums to 1 to rounding.  Each
    setting pair finds its gap by `np.searchsorted` in the sorted distinct
    gaps, which hold it exactly, and `np.take` writes whole d x d blocks
    straight into the tensor (``mode="clip"``: with "raise" numpy gathers
    into a copy first).  The gather runs on `bloch._run_tasks` in tasks of
    contiguous Alice settings, at least ``_TENSOR_TASK`` (2**19) entries
    each, so a tensor of fewer than 2**20 entries is one task in the
    calling thread; a copy has no bits to move.  Being a distribution by
    construction, it is not validated.
    """
    d, n = settings.d, settings.n
    diffs = np.subtract.outer(settings.alpha, settings.beta)
    # the distinct gaps, sorted: np.unique's first call under numpy 2 imports
    # numpy.ma, ~10 ms of a fresh process
    gaps = np.sort(diffs, axis=None)
    gaps = gaps[np.concatenate(([True], gaps[1:] != gaps[:-1]))]
    turns = np.round(gaps).astype(int)
    pm = _difference_probs(d, gaps - turns)  # (gap, class at r)
    pm[:, 0] = 1.0 - pm[:, 1:].sum(axis=1)
    # flat indices into pm of class m = 0 .. d-1 of each gap
    classes = (turns[:, None] + np.arange(d)) % d + np.arange(0, pm.size, d)[:, None]
    m = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d  # m[X, Y] = (Y-X) mod d
    # (gap, X, Y), C-contiguous: np.take copies a strided source first
    blocks = np.take(pm.take(classes) / d, m, axis=1)
    probs = np.empty((n, n, d, d))
    n_tasks = max(1, min(n, (n * d) ** 2 // _TENSOR_TASK))

    def task(t: int) -> None:
        rows = slice(t * n // n_tasks, (t + 1) * n // n_tasks)
        # the sorted gaps hold every entry of diffs, so each one's index is
        # exact; "clip" writes straight into probs, "raise" into a copy first
        where = np.searchsorted(gaps, diffs[rows])
        np.take(blocks, where, axis=0, out=probs[rows], mode="clip")

    _run_tasks(task, n_tasks)
    return JointDistribution(probs)


def _chain_terms(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The one definition of the chain's 2N terms, N = ``n`` >= 1: runs ``(sign, shift,
    A0, B0, length)`` of terms ``[sign (X_A - Y_B) - shift]`` at 0-based setting pairs
    ``(A0 + i, B0 + i)``, i < length: ``[X_i - Y_i]``, ``[Y_i - X_{i+1}]``, ``[Y_N - X_1 - 1]``."""
    return ((1, 0, 0, 0, n), (-1, 0, 1, 0, n - 1), (-1, 1, 0, n - 1, 1))


def chained_value(dist: JointDistribution) -> float:
    """The chained quantity I_N of a joint distribution, run by run of `_chain_terms`.

    A run's d x d blocks, pairs ``(A0 + i, B0 + i)``, lie n + 1 blocks apart
    in the ``(n n, d, d)`` view of the tensor, so one strided slice holds
    them all and one reduction sums them, in pair order.  The three sums
    are weighted by one product and each summed on its own, and I_N adds
    the three totals in run order, ``(t0 + t1) + t2``: the built-in `sum`
    compensates from Python 3.12 on, so its last bit would depend on the
    interpreter.  A ``dist`` that is not a `JointDistribution`, such as a
    bare array, raises `TypeError`.
    """
    probs = _joint(dist).probs
    n, d = probs.shape[0], probs.shape[2]
    blocks = probs.reshape(n * n, d, d)
    runs = np.empty((3, d, d))
    for run, (_, _, a, b, k) in zip(runs, _chain_terms(n)):
        np.add.reduce(blocks[a * n + b :: n + 1][:k], axis=0, out=run)
    runs *= _chain_weights(d)
    t0, t1, t2 = np.add.reduce(runs, axis=(1, 2)).tolist()
    return (t0 + t1) + t2


@functools.lru_cache(maxsize=32)
def _chain_weights(d: int) -> np.ndarray:
    """Read-only weights ``[sign (X - Y) - shift]`` (mod d) of the runs of
    `_chain_terms`, whose signs and shifts do not depend on N, as floats
    indexed ``[run, X, Y]``."""
    x, y = np.ogrid[:d, :d]
    weights = np.array([(sign * (x - y) - shift) % d for sign, shift, *_ in _chain_terms(1)], float)
    weights.flags.writeable = False
    return weights


def _chained_values(d: int, ns) -> np.ndarray:
    """``I_N = 2 N sum_m m P_m(1/(2N))`` for each N in ``ns``, in one pass.

    ``ns`` holds Python integers >= 1 (checked by the caller).  The gap
    ``1/(2N)`` lies in (0, 1/2], already reduced, so each row is
    `_difference_probs` at it; its m = 0 column is 0, the weight it has in
    the sum, and stays in it: dropping it would shift numpy's pairwise
    summation and the last bits with it.  2N is rounded from the Python int, not cast to int64, so N
    past 2**63 works and 2N past the float range raises `OverflowError`, as
    ``1.0 / (2 * n)`` does.
    """
    two_n = np.array([float(2 * n) for n in ns])
    return two_n * (np.arange(d) * _difference_probs(d, 1.0 / two_n)).sum(axis=1)


def cglmp_chained_value(d: int, n: int) -> float:
    """Exact I_N on the maximally entangled state, fast closed form.

    All 2N terms of the chain are equal by phase symmetry, so
    ``I_N = 2 N sum_m m P_m(1/(2N))``.  Agrees with
    ``chained_value(joint_distribution(...))`` to 1e-10.
    """
    d, n = _integer("d", d, 2), _integer("n", n, 1)
    return float(_chained_values(d, [n])[0])


def gamma_factor(d: int) -> float:
    """Leading coefficient of the large-N decay of I_N, in closed form.

    ``gamma = pi^2/(4 d^2) * sum_{j=1}^{d-1} j / sin^2(pi j / d)``.  Pairing
    j with d - j gives ``sum_j j csc^2(pi j/d) = (d/2) sum_j csc^2(pi j/d)
    = d (d^2 - 1)/6``, so ``gamma = pi^2 (d^2 - 1) / (24 d)``.  Expanding
    the closed form of I_N in ``f = 1/(2N)`` gives

        I_N = 2 gamma / N + c2 / N^2 + O(1/N^3),
        c2(d) = -(pi^3 / (2 d^3)) sum_{m=1}^{d-1} m cos(pi m/d) / sin^3(pi m/d),

    with c2 > 0 for d >= 3 (0.4420 at d=3, 0.9689 at d=4).  The terms m and
    d-m cancel at d=2, so c2(2) = 0: there ``I_N = 2N sin^2(pi/(4N))``
    exactly and the first correction is cubic, ``-pi^4/(384 N^3)``.

    Relative error against the 40-digit mpmath sum: at most 2.4e-16 over
    d = 2..1000.
    """
    d = _integer("d", d, 2)
    return math.pi**2 * (d * d - 1) / (24 * d)


def asymptotic_chained_value(d: int, n: int) -> float:
    """Leading-order approximation ``2 gamma(d) / N`` of the exact I_N.

    The error is ``c2(d)/N^2 + O(1/N^3)`` with c2 as in `gamma_factor`; at
    d=2, where c2 vanishes, it is ``-pi^4/(384 N^3) + O(1/N^5)``.
    """
    n = _integer("n", n, 1)
    return 2.0 * gamma_factor(d) / n
