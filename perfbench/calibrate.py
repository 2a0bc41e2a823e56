"""Machine-speed gauges that make timings comparable across runs.

The benchmark shares its machine with others, and the speed of this
process's CPU moves in phases: on a 2-core virtual machine the same code ran up to
2x slower for a minute or more at a time.  No median inside one run removes
a phase that outlasts the run, so every end-to-end time is reported in
*nominal seconds*: the raw time divided by a speed factor measured during
the same run.

A factor is the time of a fixed reference kernel divided by that kernel's
nominal time.  The kernels belong to the benchmark, so no change to the
library can move them.  Different kinds of work slow down by different
amounts in a slow phase (interpreter-bound loops more than large array
operations), so each workload is gauged by a kernel shaped like its own
hot path at the commit that defined the benchmark, copied here so that the
library can change without moving its gauge:

* ``gaussian_block``  -- a 2**15 x 35 Philox normal draw, row norms and a
  small matrix product: half a sphere-uniform Monte Carlo chunk at d = 6,
  with a working set larger than the caches like the chunk's own.
* ``bloch_map_loop``  -- the pure-state Bloch map, a few small numpy calls
  and a three-operand einsum per state (the per-sample loop behind
  Haar-pure Monte Carlo).
* ``closed_form_loop``-- one closed-form chained value per N, a handful of
  small numpy calls each (the critical-N scan).
* ``small_box_loop``  -- fresh Philox streams, small integer draws and tiny
  einsums (the no-signaling trials).

Subprocess timings are gauged the same way by pairing each spawn with a
spawn of ``python3 -c "import numpy"``.

Each nominal time is the 10th percentile of the kernel's time over 90 s on
a 2-core Xeon virtual machine, so a nominal second is a wall-clock second in that
machine's fast phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20251017)
_W = _RNG.standard_normal((35, 6))
_MATS = _RNG.standard_normal((15, 4, 4)) + 1j * _RNG.standard_normal((15, 4, 4))
_PSI = _RNG.standard_normal((200, 4)) + 1j * _RNG.standard_normal((200, 4))
_PSI /= np.linalg.norm(_PSI, axis=1)[:, None]
_STREAM_KEY = np.array([7, 0], dtype=np.uint64)


def gaussian_block() -> float:
    gen = np.random.Generator(np.random.Philox(key=_STREAM_KEY))
    x = gen.standard_normal((2**15, 35))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return float(np.abs(x @ _W).sum())


@dataclass(frozen=True)
class _Basis:
    dimension: int
    matrices: np.ndarray


@lru_cache(maxsize=None)
def _basis_matrices(d: int) -> np.ndarray:
    return _MATS


def _state_to_bloch(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    d = psi.shape[0]
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError("dimension must be an integer >= 2")
    if abs(float(np.sum(np.abs(psi) ** 2)) - 1.0) > 1e-12:
        raise ValueError("state is not normalized")
    mats = _Basis(dimension=d, matrices=_basis_matrices(d)).matrices
    tr = np.einsum("i,kij,j->k", psi.conj(), mats, psi)
    return np.real(tr) * math.sqrt(d / (2.0 * (d - 1)))


def bloch_map_loop() -> float:
    return float(np.stack([_state_to_bloch(s) for s in _PSI]).sum())


def _difference_probs(d: int, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    theta = f[..., None] + np.arange(d)
    small = theta / d - np.round(theta / d)
    den = np.sin(np.pi * theta / d) ** 2
    num = np.sin(np.pi * theta) ** 2
    safe = np.abs(small) > 1e-12
    out = np.empty_like(den)
    out[safe] = num[safe] / (d * d * den[safe])
    out[~safe] = 1.0
    return out


def closed_form_loop() -> float:
    acc = 0.0
    for n in range(1, 201):
        pm = _difference_probs(5, np.array(1.0 / (2 * n)))
        acc += float(2 * n * np.sum(np.arange(5) * pm))
    return acc


def small_box_loop() -> float:
    acc = 0.0
    idx = np.arange(3)
    for t in range(100):
        gen = np.random.Generator(np.random.Philox(key=np.array([11, t], dtype=np.uint64)))
        one_a = np.zeros((3, 3))
        one_a[idx, gen.integers(0, 3, size=3)] = 1.0
        one_b = np.zeros((3, 3))
        one_b[idx, gen.integers(0, 3, size=3)] = 1.0
        p = np.einsum("ax,by->abxy", one_a, one_b) * gen.dirichlet(np.ones(2))[0]
        acc += float(np.einsum("iixy->xy", p).sum()) + float(np.ptp(p.sum(axis=3), axis=1).max())
    return acc


# kernel -> nominal seconds per call
KERNELS = {
    "gaussian_block": (gaussian_block, 29e-3),
    "bloch_map_loop": (bloch_map_loop, 2.5e-3),
    "closed_form_loop": (closed_form_loop, 3.6e-3),
    "small_box_loop": (small_box_loop, 5.1e-3),
}

SPAWN_REFERENCE = "import numpy; print('ready', flush=True)"
SPAWN_NOMINAL_S = 0.1


class SpeedGauge:
    """Times a reference kernel between jobs and smooths the speed factor.

    A sample is one kernel call's time over the kernel's nominal time:
    above 1 the machine is running slow.  Samples are taken at least
    ``every_s`` apart and use at most 5% of the time.  ``factor_at(t)`` is
    the median of the samples within ``window_s`` of ``t``, so a job is
    normalized by the speed the machine had around the time it ran, and
    one noisy sample cannot move it.
    """

    def __init__(self, kernel: str, every_s: float = 0.1, window_s: float = 1.0):
        self.kernel, self.nominal = KERNELS[kernel]
        self.kernel()  # first call pays for allocation and caches
        self.every_s = every_s
        self.window_s = window_s
        self.times: list[float] = []
        self.factors: list[float] = []
        self.spent_s = 0.0  # seconds spent in kernel calls
        self.measure()

    def measure(self) -> float:
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self._cost_s = t1 - t0
        self.spent_s += self._cost_s
        self.times.append(0.5 * (t0 + t1))
        self.factors.append(self._cost_s / self.nominal)
        return self.factors[-1]

    def maybe_measure(self) -> None:
        if perf_counter() - self.times[-1] >= max(self.every_s, 20 * self._cost_s):
            self.measure()

    def factor_at(self, t: float) -> float:
        times = np.asarray(self.times)
        near = np.abs(times - t) <= self.window_s
        if not near.any():
            near = np.abs(times - t) == np.abs(times - t).min()
        return float(np.median(np.asarray(self.factors)[near]))
