"""Test-only helpers shared by several test modules."""

import numpy as np


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]


def set_cpus(monkeypatch, cpus: int) -> None:
    """Make the package's thread pool, `bloch._run_tasks`, see ``cpus`` CPUs."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
