"""Extended-precision references shared by the tests.

mpmath is optional: import this module inside the test that needs it, so
that without mpmath that test alone is skipped.
"""

import pytest

mpmath = pytest.importorskip("mpmath")


def kappa(n):
    """``E|u . w| = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))`` for u uniform on
    the sphere S^{n-1} and any fixed unit w, at mpmath's working precision."""
    half = mpmath.mpf(n) / 2
    return mpmath.gamma(half) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(half + 0.5))


def difference_probs(d, gap):
    """``P_m = sin^2(pi theta) / (d^2 sin^2(pi theta / d))`` at ``theta = gap
    + m`` for m = 0 .. d-1, with the limit 1 where theta is a multiple of d,
    at mpmath's working precision; the float ``gap`` is taken exactly."""
    probs = []
    for m in range(d):
        theta = mpmath.mpf(gap) + m
        theta -= d * mpmath.nint(theta / d)  # the law has period d
        if theta == 0:
            probs.append(mpmath.mpf(1))
        else:
            ratio = mpmath.sin(mpmath.pi * theta) / mpmath.sin(mpmath.pi * theta / d)
            probs.append(ratio**2 / d**2)
    return probs
