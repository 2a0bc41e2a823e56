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
