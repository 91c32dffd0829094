"""The midpoint-rule J0, the reference that tests check
`thzest.baselines._bessel_j0` against."""

import numpy as np


def midpoint_j0(x) -> np.ndarray:
    """J0(x) = (1/pi) int_0^pi cos(x cos t) dt by the midpoint rule, in
    long double.

    The integrand is even and 2*pi-periodic in t, so n midpoints miss only
    the Fourier terms J_{2kn}(x), k >= 1.  With n > max|x| + 32 those fall
    below rounding.  It is also even about t = pi/2, so the sum doubles the
    first n//2 nodes and, for odd n, adds the middle node's cos(0) = 1.
    Each phase x cos t rounds by up to ulp(x)/2, which in double precision
    puts the sum 1.3e-14 off J0 at x = 3322; x86's 80-bit long double
    keeps it within 1e-16 up to x = 4000.  Cost and memory grow as
    len(x) * max|x|, so callers pass a few hundred points at a time.
    """
    x = np.asarray(x, dtype=np.longdouble)
    n = int(np.max(np.abs(x), initial=0.0)) + 33
    t = (np.arange(n // 2, dtype=np.longdouble) + 0.5) * np.pi / n
    phase = np.multiply.outer(x, np.cos(t))
    half = np.sum(np.cos(phase, out=phase), axis=-1)
    return ((2 * half + n % 2) / n).astype(float)
