"""Pointwise and finite-difference forms that the tests use as oracles.

No suite calls these.  ``k2_eval`` is the K2 kernel evaluated pointwise, against
which the panel scans of ``ssvortex.resolvent`` and the kernel-composition
identity are checked; ``second_order_relation`` applies the differential
operator that the K1 convolution inverts, by finite differences.
"""

import numpy as np

from ssvortex.modes import ModeFunction, _fd4
from ssvortex.params import VortexParams
from ssvortex.resolvent import KernelK2


def k2_eval(t, s, kernel: KernelK2):
    """Evaluate K2(t, s); zero for t >= s (the indicator is open at the seam)."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    p = kernel.params
    c = kernel.phase_amplitude
    expo = (
        -1j * c * np.exp(-p.alpha * t)
        + 1j * c * np.exp(-p.alpha * s)
        + (t - s) * kernel.B
    )
    out = np.exp(np.where(t - s < 0.0, expo, -np.inf))
    return out if out.ndim else complex(out)


def second_order_relation(psi: ModeFunction, params: VortexParams) -> ModeFunction:
    """Apply psi'' + (4-4/q) psi' + ((2-2/q)^2 - (mk)^2) psi by finite differences,
    with k the mode index of psi.

    Interior points use 4th-order centered stencils; the two points at each end
    fall back to 2nd order and should be excluded from residual metrics.
    """
    q, m = params.q, params.m
    h = psi.grid.h
    y = psi.samples
    n = y.size
    d1 = _fd4(y, h)
    d2 = np.empty(n, dtype=complex)
    d2[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h * h)
    # one-sided 2nd order at the ends, centered 2nd order one point in
    d2[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / (h * h)
    d2[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / (h * h)
    d2[1] = (y[0] - 2 * y[1] + y[2]) / (h * h)
    d2[-2] = (y[-3] - 2 * y[-2] + y[-1]) / (h * h)
    c1 = 4.0 - 4.0 / q
    c0 = (2.0 - 2.0 / q) ** 2 - float(m * psi.k) ** 2
    return psi.with_samples(d2 + c1 * d1 + c0 * y)
