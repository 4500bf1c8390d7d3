"""Pointwise and finite-difference forms that the tests use as oracles.

No suite calls these.  ``k2_eval`` is the K2 kernel evaluated pointwise, against
which the panel scans of ``ssvortex.resolvent`` and the kernel-composition
identity are checked; ``linear_panel_weights`` and ``quadratic_panel_weights``
are the scans' panel weights as the quadrature defines them, before the scan
plan folds its recurrence factor into them; ``second_order_relation`` applies
the differential operator that the K1 convolution inverts, by finite
differences.
"""

import math

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


def _unit_moments(z, j_max: int) -> list:
    """I_j = int_0^1 u^j e^{zu} du for j = 0..j_max, elementwise in z: the
    exponential series below |z| = 1, where the closed form cancels, and the
    integration-by-parts recursion I_j = (e^z - j I_{j-1}) / z from
    I_0 = (e^z - 1) / z above it."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1.0
    zc = np.where(small, 1.0, z)
    ez = np.exp(zc)
    closed = [(ez - 1.0) / zc]
    for j in range(1, j_max + 1):
        closed.append((ez - j * closed[-1]) / zc)
    return [np.where(small, sum(z**n / (math.factorial(n) * (n + j + 1)) for n in range(30)),
                     closed[j]) for j in range(j_max + 1)]


def linear_panel_weights(grid, alpha: float, B: complex, c: float):
    """Weights (wi, wj) of the K2 scan's linear panels for c != 0: the integral
    over panel [t_i, t_{i+1}] of e^{ic(e^{-alpha s} - e^{-alpha t_i})} e^{B(t_i - s)}
    g(s) ds is sum_i wi_i g_i + wj_i g_{i+1} when g / (alpha w) is linear in
    w = e^{-alpha s}.  With u in [0, 1] along w from w_i to w_{i+1} the phase is
    e^{-iyu}, y = c (w_i - w_{i+1}), and ds = (w_i - w_{i+1}) du / (alpha w),
    where (w_i - w_{i+1}) / w_i = 1 - e^{-alpha h} on the uniform grid."""
    w = np.exp(-alpha * grid.nodes)
    I0, I1 = _unit_moments(-1j * c * (w[:-1] - w[1:]), 1)
    h = grid.h
    return (I0 - I1) * (-math.expm1(-alpha * h) / alpha), \
        I1 * (np.exp(-B * h) * math.expm1(alpha * h) / alpha)


def quadratic_panel_weights(grid, B: complex):
    """Weights (wi, wj, wk) of ``solve_k0``'s panels (c == 0): the integrals of
    the Lagrange basis through t_i, t_{i+1}, t_{i+2} against e^{B(t_i - s)} over
    [t_i, t_{i+1}]; the last panel is linear (wi, wj only; wk has npan - 1
    entries)."""
    h, npan = grid.h, grid.n - 1
    I0, I1, I2 = (h * m for m in _unit_moments(-B * h, 2))
    wi = np.full(npan, I0 - I1)           # 1 - u
    wj = np.full(npan, I1)                # u
    wi[:-1] = (I2 - 3 * I1 + 2 * I0) / 2  # (u - 1)(u - 2) / 2
    wj[:-1] = 2 * I1 - I2                 # u (2 - u)
    return wi, wj, np.full(npan - 1, (I2 - I1) / 2)  # u (u - 1) / 2


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
