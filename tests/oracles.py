"""Pointwise and finite-difference forms that the tests use as oracles.

No suite calls these.  ``k2_eval`` is the K2 kernel evaluated pointwise, against
which the panel scans of ``ssvortex.resolvent`` and the kernel-composition
identity are checked; ``linear_panel_weights`` and ``quadratic_panel_weights``
are the scans' panel weights as the quadrature defines them, before the scan
plan folds its recurrence factor into them; ``second_order_relation`` applies
the differential operator that the K1 convolution inverts, by finite
differences.

No suite calls the appendix series either.  After the substitution
z = -2ik r^{-alpha} (amplitude normalized to beta = 1, symmetry fold m = 2),
the homogeneous mode equation becomes a third-order ODE whose regular-at-zero
branch is the regularized hypergeometric series 2F~2(a1, a2; b1, b2; z) with

    a1 = -2k/alpha - q#,  a2 = -2k/alpha + q#,
    b1 = (alpha - 4k)/alpha,  b2 = (2 - 2k + alpha*lambda)/alpha,
    q# = sqrt(alpha^2 - 2*alpha + 4k^2)/alpha.

``homo2_params`` gives these parameters, ``hyp2f2_regularized`` sums the
series and ``homo2_defect`` measures how well it solves its ODE; the tests tie
it to the right-admissible vector of ``ssvortex.homogeneous``'s shooting flow.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from ssvortex.modes import ModeFunction, _fd4
from ssvortex.params import VortexParams
from ssvortex.resolvent import KernelK2


def k2_eval(t, s, kernel: KernelK2):
    """Evaluate K2(t, s); zero for t >= s (the indicator is open at the seam)."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    p = kernel.params
    c = p.phase_amplitude(kernel.k)
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


# term budget of the 2F2 series
SERIES_MAX_TERMS = 800


def q_frak(alpha: float, k: int) -> float:
    return math.sqrt(alpha * alpha - 2.0 * alpha + 4.0 * k * k) / alpha


@dataclass(frozen=True)
class Homo2Params:
    """Hypergeometric parameter bundle for the transformed third-order ODE."""

    a1: complex
    a2: complex
    b1: complex
    b2: complex
    q_frak: float


def homo2_params(params: VortexParams, k: int, lam: complex) -> Homo2Params:
    """Parameter choice (amplitude normalized to 1); the form holds for m = 2 only."""
    if k < 1:
        raise ValueError("the transformed equation is defined for k >= 1")
    if params.m != 2:
        raise ValueError("the hypergeometric form is derived for m = 2")
    alpha = params.alpha
    qf = q_frak(alpha, k)
    return Homo2Params(
        a1=-2.0 * k / alpha - qf,
        a2=-2.0 * k / alpha + qf,
        b1=(alpha - 4.0 * k) / alpha,
        b2=(2.0 - 2.0 * k + alpha * complex(lam)) / alpha,
        q_frak=qf,
    )


class SeriesError(RuntimeError):
    """Raised when the hypergeometric series fails to converge in budget."""


def hyp2f2_regularized(a1, a2, b1, b2, z):
    """Regularized series sum_n (a1)_n (a2)_n z^n / (n! Gamma(b1+n) Gamma(b2+n)).

    Entire in the lower parameters: nonpositive-integer b's contribute zero
    reciprocal-gamma factors until the pole region is passed.  Stops once the
    term magnitude stays below 1e-16 of the partial sum for 3 consecutive
    terms.
    """
    z = complex(z)
    if z == 0:
        return sp.rgamma(b1) * sp.rgamma(b2)
    if abs(z) > 50.0:
        raise SeriesError(f"|z| = {abs(z):.3g} beyond the supported term budget")
    total = 0.0 + 0.0j
    poch = 1.0 + 0.0j
    zn = 1.0 + 0.0j
    consec = 0
    n_min = int(max(8.0, -np.real(b1), -np.real(b2), 2.0 * abs(z))) + 4
    for n in range(SERIES_MAX_TERMS):
        term = poch * zn * sp.rgamma(b1 + n) * sp.rgamma(b2 + n)
        total += term
        if n >= n_min:
            if abs(term) < 1e-16 * max(abs(total), 1e-300):
                consec += 1
                if consec >= 3:
                    break
            else:
                consec = 0
        poch *= (a1 + n) * (a2 + n) / (n + 1.0)
        zn *= z
    else:
        raise SeriesError(f"series did not settle within {SERIES_MAX_TERMS} terms at z = {z}")
    return total


def homo2_defect(p: Homo2Params, z_values) -> float:
    """Max relative defect of the third-order ODE for the series branch.

    The z-derivatives are exact: the j-th one is (a1)_j (a2)_j times the series
    with every parameter raised by j (DLMF 16.3.1).  Each defect is normalized
    by the largest of the four ODE terms so the metric is scale-free.
    """
    worst = 0.0
    for z in np.atleast_1d(z_values):
        z = complex(z)
        w = []
        poch = 1.0
        for j in range(4):
            w.append(poch * hyp2f2_regularized(p.a1 + j, p.a2 + j, p.b1 + j, p.b2 + j, z))
            poch *= (p.a1 + j) * (p.a2 + j)
        w0, d1, d2, d3 = w
        t1 = z * z * d3
        t2 = z * (1.0 - z + p.b1 + p.b2) * d2
        t3 = (p.b1 * p.b2 - z * (p.a1 + p.a2 + 1.0)) * d1
        t4 = -p.a1 * p.a2 * w0
        scale = max(abs(t1), abs(t2), abs(t3), abs(t4), 1e-300)
        worst = max(worst, abs(t1 + t2 + t3 + t4) / scale)
    return worst
