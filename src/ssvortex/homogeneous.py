"""Homogeneous-equation analysis: hypergeometric parameters, series evaluation,
and two-sided shooting.

After the substitution z = -2ik r^{-alpha} (amplitude normalized to beta = 1,
symmetry fold m = 2), the homogeneous mode equation becomes a third-order ODE
whose regular-at-zero branch is the regularized hypergeometric series
2F~2(a1, a2; b1, b2; z) with

    a1 = -2k/alpha - q#,  a2 = -2k/alpha + q#,
    b1 = (alpha - 4k)/alpha,  b2 = (2 - 2k + alpha*lambda)/alpha,
    q# = sqrt(alpha^2 - 2*alpha + 4k^2)/alpha.

Whether any solution of the original equation is q-integrable is decided
numerically: the two-dimensional manifold of solutions admissible at t -> -inf
is integrated as a wedge (cross-product) vector, the one-dimensional manifold
admissible at t -> +inf as a plain vector, and the normalized connection
determinant at t = 0 measures their transversality.  A mismatch above threshold
certifies that no nontrivial integrable solution exists at that lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from scipy.integrate import solve_ivp

from .modes import KernelK1
from .params import VortexParams

NO_INTEGRABLE = "no_integrable_solution"
INCONCLUSIVE = "inconclusive"

# a normalized connection determinant above this certifies NO_INTEGRABLE
MISMATCH_THRESHOLD = 1e-6
# wedge/vector integration: DOP853 relative tolerance, and the number of
# chunks per side after each of which the state is renormalized
SHOOT_RTOL = 1e-8
SHOOT_CHUNKS = 24
# the left side is integrated from t = -SHOOT_SPAN and the right side from
# t = SHOOT_SPAN, both to the matching point t = 0
SHOOT_SPAN = 12.0
# term budget of the 2F2 series
SERIES_MAX_TERMS = 800
# step of the z-derivative stencils in homo2_defect, relative to |z|
DEFECT_REL_STEP = 5e-4


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
    k: int
    alpha: float
    lam: complex


def homo2_params(params: VortexParams, k: int, lam: complex) -> Homo2Params:
    """Parameter choice (amplitude normalized to 1, m = 2 convention)."""
    if k < 1:
        raise ValueError("the transformed equation is defined for k >= 1")
    alpha = params.alpha
    lam = complex(lam)
    qf = q_frak(alpha, k)
    return Homo2Params(
        a1=-2.0 * k / alpha - qf,
        a2=-2.0 * k / alpha + qf,
        b1=(alpha - 4.0 * k) / alpha,
        b2=(2.0 - 2.0 * k + alpha * lam) / alpha,
        q_frak=qf,
        k=k,
        alpha=alpha,
        lam=lam,
    )


def _rgamma(z) -> complex:
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        return 0.0 + 0.0j
    return 1.0 / complex(sp.gamma(z))


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
        return _rgamma(b1) * _rgamma(b2)
    if abs(z) > 50.0:
        raise SeriesError(f"|z| = {abs(z):.3g} beyond the supported term budget")
    total = 0.0 + 0.0j
    poch = 1.0 + 0.0j
    zn = 1.0 + 0.0j
    consec = 0
    n_min = int(max(8.0, -np.real(b1), -np.real(b2), 2.0 * abs(z))) + 4
    for n in range(SERIES_MAX_TERMS):
        term = poch * zn * _rgamma(b1 + n) * _rgamma(b2 + n)
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

    Derivatives in z are taken by high-order centered stencils with step
    proportional to z; each defect is normalized by the largest of the four
    ODE terms so the metric is scale-free.
    """
    worst = 0.0
    for z in np.atleast_1d(z_values):
        z = complex(z)
        h = DEFECT_REL_STEP * max(abs(z), 1e-3)
        w = [hyp2f2_regularized(p.a1, p.a2, p.b1, p.b2, z + j * h) for j in range(-3, 4)]
        wm3, wm2, wm1, w0, wp1, wp2, wp3 = w
        d1 = (wm2 - 8 * wm1 + 8 * wp1 - wp2) / (12 * h)
        d2 = (-wm2 + 16 * wm1 - 30 * w0 + 16 * wp1 - wp2) / (12 * h * h)
        d3 = (wm3 - 8 * wm2 + 13 * wm1 - 13 * wp1 + 8 * wp2 - wp3) / (8 * h**3)
        t1 = z * z * d3
        t2 = z * (1.0 - z + p.b1 + p.b2) * d2
        t3 = (p.b1 * p.b2 - z * (p.a1 + p.a2 + 1.0)) * d1
        t4 = -p.a1 * p.a2 * w0
        scale = max(abs(t1), abs(t2), abs(t3), abs(t4), 1e-300)
        worst = max(worst, abs(t1 + t2 + t3 + t4) / scale)
    return worst


@dataclass
class ShootingResult:
    lam: complex
    k: int
    mismatch: float
    verdict: str
    note: str = ""


def _system_matrix(t: float, params: VortexParams, k: int, lam: complex) -> np.ndarray:
    p = params
    cw = 2.0 - 2.0 / p.q
    e = math.exp(-p.alpha * t)
    return np.array([
        [0.0, 1.0, 0.0],
        [-(cw * cw - (p.m * k) ** 2), -2.0 * cw, 1.0],
        [1j * p.alpha**2 * p.m * k * (2.0 - p.alpha) * p.beta * e, 0.0,
         p.alpha * (lam - p.a0) + 1j * p.alpha * p.m * k * p.beta * e],
    ], dtype=complex)


class _FlowFailed(RuntimeError):
    """Raised when one side of the shooting integration does not finish."""


def _flow_to_zero(rhs, y0, t_start: float, side: str) -> np.ndarray:
    """Integrate y' = rhs(t, y) from t_start to the matching point t = 0 in
    SHOOT_CHUNKS chunks, renormalizing the state to unit length before the
    first chunk and after each one."""
    y = np.array(y0, dtype=complex)
    y /= np.linalg.norm(y)
    edges = np.linspace(t_start, 0.0, SHOOT_CHUNKS + 1)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=SHOOT_RTOL, atol=1e-13)
        if not sol.success:
            raise _FlowFailed(f"{side} integration failed: {sol.message}")
        y = sol.y[:, -1]
        y /= np.linalg.norm(y)
    return y


def shoot_homogeneous(params: VortexParams, k: int, lam: complex) -> ShootingResult:
    """Two-sided shooting verdict on integrable homogeneous solutions at lambda.

    The left-admissible plane (decaying stream-function branch plus the decaying
    U branch) is integrated as its wedge vector with chunked renormalization;
    the right-admissible line (psi ~ e^{-(mk+2-2/q)t}) is integrated backward.
    ``mismatch`` is the normalized connection determinant at t = 0.
    """
    p = params
    lam = complex(lam)
    if not lam.real > p.a0:
        raise ValueError(f"Re(lambda) must exceed a0 = {p.a0:.6g}")
    if k == 0:
        # the radial mode is first-order: its homogeneous solution grows like
        # e^{Re(B) t} as t -> +inf, so no nonzero solution is integrable
        return ShootingResult(lam=lam, k=0, mismatch=1.0, verdict=NO_INTEGRABLE,
                              note="first-order radial mode, analytic verdict")
    k1 = KernelK1(k, p.q, p.m)

    def rhs_vec(t, y):
        return _system_matrix(t, p, k, lam) @ y

    def rhs_wedge(t, y):
        M = _system_matrix(t, p, k, lam)
        return np.trace(M) * y - M.T @ y

    try:
        # left 2-plane spanned by (1, A-, 0) and (0, 0, 1): wedge = (A-, -1, 0)
        eta = _flow_to_zero(rhs_wedge, [k1.A_minus, -1.0, 0.0], -SHOOT_SPAN, "left")
        yC = _flow_to_zero(rhs_vec, [1.0, -k1.A_plus, 0.0], SHOOT_SPAN, "right")
    except _FlowFailed as exc:
        return ShootingResult(lam=lam, k=k, mismatch=0.0, verdict=INCONCLUSIVE, note=str(exc))
    except (ValueError, FloatingPointError) as exc:
        return ShootingResult(lam=lam, k=k, mismatch=0.0, verdict=INCONCLUSIVE,
                              note=f"stiff integration failure: {exc}")
    mism = abs(eta @ yC)
    verdict = NO_INTEGRABLE if mism > MISMATCH_THRESHOLD else INCONCLUSIVE
    note = "" if verdict == NO_INTEGRABLE else \
        "connection determinant below threshold: possible eigenvalue or resolution limit"
    return ShootingResult(lam=lam, k=k, mismatch=mism, verdict=verdict, note=note)
