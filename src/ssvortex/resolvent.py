"""Resolvent solves for the linearized vortex operator, one azimuthal mode at a time.

The mode-k resolvent equation in the weighted variable U is the first-order ODE

    (1/alpha) U' + (a0 - lambda) U - i*m*k*beta*e^{-alpha t} U
        - i*m*k*alpha*(2-alpha)*beta*e^{-alpha t} psi = G,

where psi is reconstructed from U by the K1 convolution (see ``modes``).  Each
Picard step integrates this ODE exactly with the unique integrable-tail constant,
which amounts to applying the oscillatory kernel

    K2(t, s) = exp(-i c e^{-alpha t} + i c e^{-alpha s} + (t - s) B) * chi(s > t),
    B = 2/q + alpha*(lambda - 1),   c = m*k*beta.

Quadrature: integrals in s are evaluated panel-by-panel after the substitution
w = e^{-alpha s}, which makes the phase linear in w; the smooth factor is
interpolated linearly and integrated against e^{icw} exactly, so accuracy is
uniform in the oscillation rate (the phase rate grows like e^{-alpha t} and
cannot be resolved pointwise on wide grids).

Two fixed-point maps are available.  The default "full" map uses the kernel
above and its fixed point satisfies the ODE to quadrature accuracy.  The
"reduced" map replaces the kernel composition with the bare K1 convolution
scaled by alpha*(2-alpha)/(2mk); this shortcut is exact only in the rapid-phase
limit (c -> inf) and its fixed point leaves an O(1) ODE defect at moderate c;
the ``verify_*`` checks below quantify exactly that discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, lgmres

from .modes import (
    KernelK1,
    LogGrid,
    ModeFunction,
    _fd4,
    _Phi1Plan,
    _Recurrence,
    lq_norm,
    lq_norm_samples,
    psi_from_U,
)
from .params import VortexParams


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails; carries the update history."""

    def __init__(self, message, history=None, gamma=None):
        super().__init__(message)
        self.history = list(history or [])
        self.gamma = gamma


@dataclass(frozen=True)
class KernelK2:
    """Oscillatory first-order kernel at spectral point lam for mode k."""

    params: VortexParams
    k: int
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        if int(self.k) != self.k or self.k < 0:
            raise ValueError("k must be a nonnegative integer")
        if not self.lam.real > self.params.a0:
            raise ValueError(
                f"Re(lambda) = {self.lam.real:.6g} must exceed a0 = {self.params.a0:.6g}"
            )

    @property
    def B(self) -> complex:
        p = self.params
        return 2.0 / p.q + p.alpha * (self.lam - 1.0)

    @property
    def phase_amplitude(self) -> float:
        """Coefficient c in the phase exp(i*c*e^{-alpha t}); equals m*k*beta."""
        return self.params.m * self.k * self.params.beta


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


# --------------------------------------------------------------------------
# panel quadrature for backward (t -> +infinity) kernel scans
# --------------------------------------------------------------------------

# Taylor coefficients in y^2 of (y - sin y) / y^3; eight terms reach double
# precision for |y| < 0.5, where the closed form cancels
_SIN_REMAINDER = tuple((-1) ** m / math.factorial(2 * m + 3) for m in range(8))


def _osc_weights(y: np.ndarray):
    """Linear-panel weights against a phase of rate y (per unit panel length):

        gb = int_0^1 (1 - x) e^{-iyx} dx,   ga = int_0^1 x e^{-iyx} dx,

    plus the panel phase e^{-iy}.  Only the odd part (y - sin y)/y^3 cancels for
    small y, so only it switches to its series there.
    """
    Y = y * y
    s = np.sin(y)
    half = np.sin(0.5 * y)
    gb_re = 2.0 * half * half / Y                # (1 - cos y) / y^2
    small = np.abs(y) < 0.5
    rem = (y - s) / np.where(small, 1.0, Y * y)
    rem[small] = np.polynomial.polynomial.polyval(Y[small], _SIN_REMAINDER)
    gb_im = -y * rem
    gb = gb_re + 1j * gb_im
    ga = (s / y - gb_re) - 1j * (gb_im + y * gb_re)
    phase = (1.0 - 2.0 * half * half) - 1j * s
    return gb, ga, phase


def _exp_moments(Beff: complex, h: float):
    """M_j = int_0^h x^j e^{-Beff x} dx for j = 0, 1, 2."""
    z = Beff * h
    if abs(z) < 0.35:
        m = [0.0j, 0.0j, 0.0j]
        term = 1.0 + 0.0j
        for n in range(16):
            for j in range(3):
                m[j] += term / (math.factorial(n) * (j + n + 1))
            term = term * (-z)
        return h * m[0], h**2 * m[1], h**3 * m[2]
    e = np.exp(-z)
    M0 = (1.0 - e) / Beff
    M1 = (1.0 - (1.0 + z) * e) / Beff**2
    M2 = (2.0 - (z * z + 2.0 * z + 2.0) * e) / Beff**3
    return M0, M1, M2


class _ScanPlan:
    """Backward K2 scan S_i = int_{t_i}^{t_max} e^{ic(e^{-alpha s} - e^{-alpha t_i})}
    e^{B(t_i - s)} g(s) ds on every grid node.

    Everything that does not depend on g is built once: the per-panel weights
    (``wi`` for the panel's left sample, ``wj`` for its right one, and for
    ``order=2`` ``wk`` for the next sample) and the recurrence blocks of the
    panel factors D = e^{-icL - Bh}.  Applying the plan to samples g (shape
    (n,) or (n, batch)) forms the panel integrals P = wi g_i + wj g_{i+1}
    [+ wk g_{i+2}] and runs the recurrence S_i = P_i + D_i S_{i+1}.

    ``order=2`` (quadratic panel interpolation) is supported for c == 0 only.
    """

    def __init__(self, grid: LogGrid, alpha: float, B: complex, c: float, order: int = 1):
        h = grid.h
        npan = grid.n - 1
        self.wk = None
        if c == 0.0:
            M0, M1, M2 = _exp_moments(B, h)
            self.wi = np.full(npan, M0 - M1 / h)
            self.wj = np.full(npan, M1 / h)
            if order == 2:
                # quadratic panels except the last, which stays linear
                self.wi[:-1] = (M2 - 3 * h * M1 + 2 * h * h * M0) / (2 * h * h)
                self.wj[:-1] = (2 * h * M1 - M2) / (h * h)
                self.wk = np.full(npan - 1, (M2 - h * M1) / (2 * h * h))
            elif order != 1:
                raise ValueError("order must be 1 or 2")
            D = np.full(npan, np.exp(-B * h), dtype=complex)
        else:
            if order != 1:
                raise ValueError("quadratic panels are implemented for the c == 0 path only")
            w_nodes = np.exp(-alpha * grid.nodes)
            wb = w_nodes[:-1]  # w at the panel's left t-node (larger w)
            wa = w_nodes[1:]
            L = wb - wa
            ebh = np.exp(-B * h)
            gb, ga, phase = _osc_weights(c * L)
            # the smooth factor g / (alpha w) is interpolated linearly in w
            self.wi = L * gb / (alpha * wb)
            self.wj = L * ga * ebh / (alpha * wa)
            D = phase * ebh
        self.recurrence = _Recurrence(D, B.real * h)

    def __call__(self, samples) -> np.ndarray:
        g = np.asarray(samples, dtype=complex)
        col = (slice(None), None) if g.ndim == 2 else slice(None)
        P = self.wi[col] * g[:-1] + self.wj[col] * g[1:]
        if self.wk is not None:
            P[:-1] += self.wk[col] * g[2:]
        return self.recurrence(P)


def apply_phi2(fn: ModeFunction, kernel: KernelK2) -> ModeFunction:
    """Integrate K2(t, s) against the samples.

    The linear panel interpolation preserves the pointwise majorant property:
    |apply_phi2(G)| <= apply_phi2 of |G| with the phase removed.
    """
    p = kernel.params
    plan = _ScanPlan(fn.grid, p.alpha, kernel.B, kernel.phase_amplitude)
    return fn.with_samples(plan(fn.samples))


# --------------------------------------------------------------------------
# ODE residual (phase-gauged finite differences)
# --------------------------------------------------------------------------

# largest h * max(phase rate, 1) at which residuals are measured
RESIDUAL_ZONE_THETA = 0.02


def ode_residual(U: ModeFunction, G: ModeFunction, lam: complex, params: VortexParams):
    """Relative L^q residual of the first-order mode ODE for mode k = U.k.

    For k >= 1, psi is rebuilt from U by ``psi_from_U``.  The derivative of U is
    taken after factoring out the known phase e^{-i c e^{-alpha t}} (exact
    product rule), and the norm is restricted to the sub-grid where
    h * max(phase rate, 1) <= RESIDUAL_ZONE_THETA; beyond it no pointwise
    stencil can resolve the oscillation.  Returns (residual, zone_fraction,
    zone_t_min).
    """
    p = params
    k = U.k
    lam = complex(lam)
    t = U.grid.nodes
    h = U.grid.h
    c = KernelK2(p, k, lam).phase_amplitude
    phase = np.exp(1j * c * np.exp(-p.alpha * t))
    W = phase * U.samples
    dW = _fd4(W, h)
    lhs = (1.0 / phase) * ((1.0 / p.alpha) * dW + (p.a0 - lam) * W)
    if k >= 1:
        lhs = lhs - 1j * p.m * k * p.alpha * (2.0 - p.alpha) * p.beta \
            * np.exp(-p.alpha * t) * psi_from_U(U, p).samples
    r = lhs - G.samples
    rate = np.maximum(np.abs(c) * p.alpha * np.exp(-p.alpha * t), 1.0)
    zone = h * rate <= RESIDUAL_ZONE_THETA
    zone[:2] = False
    zone[-2:] = False
    if not zone.any():
        return math.inf, 0.0, math.nan
    rz = np.where(zone, r, 0.0)
    gn = lq_norm_samples(G.samples, h, p.q)
    rn = lq_norm_samples(rz, h, p.q)
    if gn == 0.0:
        rel = 0.0 if rn == 0.0 else math.inf
    else:
        rel = rn / gn
    return rel, float(zone.mean()), float(t[zone][0])


# --------------------------------------------------------------------------
# solves
# --------------------------------------------------------------------------

# Picard stops once the relative update falls below PICARD_TOL, or after
# PICARD_MAX_ITER steps, when a Krylov solve to the same relative tolerance takes
# over; a solve is judged by its ODE residual (``ode_residual``) against
# RESIDUAL_TOL
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 400
RESIDUAL_TOL = 1e-6


@dataclass
class ResolventSolution:
    U: ModeFunction
    iterations: int
    method: str
    update_history: list


def contraction_bound(params: VortexParams, k: int) -> float:
    """A-priori Picard factor 2*alpha*(2-alpha) / (2mk * (mk - 2 + 2/q)) of the reduced map."""
    if k < 1:
        return 0.0
    p = params
    return 2.0 * p.alpha * (2.0 - p.alpha) / (2.0 * p.m * k * KernelK1(k, p.q, p.m).A_minus)


def solve_k0(G: ModeFunction, lam: complex, params: VortexParams) -> ResolventSolution:
    """Closed-form k = 0 resolvent: U = -alpha * (exponential kernel) * G."""
    kernel = KernelK2(params, 0, lam)
    plan = _ScanPlan(G.grid, params.alpha, kernel.B, 0.0, order=2)
    out = -params.alpha * plan(G.samples)
    return ResolventSolution(U=G.with_samples(out, rep="U"), iterations=1,
                             method="direct", update_history=[])


def solve_mode(G: ModeFunction, lam: complex, params: VortexParams,
               map_kind: str = "full") -> ResolventSolution:
    """Solve the mode-k resolvent equation (k = G.k) by Picard iteration of the kernel map.

    Starting from U0 = -alpha * Phi2(G), each step reconstructs psi from the
    current iterate and integrates the first-order ODE exactly, so the limit
    satisfies the ODE to quadrature accuracy.  If Picard has not converged
    within PICARD_MAX_ITER steps, or diverges, a Krylov solve of the same linear
    system takes over; ``method`` of the result says which one finished.  With
    map_kind="reduced" the K1-shortcut map is iterated instead (its fixed point
    does not satisfy the ODE at moderate phase rates; see the module docstring).
    """
    k = G.k
    if k < 1:
        raise ValueError("solve_mode requires k >= 1; use solve_k0 for the radial mode")
    p = params
    kernel = KernelK2(p, k, lam)
    grid = G.grid
    c = kernel.phase_amplitude
    gamma = contraction_bound(p, k)
    phi1 = _Phi1Plan(grid, KernelK1(k, p.q, p.m))
    scan = _ScanPlan(grid, p.alpha, kernel.B, c)

    if c == 0.0:
        # beta = 0: the coupling term vanishes and the map has no Phi1 feedback
        def tmap(x):
            return np.zeros_like(x)
    elif map_kind == "full":
        coef = 1j * p.beta * p.alpha**2 * (2.0 - p.alpha) / 2.0
        decay = np.exp(-p.alpha * grid.nodes)

        def tmap(x):
            return coef * scan(decay * phi1(x))
    elif map_kind == "reduced":
        coef = p.alpha * (2.0 - p.alpha) / (2.0 * p.m * k)

        def tmap(x):
            return coef * phi1(x)
    else:
        raise ValueError("map_kind must be 'full' or 'reduced'")

    U0 = -p.alpha * scan(G.samples)
    method_used = "picard"
    history: list[float] = []
    U = U0.copy()
    iters = 0
    converged = False
    growing = 0
    for _ in range(PICARD_MAX_ITER):
        Unew = U0 + tmap(U)
        iters += 1
        upd = lq_norm_samples(Unew - U, grid.h, p.q) / max(lq_norm_samples(Unew, grid.h, p.q), 1e-300)
        history.append(upd)
        U = Unew
        if upd < PICARD_TOL:
            converged = True
            break
        if len(history) >= 2 and upd > history[-2]:
            growing += 1
            if growing >= 4 and upd > 10.0:
                break
        else:
            growing = 0
    if not converged:
        op = LinearOperator((grid.n, grid.n), dtype=complex, matvec=lambda x: x - tmap(x))
        U, info = lgmres(op, U0, x0=U0, rtol=PICARD_TOL, atol=0.0, maxiter=2000)
        if info != 0:
            raise ConvergenceError(f"Krylov fallback failed (info={info})", history, gamma)
        method_used = "krylov"

    return ResolventSolution(U=G.with_samples(U, rep="U"), iterations=iters,
                             method=method_used, update_history=history)


# --------------------------------------------------------------------------
# identity checks (quadrature vs closed-form shortcuts)
# --------------------------------------------------------------------------

def _wquad(nu: complex, c: float, w_lo: float, w_hi: float) -> complex:
    """Adaptive quadrature of int e^{icw} w^nu dw over [w_lo, w_hi].

    The tolerance is purely relative: callers rescale tiny integrals by large
    prefactors (F1 * i*c*alpha reaches ~6e8 in the composition check), so an
    absolute floor would let quad accept an O(1) relative error there without a
    warning.  The subdivision budget grows with the phase span c*(w_hi - w_lo).
    """
    def f(w):
        return np.exp(1j * c * w) * w**nu
    limit = 300 + int(abs(c) * (w_hi - w_lo))
    re = quad(lambda w: f(w).real, w_lo, w_hi, epsabs=0.0, limit=limit)[0]
    im = quad(lambda w: f(w).imag, w_lo, w_hi, epsabs=0.0, limit=limit)[0]
    return re + 1j * im


def _tail_integral(t: float, mu: complex, alpha: float, c: float) -> complex:
    """int_t^inf exp(i c e^{-alpha s} - alpha s - mu s) ds, exactly, via w = e^{-alpha s}."""
    return _wquad(mu / alpha, c, 0.0, math.exp(-alpha * t)) / alpha


def _interval_integral(t: float, r: float, mu: complex, alpha: float, c: float) -> complex:
    wt, wr = math.exp(-alpha * t), math.exp(-alpha * r)
    return _wquad(mu / alpha, c, wr, wt) / alpha


def verify_neat_identities(t_samples, mu_samples, params: VortexParams, k: int) -> dict:
    """Compare the oscillatory tail/interval integrals with their closed-form shortcuts.

    The shortcut values (1/(i c alpha)) e^{i c e^{-alpha t}} e^{-mu t} (and the
    two-point difference for the finite interval) are the rapid-phase limits of
    the true integrals; the report records the actual absolute errors.  The
    shortcut is the boundary term of one integration by parts in s, so the error
    is exactly the remainder -(mu/(i c alpha)) int e^{i c e^{-alpha s} - mu s} ds
    over the same range.
    """
    p = params
    c = p.m * k * p.beta
    if c == 0.0:
        return {"skipped": True, "reason": "beta = 0 (shortcut denominator vanishes)",
                "rows": [], "max_error_half_line": math.nan,
                "max_error_finite": math.nan}
    pref = 1.0 / (1j * c * p.alpha)

    def closed(x, mu):
        return pref * np.exp(1j * c * math.exp(-p.alpha * x)) * np.exp(-mu * x)

    rows = []
    err_half = 0.0
    for t in t_samples:
        for mu in mu_samples:
            if not np.real(mu) > 0:
                continue
            lhs = _tail_integral(t, mu, p.alpha, c)
            rhs = closed(t, mu)
            err = abs(lhs - rhs)
            err_half = max(err_half, err)
            rows.append({"identity": "half_line", "t": float(t), "r": math.nan,
                         "mu": complex(mu), "lhs": lhs, "rhs": rhs, "abs_error": err})
    err_fin = 0.0
    ts = sorted(t_samples)
    for i, t in enumerate(ts):
        for r in ts[i + 1:]:
            for mu in mu_samples:
                lhs = _interval_integral(t, r, mu, p.alpha, c)
                rhs = closed(t, mu) - closed(r, mu)
                err = abs(lhs - rhs)
                err_fin = max(err_fin, err)
                rows.append({"identity": "finite_interval", "t": float(t), "r": float(r),
                             "mu": complex(mu), "lhs": lhs, "rhs": rhs, "abs_error": err})
    return {"skipped": False, "rows": rows,
            "max_error_half_line": err_half, "max_error_finite": err_fin,
            "max_error": max(err_half, err_fin)}


def verify_kernel_composition(t_values, r_values, params: VortexParams, k: int, lam: complex) -> dict:
    """Measure the defect of the kernel-composition collapse

        i*c*alpha * int K2(t, s) e^{-alpha s} K1(s, r) ds  vs  K1(t, r).

    The s-integral is evaluated by adaptive quadrature to a relative tolerance
    (substitution w = e^{-alpha s}); the collapse to K1 holds only in the
    rapid-phase limit, and the report records the pointwise absolute errors over
    the (t, r) lattice.  Integration by parts in s gives the exact defect
    int_t^inf K2(t, s) (kappa(s) - B) K1(s, r) ds, with kappa = -A+ for s > r
    and A- for s < r.
    """
    p = params
    if k < 1:
        raise ValueError("composition check requires k >= 1")
    kernel = KernelK2(p, k, lam)
    c = kernel.phase_amplitude
    if c == 0.0:
        return {"skipped": True, "reason": "beta = 0", "rows": [], "max_error": math.nan}
    k1 = KernelK1(k, p.q, p.m)
    B = kernel.B
    mu1 = B + k1.A_plus
    mu2 = B - k1.A_minus
    rows = []
    max_err = 0.0
    for t in t_values:
        phase_t = np.exp(-1j * c * math.exp(-p.alpha * t))
        for r in r_values:
            f1 = phase_t * np.exp(B * t + k1.A_plus * r)
            lhs = f1 * _tail_integral(max(t, r), mu1, p.alpha, c)
            f2 = 0.0j
            if t < r:
                f2 = phase_t * np.exp(B * t - k1.A_minus * r)
                lhs = lhs + f2 * _interval_integral(t, r, mu2, p.alpha, c)
            lhs = 1j * c * p.alpha * lhs
            rhs = float(np.exp(-k1.A_plus * (t - r)) if t >= r else np.exp(k1.A_minus * (t - r)))
            err = abs(lhs - rhs)
            max_err = max(max_err, err)
            rows.append({"t": float(t), "r": float(r), "lhs": lhs, "k1": rhs,
                         "F1": f1, "F2": f2, "abs_error": err})
    return {"skipped": False, "rows": rows, "max_error": max_err}


def resolvent_bound_check(lambda_values, params: VortexParams, k_max: int,
                          grid: LogGrid, batch: int, seed: int) -> dict:
    """Empirical resolvent norm ratios against the layered Young-inequality bound.

    For each (lambda, k <= k_max) and a batch of random right-hand sides, record
    max ||U||_q / ||G||_q and compare with (alpha/Re B) / (1 - gamma_k); report
    the empirical constant M such that ratio <= M / (Re lambda - a0).
    """
    p = params
    rng = np.random.default_rng(seed)
    rows = []
    M_emp = 0.0
    gam_max = contraction_bound(p, 1) if k_max >= 1 else 0.0
    for lam in lambda_values:
        lam = complex(lam)
        reB = KernelK2(p, 0, lam).B.real
        for k in range(0, k_max + 1):
            gam = contraction_bound(p, k)
            bound = (p.alpha / reB) / (1.0 - gam)
            worst = 0.0
            for _ in range(batch):
                raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
                G = ModeFunction(k, "G", grid, raw)
                sol = solve_k0(G, lam, p) if k == 0 else solve_mode(G, lam, p)
                ratio = lq_norm(sol.U, p.q) / lq_norm(G, p.q)
                worst = max(worst, ratio)
            M_emp = max(M_emp, worst * (lam.real - p.a0))
            rows.append({"lambda": lam, "k": k, "max_ratio": worst, "bound": bound,
                         "passed": bool(worst <= bound)})
    return {
        "rows": rows,
        "M_empirical": M_emp,
        "M_alpha_bound": 1.0 / (1.0 - gam_max),
        "passed": all(r["passed"] for r in rows),
    }
