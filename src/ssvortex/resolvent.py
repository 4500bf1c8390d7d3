"""Resolvent solves for the linearized vortex operator, one azimuthal mode at a time.

The mode-k resolvent equation (L_k - lambda) U = G, with L_k and its
coefficients c_k and kappa as ``params`` defines and owns them, is in the
weighted variable U the first-order ODE

    (1/alpha) U' + (a0 - lambda) U - i c_k e^{-alpha t} U - 2i m k kappa e^{-alpha t} psi = G,

where psi = -Phi1(U)/(2mk) is reconstructed from U by the K1 convolution (see
``modes``).  Each Picard step integrates this ODE exactly with the unique
integrable-tail constant, which amounts to applying the oscillatory kernel

    K2(t, s) = exp(-i c e^{-alpha t} + i c e^{-alpha s} + (t - s) B) * chi(s > t),
    B = 2/q + alpha*(lambda - 1),   c = c_k = ``params.phase_amplitude(k)``.

Quadrature: integrals in s are evaluated panel-by-panel after the substitution
w = e^{-alpha s}, which makes the phase linear in w; the smooth factor is
interpolated linearly and integrated against e^{icw} exactly, so accuracy is
uniform in the oscillation rate (the phase rate grows like e^{-alpha t} and
cannot be resolved pointwise on wide grids).

The fixed-point map uses the kernel above, so its fixed point satisfies the ODE
to quadrature accuracy.  The K1-shortcut map (the bare K1 convolution scaled by
alpha*(2-alpha)/(2mk), exact only in the rapid-phase limit c -> inf) is iterated
only for the contraction certificate in ``suites``, by ``_reduced_picard`` on
the same Picard loop; the ``verify_*`` checks below quantify the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .modes import (
    KernelK1,
    LogGrid,
    ModeFunction,
    _fd4,
    _Phi1Plan,
    _Recurrence,
    k1_eval,
    lq_norm,
    lq_norm_samples,
    psi_from_U,
)
from .params import VortexParams, _mode_index, _spectral_point


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails; carries the update history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class KernelK2:
    """Oscillatory first-order kernel at spectral point lam for mode k."""

    params: VortexParams
    k: int
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "lam", _spectral_point(self.params, self.lam))
        object.__setattr__(self, "k", _mode_index(self.k))

    @property
    def B(self) -> complex:
        p = self.params
        return 2.0 / p.q + p.alpha * (self.lam - 1.0)


# --------------------------------------------------------------------------
# panel quadrature for backward (t -> +infinity) kernel scans
# --------------------------------------------------------------------------

# Taylor coefficients in y^2 of (y - sin y) / y^3; eight terms reach double
# precision for |y| < 0.5, where the closed form cancels
_SIN_REMAINDER = tuple((-1) ** m / math.factorial(2 * m + 3) for m in range(8))


def _osc_weights(y: np.ndarray):
    """Linear-panel weights against a phase of rate y (per unit panel length):

        gb = int_0^1 (1 - x) e^{-iyx} dx,   ga = int_0^1 x e^{-iyx} dx,

    plus the panel phase e^{-iy}.  Each is its own complex array, written in
    place through ``.real`` and ``.imag``; no complex temporary is made.  Only
    the odd part (y - sin y)/y^3 cancels for small y, so there Im gb switches to
    its series, summed by Horner's rule in place on the small part only.
    """
    gb, ga, phase = (np.empty(y.shape, dtype=complex) for _ in range(3))
    s = np.sin(y, out=phase.imag)
    v = np.sin(np.multiply(y, 0.5, out=ga.real), out=ga.real)
    v *= v
    v *= 2.0                                     # 1 - cos y = 2 sin^2(y/2)
    np.subtract(1.0, v, out=phase.real)
    Y = np.multiply(y, y, out=ga.imag)
    np.divide(v, Y, out=gb.real)                 # (1 - cos y) / y^2
    np.subtract(s, y, out=gb.imag)
    gb.imag /= Y                                 # -(y - sin y) / y^2
    small = np.abs(y) < 0.5
    ys = y[small]
    Ys = ys * ys
    rem = np.full(ys.shape, _SIN_REMAINDER[-1])
    for coef in _SIN_REMAINDER[-2::-1]:
        rem *= Ys
        rem += coef
    rem *= ys
    gb.imag[small] = np.negative(rem, out=rem)
    np.divide(s, y, out=ga.real)
    ga.real -= gb.real                           # sin y / y - Re gb
    np.multiply(y, gb.real, out=ga.imag)
    ga.imag += gb.imag
    np.negative(ga.imag, out=ga.imag)            # -(Im gb + y Re gb)
    np.negative(s, out=s)
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
    e^{B(t_i - s)} g(s) ds of ``kernel`` on every grid node.

    The kernel picks the panel rule: the radial kernel (k = 0, no phase, the
    whole of ``solve_k0``) gets quadratic panels, and every k >= 1 kernel linear
    ones, which keep the pointwise majorant and take ``solve_mode``'s fold of
    the map factor.  Everything that does not depend on g is built once: the
    per-panel weights (``wi`` for the panel's left sample, ``wj`` for its right
    one, and for quadratic panels ``wk`` for the next) and the recurrence blocks of
    the panel factors D = e^{-icL - Bh}, L = e^{-alpha t_i} - e^{-alpha t_{i+1}}.
    For c != 0, L is a fixed multiple of either end's w = e^{-alpha t}, so the
    weights are ``_osc_weights``' gb and ga scaled in place by one number each,
    and D is its panel phase scaled in place.  The recurrence's ``fold()`` =
    1 / cp is then multiplied into the weights, so they give the products that
    its ``sweep`` takes, and the plan keeps three complex arrays: wi, wj and
    the recurrence's cp.  Applying the plan to samples g of shape (n,) writes the
    folded panel sums wi g_i + wj g_{i+1} [+ wk g_{i+2}] into its output (a
    new array, or ``out``, which must not overlap g) and sweeps it in place:
    five passes for linear panels.
    """

    def __init__(self, grid: LogGrid, kernel: KernelK2):
        alpha, B, c = kernel.params.alpha, kernel.B, kernel.params.phase_amplitude(kernel.k)
        h = grid.h
        npan = grid.n - 1
        self.wk = None
        if c == 0.0:
            M0, M1, M2 = _exp_moments(B, h)
            self.wi = np.full(npan, M0 - M1 / h)
            self.wj = np.full(npan, M1 / h)
            if kernel.k == 0:
                # quadratic panels except the last, which stays linear
                self.wi[:-1] = (M2 - 3 * h * M1 + 2 * h * h * M0) / (2 * h * h)
                self.wj[:-1] = (2 * h * M1 - M2) / (h * h)
                self.wk = np.full(npan - 1, (M2 - h * M1) / (2 * h * h))
            D = np.full(npan, np.exp(-B * h), dtype=complex)
        else:
            # a panel's phase rate is c (wb - wa), wb and wa = e^{-alpha t} at its ends
            w = np.exp(-alpha * grid.nodes)
            gb, ga, D = _osc_weights(c * (w[:-1] - w[1:]))
            del w
            # the smooth factor g / (alpha w) is interpolated linearly in w; with
            # wb - wa = a wb = a e^{alpha h} wa the weights are scalar multiples
            a = -math.expm1(-alpha * h)
            ebh = np.exp(-B * h)
            gb *= a / alpha
            ga *= ebh * a / (alpha * math.exp(-alpha * h))
            self.wi, self.wj = gb, ga
            D *= ebh
        self.recurrence = _Recurrence(D, B.real * h)
        fold = self.recurrence.fold()
        self.wi *= fold
        self.wj *= fold
        if self.wk is not None:
            self.wk *= fold[:-1]

    def __call__(self, samples, out=None) -> np.ndarray:
        g = np.asarray(samples, dtype=complex)
        S = np.empty(g.shape, dtype=complex) if out is None else out
        panel = S[:-1]
        np.multiply(self.wi, g[:-1], out=panel)
        panel += self.wj * g[1:]
        if self.wk is not None:
            panel[:-1] += self.wk * g[2:]
        self.recurrence.sweep(panel)
        S[-1] = 0.0
        return S


def apply_phi2(fn: ModeFunction, kernel: KernelK2) -> ModeFunction:
    """Integrate K2(t, s) against the samples with the kernel's own scan plan.

    For k >= 1 the linear panel interpolation preserves the pointwise majorant
    property: |apply_phi2(G)| <= apply_phi2 of |G| with the phase removed.  A
    k = 0 kernel gets ``solve_k0``'s quadratic panels, so -alpha times the result
    is ``solve_k0``'s U; no pipeline call passes k = 0 here.
    """
    return fn.with_samples(_ScanPlan(fn.grid, kernel)(fn.samples))


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
    stencil can resolve the oscillation.  Returns (residual, zone_fraction);
    with no resolvable node the residual is inf, so the check fails.

    The K1 coupling is built first, while no other full-length array is live;
    the phase, the gauged samples and their derivative follow, each written in
    place, so the call holds at most about five complex arrays of the grid's
    length beside its inputs.
    """
    p = params
    k = U.k
    lam = _spectral_point(p, lam)
    t = U.grid.nodes
    h = U.grid.h
    c = p.phase_amplitude(k)
    decay = np.exp(-p.alpha * t)
    zone = h * np.maximum(np.abs(c) * p.alpha * decay, 1.0) <= RESIDUAL_ZONE_THETA
    zone[:2] = False
    zone[-2:] = False
    if not zone.any():
        return math.inf, 0.0
    coupling = 0.0
    if k >= 1:
        coupling = psi_from_U(U, p).samples * (2j * p.m * k * p.coupling * decay)
    # e^{ic e^{-alpha t}} from cos and sin, cheaper than a complex exp; the
    # argument is formed in the real part
    phase = np.empty(t.shape, dtype=complex)
    np.multiply(decay, c, out=phase.real)
    np.sin(phase.real, out=phase.imag)
    np.cos(phase.real, out=phase.real)
    W = phase * U.samples
    r = _fd4(W, h)
    r *= 1.0 / p.alpha
    W *= p.a0 - lam
    r += W
    r *= np.conjugate(phase, out=phase)  # |phase| = 1: divide by multiplying by the conjugate
    r -= coupling
    r -= G.samples
    r[~zone] = 0.0
    gn = lq_norm_samples(G.samples, h, p.q)
    rn = lq_norm_samples(r, h, p.q)
    if gn == 0.0:
        rel = 0.0 if rn == 0.0 else math.inf
    else:
        rel = rn / gn
    return rel, float(zone.mean())


# --------------------------------------------------------------------------
# solves
# --------------------------------------------------------------------------

# Picard stops once the relative update falls below PICARD_TOL; after
# PICARD_MAX_ITER steps or an overflow it raises ConvergenceError.  A solve is
# judged by its ODE residual (``ode_residual``) against RESIDUAL_TOL
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
    out = _ScanPlan(G.grid, KernelK2(params, 0, lam))(G.samples)
    out *= -params.alpha
    return ResolventSolution(U=G.with_samples(out), iterations=1,
                             method="direct", update_history=[])


def _picard(tmap, U0: np.ndarray, G: ModeFunction, q: float) -> ResolventSolution:
    """Picard U <- U0 + tmap(U) from U = U0 on G's grid, run on the increment
    (d <- tmap(d), U += d, update ||d|| / ||U||), so a step forms no difference
    array.  ``_picard`` owns U0 and accumulates U in its buffer, so a caller
    hands it a fresh array that nothing else reads.  ``tmap`` writes its
    result into its argument's buffer and returns it.  Raises ConvergenceError
    at the first non-finite update or after PICARD_MAX_ITER steps."""
    h = G.grid.h
    history: list[float] = []
    U, d = U0, U0.copy()
    for _ in range(PICARD_MAX_ITER):
        d = tmap(d)
        U += d
        size = lq_norm_samples(U, h, q)
        diff = lq_norm_samples(d, h, q)
        upd = diff / max(size, 1e-300) if math.isfinite(size) else math.inf
        history.append(upd)
        if not math.isfinite(upd):
            raise ConvergenceError("Picard iterates overflowed", history)
        if upd < PICARD_TOL:
            # the result copies U; freed first, the increment's buffer can take
            # that copy instead of the heap growing for it
            del d
            return ResolventSolution(U=G.with_samples(U), iterations=len(history),
                                     method="picard", update_history=history)
    raise ConvergenceError(f"Picard did not converge in {PICARD_MAX_ITER} steps", history)


def solve_mode(G: ModeFunction, lam: complex, params: VortexParams) -> ResolventSolution:
    """Solve the mode-k resolvent equation, k = G.k.

    The radial mode k = 0 has the closed form of ``solve_k0``.  For k >= 1,
    starting from U0 = -alpha * Phi2(G), each step reconstructs psi from the
    current iterate and integrates the first-order ODE exactly, so the limit
    satisfies the ODE to quadrature accuracy.  After U0 the map's factor
    coef * e^{-alpha t} is folded into the solve's own K2 panel weights, so a
    step is one K1 plan call into a buffer kept for the whole solve and one scan
    into the increment's own buffer (``_picard`` iterates it); a step allocates
    one temporary.  At its peak the solve holds about nine complex arrays of the
    grid's length: the two plans (five), U, the increment, the K1 result and
    that temporary (K1's forward part, then the scan's panel product).
    """
    k = G.k
    if k == 0:
        return solve_k0(G, lam, params)
    p = params
    kernel = KernelK2(p, k, lam)
    grid = G.grid
    phi1 = _Phi1Plan(grid, KernelK1(k, p.q, p.m))
    scan = _ScanPlan(grid, kernel)
    U0 = scan(G.samples)
    U0 *= -p.alpha
    # the map is coef * Phi2(e^{-alpha t} y); with U0 formed, s = coef * e^{-alpha t}
    # is folded into the scan's panel weights
    s = 1j * p.alpha * p.coupling * np.exp(-p.alpha * grid.nodes)
    scan.wi *= s[:-1]
    scan.wj *= s[1:]
    del s  # freed before the loop, so the fold adds nothing to the solve's peak memory
    # every step writes its K1 result into this one buffer: made afresh in each
    # step, it and the step's temporary would be freed together at the top of
    # the heap, where glibc returns them to the kernel, and each next step
    # would fault their pages in again
    y = np.empty(grid.n, dtype=complex)
    return _picard(lambda x: scan(phi1(x, y), out=x), U0, G, p.q)


def _reduced_picard(G: ModeFunction, lam: complex, params: VortexParams) -> ResolventSolution:
    """Picard on the K1-shortcut map U <- U0 + alpha(2-alpha)/(2mk) Phi1(U),
    U0 = -alpha Phi2(G), whose factor ``contraction_bound`` bounds.  Its fixed
    point leaves an ODE defect at moderate phase rates, so it certifies the
    iteration budget, not a solve."""
    p = params
    k = G.k
    U0 = -p.alpha * apply_phi2(G, KernelK2(p, k, lam)).samples
    phi1 = _Phi1Plan(G.grid, KernelK1(k, p.q, p.m))
    coef = p.alpha * (2.0 - p.alpha) / (2.0 * p.m * k)
    y = np.empty(G.grid.n, dtype=complex)  # the K1 result of every step, as in solve_mode
    return _picard(lambda x: np.multiply(phi1(x, y), coef, out=x), U0, G, p.q)


# --------------------------------------------------------------------------
# identity checks (quadrature vs closed-form shortcuts)
# --------------------------------------------------------------------------

def _wquad(nu: complex, c: float, w_lo: float, w_hi: float) -> complex:
    """Adaptive quadrature of int e^{icw} w^nu dw over [w_lo, w_hi].

    The tolerance is purely relative: callers rescale tiny integrals by large
    prefactors (up to ~6e8 in the composition check), so an absolute floor
    would let quad accept an O(1) relative error there without a warning.  The
    subdivision budget grows with the phase span c*(w_hi - w_lo).
    """
    limit = 300 + int(abs(c) * (w_hi - w_lo))
    return quad(lambda w: np.exp(1j * c * w) * w**nu, w_lo, w_hi, epsabs=0.0, limit=limit,
                complex_func=True)[0]


def _span_integral(t: float, r: float, mu: complex, alpha: float, c: float) -> complex:
    """int_t^r exp(i c e^{-alpha s} - alpha s - mu s) ds, exactly, via w = e^{-alpha s};
    r = inf gives the half line."""
    return _wquad(mu / alpha, c, math.exp(-alpha * r), math.exp(-alpha * t)) / alpha


def verify_neat_identities(t_samples, mu_samples, params: VortexParams, k: int) -> list:
    """Compare the oscillatory tail/interval integrals with their closed-form shortcuts.

    The shortcut values (1/(i c alpha)) e^{i c e^{-alpha t}} e^{-mu t} (and the
    two-point difference for the finite interval) are the rapid-phase limits of
    the true integrals; each returned row records one actual absolute error,
    and with no phase (c = 0) there are none.  The shortcut is the boundary
    term of one integration by parts in s, so the error is exactly the
    remainder -(mu/(i c alpha)) int e^{i c e^{-alpha s} - mu s} ds over the
    same range.
    """
    p = params
    c = p.phase_amplitude(k)
    if c == 0.0:
        return []
    pref = 1.0 / (1j * c * p.alpha)

    def closed(x, mu):
        # the boundary term at s = inf vanishes for Re mu > 0
        if x == math.inf:
            return 0.0
        return pref * np.exp(1j * c * math.exp(-p.alpha * x)) * np.exp(-mu * x)

    ts = sorted(t_samples)
    spans = [("half_line", t, math.inf) for t in t_samples]
    spans += [("finite_interval", t, r) for i, t in enumerate(ts) for r in ts[i + 1:]]
    rows = []
    for identity, t, r in spans:
        for mu in mu_samples:
            if r == math.inf and not np.real(mu) > 0:
                continue
            lhs = _span_integral(t, r, mu, p.alpha, c)
            rhs = closed(t, mu) - closed(r, mu)
            rows.append({"check": identity, "t": float(t),
                         "r": math.nan if r == math.inf else float(r),
                         "mu_re": complex(mu).real, "mu_im": complex(mu).imag,
                         "lhs": lhs, "rhs": rhs, "abs_error": abs(lhs - rhs)})
    return rows


def verify_kernel_composition(t_values, r_values, params: VortexParams, k: int, lam: complex) -> list:
    """Measure the defect of the kernel-composition collapse

        i*c*alpha * int K2(t, s) e^{-alpha s} K1(s, r) ds  vs  K1(t, r).

    The s-integral is evaluated by adaptive quadrature to a relative tolerance
    (substitution w = e^{-alpha s}); the collapse to K1 holds only in the
    rapid-phase limit, and the rows record the pointwise absolute errors over
    the (t, r) lattice (none with no phase, c = 0).  Integration by parts in s
    gives the exact defect int_t^inf K2(t, s) (kappa(s) - B) K1(s, r) ds, with
    kappa = -A+ for s > r and A- for s < r.
    """
    p = params
    if k < 1:
        raise ValueError("composition check requires k >= 1")
    kernel = KernelK2(p, k, lam)
    c = p.phase_amplitude(k)
    if c == 0.0:
        return []
    k1 = KernelK1(k, p.q, p.m)
    B = kernel.B
    mu1 = B + k1.A_plus
    mu2 = B - k1.A_minus
    rows = []
    for t in t_values:
        phase_t = np.exp(-1j * c * math.exp(-p.alpha * t))
        for r in r_values:
            lhs = phase_t * np.exp(B * t + k1.A_plus * r) \
                * _span_integral(max(t, r), math.inf, mu1, p.alpha, c)
            if t < r:
                lhs = lhs + phase_t * np.exp(B * t - k1.A_minus * r) \
                    * _span_integral(t, r, mu2, p.alpha, c)
            lhs = 1j * c * p.alpha * lhs
            rhs = k1_eval(t, r, k1)
            rows.append({"check": "composition", "t": float(t), "r": float(r),
                         "mu_re": kernel.lam.real, "mu_im": kernel.lam.imag,
                         "lhs": lhs, "k1": rhs, "abs_error": abs(lhs - rhs)})
    return rows


# the resolvent suite's CSV columns; emit writes no other key a row carries
RESOLVENT_COLUMNS = ("check", "k", "q", "alpha", "lambda_re", "lambda_im", "value", "bound",
                     "passed")


def resolvent_row(check: str, k: int, params: VortexParams, lam, value, bound, passed: bool,
                  **extra) -> dict:
    """One row of the resolvent suite's CSV at params' q and alpha, at the spectral
    point ``lam``; ``lam=None`` (no spectral point) writes NaN for both of its parts."""
    lam = complex(math.nan, math.nan) if lam is None else _spectral_point(params, lam)
    cells = (check, k, params.q, params.alpha, lam.real, lam.imag, value, bound, passed)
    return {**dict(zip(RESOLVENT_COLUMNS, cells)), **extra}


def resolvent_bound_check(lambda_values, params: VortexParams, k_max: int,
                          grid: LogGrid, batch: int, seed: int) -> list:
    """Empirical resolvent norm ratios against the layered Young-inequality bound.

    For each (lambda, k <= k_max) and a batch of random right-hand sides, one
    ``norm_ratio`` row: max ||U||_q / ||G||_q against (alpha/Re B) / (1 - gamma_k).
    """
    p = params
    rng = np.random.default_rng(seed)
    rows = []
    for lam in lambda_values:
        lam = _spectral_point(p, lam)
        reB = KernelK2(p, 0, lam).B.real
        for k in range(0, k_max + 1):
            gam = contraction_bound(p, k)
            bound = (p.alpha / reB) / (1.0 - gam)
            worst = 0.0
            for _ in range(batch):
                raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
                G = ModeFunction(k, grid, raw)
                sol = solve_mode(G, lam, p)
                worst = max(worst, lq_norm(sol.U, p.q) / lq_norm(G, p.q))
            rows.append(resolvent_row("norm_ratio", k, p, lam, worst, bound, bool(worst <= bound)))
    return rows
