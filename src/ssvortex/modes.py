"""Log-radius grids, weighted mode functions, and the per-mode inverse Laplacian.

Working variable is t = log r.  A mode with angular factor exp(i*m*k*theta) is
represented by complex samples on a uniform t-grid in one of the weighted
representations

    psi(t) = f(e^t) * e^{(2/q-2)t},   U(t) = u(e^t) * e^{2t/q},   G(t) = g(e^t) * e^{2t/q},

chosen so that L^q(r dr) norms of the radial functions equal L^q(dt) norms of
the weighted ones.  The second-order relation

    U = psi'' + (4 - 4/q) psi' + ((2 - 2/q)^2 - (mk)^2) psi

is inverted by convolution with the two-sided exponential kernel K1, realizing
the mode-k inverse Laplacian with the unique integrable tail constants.  Being a
two-sided exponential, K1's trapezoid convolution is exactly a backward
first-order recurrence over j >= i (diagonal included) plus a forward one over
j < i, with the trapezoid weights folded in.  ``_Recurrence`` solves each in
three passes: a multiply by its factor into the result, then its ``sweep``, a
cumulative sum and a multiply in place.  ``_Phi1Plan`` builds both once per
(grid, kernel), so a call makes 7 passes, the seventh adding the forward part.
The K2 scans of ``resolvent`` run on the same ``_Recurrence``, with its factor
folded into their panel weights: a linear-panel scan makes 5 passes, two
multiplies and an add for the panel sums and the sweep's two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import VortexParams, _number


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in t = log r covering r in [e^t_min, e^t_max]."""

    t_min: float
    t_max: float
    n: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be < t_max")
        object.__setattr__(self, "n", _number("n", self.n, integer=True))
        if self.n < 16:
            raise ValueError("grid needs an integer n >= 16")

    @property
    def h(self) -> float:
        return (self.t_max - self.t_min) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.linspace(self.t_min, self.t_max, self.n)
        t.setflags(write=False)
        return t


@dataclass(frozen=True, eq=False)
class ModeFunction:
    """Complex samples of one azimuthal mode on a LogGrid.

    ``k`` is the mode index (angular factor exp(i*m*k*theta)).
    """

    k: int
    grid: LogGrid
    samples: np.ndarray

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 0:
            raise ValueError("k must be a nonnegative integer")
        s = np.array(self.samples, dtype=complex)
        if s.shape != (self.grid.n,):
            raise ValueError(f"samples must have shape ({self.grid.n},)")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def with_samples(self, samples) -> "ModeFunction":
        return ModeFunction(self.k, self.grid, samples)


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def lq_norm_samples(samples: np.ndarray, h: float, q: float) -> float:
    """Composite-trapezoid L^q(dt) norm of samples of shape (n,)."""
    if q < 1.0:
        raise ValueError("q must be >= 1")
    x = np.asarray(samples)
    scale = 1.0
    if q == 2.0:  # re^2 + im^2 in one einsum pass; no BLAS, so no thread-count dependence
        v = x[:, None].view(x.real.dtype)  # (n, 2) complex, (n, 1) real
        inner, ends = v[1:-1], v[[0, -1]]
        total = np.einsum("ij,ij->", inner, inner) + 0.5 * np.einsum("ij,ij->", ends, ends)
    else:
        a = np.abs(x)
        top = a.max()
        # over max|x|, |x|**q cannot underflow (all 0 at q = 200 if |x| < 0.02); a
        # non-finite max stays unscaled, so Picard still sees an overflow in the norm
        if 0.0 < top < math.inf:
            a /= top
            scale = float(top)
        a **= q
        total = a.sum() - 0.5 * (a[0] + a[-1])
    return scale * float((h * total) ** (1.0 / q))


def lq_norm(fn: ModeFunction, q: float) -> float:
    """Composite-trapezoid L^q(dt) norm of the samples."""
    return lq_norm_samples(fn.samples, fn.grid.h, q)


def _fd4(y: np.ndarray, h: float) -> np.ndarray:
    """First derivative: 4th-order centered inside, 2nd order at the two end
    points on each side (one-sided at the ends, centered one point in).  Built
    in place in its result, with no full-length temporary."""
    d = np.empty_like(y)
    mid = d[2:-2]
    np.subtract(y[3:-1], y[1:-3], out=mid)
    mid *= 8.0
    mid += y[:-4]
    mid -= y[4:]
    mid /= 12 * h
    d[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
    d[1] = (y[2] - y[0]) / (2 * h)
    d[-2] = (y[-1] - y[-3]) / (2 * h)
    d[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
    return d


@dataclass(frozen=True)
class KernelK1:
    """Two-sided exponential kernel with decay A+ = mk+2-2/q forward, A- = mk-2+2/q backward."""

    k: int
    q: float
    m: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K1 is defined for modes k >= 1")
        if self.A_plus <= 0 or self.A_minus <= 0:
            raise ValueError("kernel decay exponents must be positive")

    @property
    def A_plus(self) -> float:
        return self.m * self.k + 2.0 - 2.0 / self.q

    @property
    def A_minus(self) -> float:
        return self.m * self.k - 2.0 + 2.0 / self.q


def k1_eval(t, s, kernel: KernelK1):
    """Evaluate K1(t, s); the value at t == s is the common branch limit 1."""
    d = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    expo = np.where(d >= 0.0, -kernel.A_plus * d, kernel.A_minus * d)
    out = np.exp(expo)
    return out if out.ndim else float(out)


def phi1_matrix(grid: LogGrid, kernel: KernelK1, rows=slice(None)) -> np.ndarray:
    """Dense trapezoid quadrature matrix of the K1 convolution, or its given rows."""
    t = grid.nodes
    K = k1_eval(t[rows, None], t[None, :], kernel)
    return grid.h * K * _trapezoid_weights(grid.n)[None, :]


# largest decay per panel of a recurrence: beyond it |D| of one panel leaves
# the normal doubles
MAX_PANEL_DECAY = 700.0


class _Recurrence:
    """Solve S_i = w_i P_i + D_i S_{i+1} (i < npan, S_npan = 0) for a fixed D and
    weight w (1 if None) and any right-hand side P of shape (npan,).

    The panels are split into blocks over which the cumulative product cp of D
    falls by at most e^{300} (decay_per_panel = -log|D|), or into single panels
    when one panel decays faster.  Within a block S is cp times the cumulative
    sum of w P / cp, seeded by the value S_hi just above the block.  cp is
    scaled by a power of two (exactly) so that neither it nor w / cp leaves
    the doubles.  Both depend on D and w only and are built once: ``factor``
    holds w / cp in natural order (one entry per panel), each block its cp in
    reversed order.  A call writes ``factor`` * P into its output of shape
    (npan,), a new array or ``out``, and runs ``sweep`` on it, the cumulative
    sum, seed and multiply by cp in place: three passes per block.  A caller
    that folds ``factor`` into its own weights (``resolvent._ScanPlan``) writes
    the products itself and runs ``sweep`` alone.
    """

    def __init__(self, D: np.ndarray, decay_per_panel: float, weight=None):
        if decay_per_panel > MAX_PANEL_DECAY:
            raise ValueError(
                f"decay of {decay_per_panel:.4g} per grid panel exceeds {MAX_PANEL_DECAY:g}:"
                " the grid is too coarse for this kernel; use a finer grid")
        npan = D.shape[0]
        seg = npan if decay_per_panel <= 0 else max(1, int(300.0 / decay_per_panel))
        self.npan = npan
        self.factor = np.empty(npan, dtype=np.result_type(D, float if weight is None else weight))
        self.blocks = []
        for hi in range(npan, 0, -seg):
            lo = max(0, hi - seg)
            rcp = np.cumprod(D[lo:hi][::-1])
            balance = 2.0 ** (-math.frexp(abs(rcp[-1]))[1] // 2)
            rcp *= balance
            np.divide(1.0 if weight is None else weight[lo:hi], rcp[::-1], out=self.factor[lo:hi])
            self.blocks.append((lo, hi, rcp, 1.0 / balance))

    def sweep(self, S: np.ndarray) -> None:
        """Turn S = factor * P, of shape (npan,), into the solution in place."""
        for lo, hi, rcp, seed in self.blocks:
            T = S[lo:hi][::-1]
            np.cumsum(T, out=T)
            if hi < self.npan:
                T += seed * S[hi]
            T *= rcp

    def __call__(self, P: np.ndarray, out=None) -> np.ndarray:
        S = np.empty(self.npan, dtype=complex) if out is None else out
        np.multiply(P, self.factor, out=S)
        self.sweep(S)
        return S


class _Phi1Plan:
    """Trapezoid K1 convolution sum_j y_j K1(t_i - t_j), y = h w x (w the
    trapezoid weights), as a backward recurrence over j >= i (decay e^{-A- h},
    diagonal term included) plus a forward one over j < i (decay e^{-A+ h}),
    each with h w folded in and built once per (grid, kernel).  A call makes 7
    passes (three per recurrence, one add) and holds the forward part's n - 1
    entries beside its result."""

    def __init__(self, grid: LogGrid, kernel: KernelK1):
        n, h = grid.n, grid.h
        scale = h * _trapezoid_weights(n)
        # x -> sum_{j >= i} e^{-A- h (j - i)} scale_j x_j
        self.backward = _Recurrence(np.full(n, math.exp(-kernel.A_minus * h)),
                                    kernel.A_minus * h, scale)
        # x[::-1][1:] -> sum_{j < i} e^{-A+ h (i - j)} scale_j x_j for i >= 1, reversed
        d = math.exp(-kernel.A_plus * h)
        self.forward = _Recurrence(np.full(n - 1, d), kernel.A_plus * h, d * scale[:-1][::-1])

    def __call__(self, samples: np.ndarray, out=None) -> np.ndarray:
        """The convolution of samples of shape (n,), written into ``out`` if given."""
        x = np.asarray(samples)
        out = self.backward(x, out)
        out[1:] += self.forward(x[::-1][1:])[::-1]
        return out


def apply_phi1(fn: ModeFunction, kernel: KernelK1) -> ModeFunction:
    """Convolve with K1 using trapezoid weights, in O(n)."""
    return fn.with_samples(_Phi1Plan(fn.grid, kernel)(fn.samples))


def psi_from_U(fn: ModeFunction, params: VortexParams) -> ModeFunction:
    """Reconstruct psi = -(1/(2mk)) * K1-convolution of U (k = fn.k), the unique
    integrable solution of the second-order relation (truncated to the grid)."""
    k = fn.k
    if k < 1:
        raise ValueError("psi_from_U requires k >= 1 (no stream-function coupling at k = 0)")
    phi = apply_phi1(fn, KernelK1(k, params.q, params.m))
    return phi.with_samples(-1.0 / (2.0 * params.m * k) * phi.samples)
