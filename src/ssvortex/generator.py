"""Per-mode generator operators, semigroup time stepping, and eigenvalue scans.

The mode-k generator acting on U-samples is

    L_k U = (1/alpha) U' + a0 U - i*m*k*beta*e^{-alpha t} U
            + i*(alpha*(2-alpha)*beta/2)*e^{-alpha t} * Phi1(U),

where the last term is the stream-function coupling (psi = -Phi1(U)/(2mk)
eliminated).  The drift (1/alpha) d/dt transports profiles toward decreasing t,
so the upwind side is the right neighbourhood and the inflow boundary is the
right edge (held at zero through the stencil closure).  The resolvent solves in
``resolvent`` satisfy (L_k - lambda) U = G on the same grid, which pins the sign
and normalization conventions used here.

``GeneratorMatrix.apply`` evaluates L_k U in O(n): a banded drift stencil, a
diagonal, and the coupling through the K1 recurrences of ``modes._Phi1Plan``.
Time stepping runs on it.  The dense matrix of the same operator,
``GeneratorMatrix.dense()``, is built fresh on each call: by the eigenvalue
scan, which hands it to LAPACK to overwrite, and by the tests as the oracle of
``apply``.  It is built in place, Fortran-ordered, the coupling in blocks of 16
rows, so its peak memory is the result plus one block's temporaries (about
1 MiB at n = 2048) and the eigensolve needs no second copy.  The eigensolve's
finite check reads LAPACK's max |entry| (zlange) instead of allocating an n x n
mask, so the scan's peak is one matrix plus LAPACK's workspace.

A mode with the K1 block is solved by ``scipy.linalg.eigvals`` (LAPACK's
zgeev: balance, Hessenberg reduction, QR iteration).  A mode without it (k = 0
or beta = 0) is the drift band plus a diagonal; no stencil offset lies below -1,
so that matrix is already upper Hessenberg with a real subdiagonal, and the
reduction (zgehrd) would return it unchanged after an O(n^3) pass.  Those modes
run zgeev's other steps directly, and their eigenvalues have the same bytes.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, eigvals
from scipy.linalg.lapack import zgebal, zgeev_lwork, zlange

from . import resolvent
from .modes import KernelK1, LogGrid, ModeFunction, _Phi1Plan, lq_norm_samples, phi1_matrix
from .params import VortexParams
from .resolvent import ode_residual, solve_mode

# Third-order upwind-biased h*d/dt for leftward transport, as (offset,
# coefficient) pairs.  Interior rows 1..n-3 use DRIFT_INTERIOR; rows 0, n-2 and
# n-1 (indexed from the end when negative) use DRIFT_EDGES: the left edge is
# one-sided into the interior (outflow), the right edge closes against a zero
# ghost value U_n = 0 (inflow).
DRIFT_INTERIOR = ((-1, -2.0 / 6.0), (0, -3.0 / 6.0), (1, 6.0 / 6.0), (2, -1.0 / 6.0))
DRIFT_EDGES = (
    (0, ((0, -11.0 / 6.0), (1, 3.0), (2, -1.5), (3, 1.0 / 3.0))),
    (-2, ((-1, -0.5), (1, 0.5))),
    (-1, ((-1, -0.5),)),  # centered with ghost U_n = 0
)


# rows of the K1 coupling that ``dense`` builds at a time: its temporaries are
# a few 16 x n arrays, small beside the n x n result
_ENTRY_BLOCK_ROWS = 16


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """The mode-k generator on a LogGrid as an O(n) operator.

    ``apply(U)`` is ``drift_scale`` times the drift stencil, plus ``diag * U``,
    plus ``coup * plan(U)`` (the K1 coupling; ``plan`` is None when k = 0 or
    beta = 0).  ``dense()`` builds the dense matrix of the same operator.
    """

    k: int
    grid: LogGrid
    params: VortexParams
    drift_scale: float       # 1/(alpha h)
    diag: np.ndarray         # a0 - i*m*k*beta*e^{-alpha t}
    coup: np.ndarray | None  # i*alpha*(2-alpha)*beta/2 * e^{-alpha t}
    plan: _Phi1Plan | None

    def apply(self, U: np.ndarray) -> np.ndarray:
        """L_k U for samples U on the grid."""
        n = U.shape[0]
        DU = np.empty_like(U)
        DU[1:-2] = sum(c * U[1 + off:n - 2 + off] for off, c in DRIFT_INTERIOR)
        for row, stencil in DRIFT_EDGES:
            DU[row] = sum(c * U[row % n + off] for off, c in stencil)
        out = self.drift_scale * DU + self.diag * U
        if self.plan is not None:
            out += self.coup * self.plan(U)
        return out

    def dense(self) -> np.ndarray:
        """A new dense complex matrix of the operator (n x n, Fortran order, so
        LAPACK can work on it without a copy), built in place in blocks of
        ``_ENTRY_BLOCK_ROWS`` rows (peak: the result plus one block's
        temporaries).  Each entry is ``(1/alpha) * (c/h)``, then ``+= diag``,
        then ``+= coup_i * ((h K_ij) w_j)``, so the block size does not change
        its bytes."""
        p = self.params
        n, h = self.grid.n, self.grid.h
        L = np.zeros((n, n), dtype=complex, order="F")
        rows = np.arange(1, n - 2)
        for off, c in DRIFT_INTERIOR:
            L[rows, rows + off] = (1.0 / p.alpha) * (c / h)
        for row, stencil in DRIFT_EDGES:
            for off, c in stencil:
                L[row % n, row % n + off] = (1.0 / p.alpha) * (c / h)
        idx = np.arange(n)
        L[idx, idx] += self.diag
        if self.plan is not None:
            kernel = KernelK1(self.k, p.q, p.m)
            for lo in range(0, n, _ENTRY_BLOCK_ROWS):
                block = slice(lo, lo + _ENTRY_BLOCK_ROWS)
                L[block] += self.coup[block, None] * phi1_matrix(self.grid, kernel, rows=block)
        return L


def assemble_generator(k: int, params: VortexParams, grid: LogGrid) -> GeneratorMatrix:
    """Build the mode-k generator operator; O(n)."""
    p = params
    diag = np.full(grid.n, p.a0, dtype=complex)
    coup = plan = None
    if k > 0 and p.beta != 0.0:
        decay = np.exp(-p.alpha * grid.nodes)
        diag = p.a0 + -1j * p.m * k * p.beta * decay
        coup = (1j * p.alpha * (2.0 - p.alpha) * p.beta / 2.0) * decay
        plan = _Phi1Plan(grid, KernelK1(k, p.q, p.m))
    return GeneratorMatrix(k=k, grid=grid, params=p, drift_scale=1.0 / (p.alpha * grid.h),
                           diag=diag, coup=coup, plan=plan)


# RK4's stability interval on the real axis is about [-2.79, 0]
STABLE_DT_SAFETY = 2.5
# a trace records about this many norm samples after the initial one
TRACE_SAMPLES = 64


def stable_dt(gen: GeneratorMatrix) -> float:
    """Explicit step-size limit: STABLE_DT_SAFETY over a cheap upper estimate
    of the generator's spectral radius."""
    p = gen.params
    h = gen.grid.h
    est = 1.8 / (p.alpha * h) + abs(p.a0)
    if gen.k > 0 and p.beta != 0.0:
        k1 = KernelK1(gen.k, p.q, p.m)
        e_max = math.exp(-p.alpha * gen.grid.t_min)
        est += p.m * gen.k * abs(p.beta) * e_max
        est += 0.5 * p.alpha * (2.0 - p.alpha) * abs(p.beta) * e_max \
            * (1.0 / k1.A_plus + 1.0 / k1.A_minus)
    return STABLE_DT_SAFETY / est


@dataclass
class EvolutionTrace:
    times: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    steps: int


def growth_fit(times, norms) -> float:
    """Least-squares slope of log ||U|| over the trailing half of the trace.

    Returns NaN for a degenerate (zero-norm) trace.
    """
    times = np.asarray(times, dtype=float)
    vals = np.asarray(norms, dtype=float)
    if times.size < 10:
        raise ValueError("growth fit needs at least 10 samples")
    half = times.size // 2
    tt = times[half:]
    vv = vals[half:]
    if np.any(vv <= 0.0):
        return math.nan
    A = np.vstack([tt, np.ones_like(tt)]).T
    slope, _ = np.linalg.lstsq(A, np.log(vv), rcond=None)[0]
    return float(slope)


def evolve(U0, tau_end: float, *, gen: GeneratorMatrix) -> EvolutionTrace:
    """March dU/dtau = L U with the classical 4-stage explicit integrator, in
    the fewest equal steps that reach tau_end without exceeding ``stable_dt``."""
    dt = stable_dt(gen)
    U = np.array(U0, dtype=complex)
    if U.shape != (gen.grid.n,):
        raise ValueError("initial data does not match the generator grid")
    q = gen.params.q
    h = gen.grid.h
    L = gen.apply
    steps = max(1, int(math.ceil(tau_end / dt)))
    dt = tau_end / steps
    every = max(1, steps // TRACE_SAMPLES)
    times = [0.0]
    norms = [lq_norm_samples(U, h, q)]
    for s in range(1, steps + 1):
        k1 = L(U)
        k2 = L(U + 0.5 * dt * k1)
        k3 = L(U + 0.5 * dt * k2)
        k4 = L(U + dt * k3)
        U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if s % every == 0 or s == steps:
            times.append(s * dt)
            norms.append(lq_norm_samples(U, h, q))
    times = np.asarray(times)
    norms = np.asarray(norms)
    rate = growth_fit(times, norms) if times.size >= 10 else math.nan
    return EvolutionTrace(times=times, norms=norms, fitted_rate=rate, steps=steps)


def _dedupe_flags(flagged: np.ndarray, radius: float = 0.3):
    """Greedy clustering of flagged eigenvalues, strongest real part first."""
    order = np.argsort(-flagged.real)
    kept = []
    for z in flagged[order]:
        if all(abs(z - w) > radius for w in kept):
            kept.append(complex(z))
    return kept


# largest grid a dense eigensolve is run on
SCAN_N_MAX = 4096
# eigenvalues with Re > a0 + EPS_DISC are flagged and cross-probed by a
# resolvent solve of a Gaussian on PROBE_GRID
EPS_DISC = 0.05
PROBE_GRID = LogGrid(-20.0, 20.0, 2**16 + 1)


# zhseqr's C signature in scipy's Cython LAPACK table when LAPACK's INTEGER is a
# C int (LP64), which is what the ctypes prototype below declares
_ZHSEQR_SIGNATURE = (
    "void (char *, char *, int *, int *, int *, __pyx_t_double_complex *, int *, "
    "__pyx_t_double_complex *, __pyx_t_double_complex *, int *, "
    "__pyx_t_double_complex *, int *, int *)")
_INT_P = ctypes.POINTER(ctypes.c_int)
_ZHSEQR_TYPE = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, _INT_P, _INT_P, _INT_P,
                                ctypes.c_void_p, _INT_P, ctypes.c_void_p, ctypes.c_void_p, _INT_P,
                                ctypes.c_void_p, _INT_P, _INT_P)


def _lapack_function(name: str, signature: str, prototype):
    """A routine of the LAPACK that scipy links, from scipy's Cython table, as a
    ctypes function; raises if its C signature is not ``signature``."""
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsule = cython_lapack.__pyx_capi__[name]
    found = capsule_name(capsule)
    if found != signature.encode():
        raise RuntimeError(f"scipy's {name} has the C signature {found!r}, not {signature!r}")
    return prototype(capsule_pointer(capsule, found))


_ZHSEQR = _lapack_function("zhseqr", _ZHSEQR_SIGNATURE, _ZHSEQR_TYPE)
# zgeev scales a matrix whose largest |entry| lies outside [_SMLNUM, 1/_SMLNUM]
_SMLNUM = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


def _zhseqr(H: np.ndarray, lwork: int) -> tuple[np.ndarray, int]:
    """LAPACK's zhseqr('E', 'N') on all of the Fortran-ordered upper Hessenberg
    H (ilo = 1, ihi = n), which it overwrites: the eigenvalues and ``info``."""
    n = H.shape[0]
    if H.dtype != complex or H.shape != (n, n) or not H.flags.f_contiguous:
        raise TypeError("zhseqr needs a square Fortran-ordered complex128 matrix")
    w = np.empty(n, dtype=complex)
    work = np.empty(lwork, dtype=complex)
    z = np.empty(1, dtype=complex)  # not referenced with compz = 'N'
    ints = [ctypes.c_int(v) for v in (n, 1, n, n, 1, lwork, 0)]
    N, ILO, IHI, LDH, LDZ, LWORK, INFO = (ctypes.byref(v) for v in ints)
    _ZHSEQR(b"E", b"N", N, ILO, IHI, H.ctypes.data, LDH, w.ctypes.data, z.ctypes.data, LDZ,
            work.ctypes.data, LWORK, INFO)
    return w, ints[-1].value


def _max_abs_entry(A: np.ndarray) -> float:
    """LAPACK's zlange('M'), the largest |entry| of the complex A.  It is NaN or
    inf whenever an entry has a NaN or infinite part, and then this raises the
    ValueError of ``np.asarray_chkfinite``, without that check's n x n mask."""
    anrm = zlange("M", A)
    if not math.isfinite(anrm):
        raise ValueError("array must not contain infs or NaNs")
    return anrm


def _hessenberg_eigvals(A: np.ndarray) -> np.ndarray:
    """The eigenvalues ``eigvals(A, overwrite_a=True)`` returns, with the same
    bytes, for a Fortran-ordered complex A that is upper Hessenberg with a real
    subdiagonal and that balancing does not permute.

    zgeev balances A (zgebal, job 'B'), reduces it to Hessenberg form (zgehrd)
    and runs zhseqr on the result.  On such an A every Householder vector of the
    reduction is zero with tau = 0, so zgehrd leaves A as it is.  This runs the
    other two steps, handing zhseqr all of zgeev's workspace as zgeev's
    eigenvalues-only branch does: the workspace size sets zhseqr's deflation
    window, so a smaller one changes the bytes.  Overwrites A.  A non-finite A
    raises ValueError and an eigensolve that does not converge LinAlgError, as
    in ``eigvals``; an A that zgeev would scale or that balancing permutes
    raises RuntimeError, since zgeev's path differs there.
    """
    n = A.shape[0]
    anrm = _max_abs_entry(A)
    if 0.0 < anrm < _SMLNUM or anrm > 1.0 / _SMLNUM:
        raise RuntimeError(f"max |entry| {anrm:.3g} is outside the range zgeev leaves unscaled")
    A, lo, hi, _, info = zgebal(A, scale=1, permute=1, overwrite_a=1)
    if info != 0 or (lo, hi) != (0, n - 1):
        raise RuntimeError(f"zgebal returned info = {info}, ilo = {lo + 1}, ihi = {hi + 1}: "
                           f"it permuted the matrix or failed (n = {n})")
    work, info = zgeev_lwork(n, compute_vl=0, compute_vr=0)
    if info != 0:
        raise RuntimeError(f"zgeev workspace query failed: info = {info}")
    w, info = _zhseqr(A, int(work.real))
    if info < 0:
        raise RuntimeError(f"zhseqr: illegal value in argument {-info}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"eig algorithm (zhseqr) did not converge (only eigenvalues with order >= {info} "
            "have converged)")
    return w


def _mode_eigvals(gen: GeneratorMatrix) -> np.ndarray:
    """The eigenvalues of ``gen.dense()``, which LAPACK overwrites; the matrix
    is released on return, before the next mode's is built."""
    A = gen.dense()
    # without K1 the matrix is the drift band plus a diagonal: upper
    # Hessenberg with a real subdiagonal, so zgeev's reduction is a no-op
    if gen.plan is None:
        return _hessenberg_eigvals(A)
    _max_abs_entry(A)
    return eigvals(A, overwrite_a=True, check_finite=False)


def eig_scan(k_values, params: VortexParams, grid: LogGrid) -> dict:
    """Dense eigenvalue scan of every mode generator, with resolvent cross-probes.

    Any eigenvalue with Re > a0 + EPS_DISC is flagged; a flagged point is
    discarded ("does not survive") when the resolvent solve at that point meets
    the solver's residual tolerance (``ode_residual`` against
    ``resolvent.RESIDUAL_TOL``, read at call time), which identifies it
    as a truncation artifact rather than spectrum.  Conclusions are desk-scale
    evidence: the probe, not the discretized eigenvalue, is the arbiter.

    Each mode's matrix is built once and overwritten by LAPACK.  A mode with
    the K1 block goes to ``eigvals``; a mode without it skips zgeev's Hessenberg
    reduction, which is the identity on its matrix (``_hessenberg_eigvals``),
    and gets the same eigenvalue bytes.  A matrix with an inf or NaN, or an
    eigensolve that does not converge, is reported as a ``failed`` mode.
    """
    if grid.n > SCAN_N_MAX:
        raise ValueError(f"dense eigensolve capped at n = {SCAN_N_MAX}; use a coarser scan grid")
    p = params
    a0 = p.a0
    modes = []
    for k in k_values:
        entry = {"k": int(k)}
        gen = assemble_generator(k, p, grid)
        try:
            ev = _mode_eigvals(gen)
        except (np.linalg.LinAlgError, ValueError) as exc:  # no convergence; inf or NaN
            entry["failed"] = str(exc)
            modes.append(entry)
            continue
        entry["max_re"] = float(ev.real.max())
        entry["eigenvalues"] = ev
        flagged = ev[ev.real > a0 + EPS_DISC]
        entry["n_flagged"] = int(flagged.size)
        entry["probes"] = []
        if flagged.size:
            gauss = np.exp(-PROBE_GRID.nodes**2).astype(complex)
            for z in _dedupe_flags(flagged):
                G = ModeFunction(k, PROBE_GRID, gauss)
                sol = solve_mode(G, z, p)
                res = ode_residual(sol.U, G, z, p)[0]
                entry["probes"].append({
                    "lambda": z,
                    "residual": res,
                    "resolved": bool(res <= resolvent.RESIDUAL_TOL),
                })
        entry["survivors"] = [pr["lambda"] for pr in entry["probes"] if not pr["resolved"]]
        modes.append(entry)
    ok_modes = [m for m in modes if "failed" not in m]
    passed = all(not m["survivors"] for m in ok_modes) and len(ok_modes) == len(modes)
    return {"eps_disc": EPS_DISC, "a0": a0, "modes": modes, "passed": passed}
