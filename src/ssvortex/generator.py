"""Dense per-mode generator matrices, semigroup time stepping, and eigenvalue scans.

The mode-k generator acting on U-samples is

    L_k U = (1/alpha) U' + a0 U - i*m*k*beta*e^{-alpha t} U
            + i*(alpha*(2-alpha)*beta/2)*e^{-alpha t} * Phi1(U),

where the last term is the stream-function coupling (psi = -Phi1(U)/(2mk)
eliminated).  The drift (1/alpha) d/dt transports profiles toward decreasing t,
so the upwind side is the right neighbourhood and the inflow boundary is the
right edge (held at zero through the stencil closure).  The resolvent solves in
``resolvent`` satisfy (L_k - lambda) U = G on the same grid, which pins the sign
and normalization conventions used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import resolvent
from .modes import KernelK1, LogGrid, ModeFunction, lq_norm_samples, phi1_matrix
from .params import VortexParams
from .resolvent import ode_residual, solve_k0, solve_mode


@dataclass(frozen=True)
class GeneratorMatrix:
    """Dense complex discretization of the mode-k generator on a LogGrid."""

    k: int
    grid: LogGrid
    params: VortexParams
    entries: np.ndarray


def _drift_matrix(n: int, h: float) -> np.ndarray:
    """Third-order upwind-biased d/dt for leftward transport.

    Interior rows use the stencil (-2, -3, 6, -1)/(6h) on offsets (-1, 0, 1, 2);
    the right edge closes against a zero ghost value (inflow), the left edge is
    one-sided into the interior (outflow).
    """
    D = np.zeros((n, n))
    for i in range(1, n - 2):
        D[i, i - 1] = -2.0 / 6.0
        D[i, i] = -3.0 / 6.0
        D[i, i + 1] = 6.0 / 6.0
        D[i, i + 2] = -1.0 / 6.0
    D[0, 0] = -11.0 / 6.0
    D[0, 1] = 3.0
    D[0, 2] = -1.5
    D[0, 3] = 1.0 / 3.0
    D[n - 2, n - 3] = -0.5
    D[n - 2, n - 1] = 0.5
    D[n - 1, n - 2] = -0.5  # centered with ghost U_n = 0
    return D / h


def assemble_generator(k: int, params: VortexParams, grid: LogGrid) -> GeneratorMatrix:
    """Build the dense mode-k generator matrix."""
    p = params
    n = grid.n
    t = grid.nodes
    L = (1.0 / p.alpha) * _drift_matrix(n, grid.h).astype(complex)
    idx = np.arange(n)
    L[idx, idx] += p.a0
    if k > 0 and p.beta != 0.0:
        decay = np.exp(-p.alpha * t)
        L[idx, idx] += -1j * p.m * k * p.beta * decay
        pm = phi1_matrix(grid, KernelK1(k, p.q, p.m))
        L += (1j * p.alpha * (2.0 - p.alpha) * p.beta / 2.0) * decay[:, None] * pm
    return GeneratorMatrix(k=k, grid=grid, params=p, entries=L)


def spectral_radius_estimate(gen: GeneratorMatrix) -> float:
    """Cheap upper estimate used for the explicit step-size limit."""
    p = gen.params
    h = gen.grid.h
    est = 1.8 / (p.alpha * h) + abs(p.a0)
    if gen.k > 0 and p.beta != 0.0:
        k1 = KernelK1(gen.k, p.q, p.m)
        e_max = math.exp(-p.alpha * gen.grid.t_min)
        est += p.m * gen.k * abs(p.beta) * e_max
        est += 0.5 * p.alpha * (2.0 - p.alpha) * abs(p.beta) * e_max \
            * (1.0 / k1.A_plus + 1.0 / k1.A_minus)
    return est


# RK4's stability interval on the real axis is about [-2.79, 0]
STABLE_DT_SAFETY = 2.5
# a trace records about this many norm samples after the initial one
TRACE_SAMPLES = 64


def stable_dt(gen: GeneratorMatrix) -> float:
    return STABLE_DT_SAFETY / spectral_radius_estimate(gen)


@dataclass
class EvolutionTrace:
    times: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    dt: float = math.nan
    steps: int = 0


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


def evolve(U0, tau_end: float, dt: float | None, gen: GeneratorMatrix) -> EvolutionTrace:
    """March dU/dtau = L U with the classical 4-stage explicit integrator.

    ``dt=None`` picks the largest stable step; an explicit dt beyond the
    stability limit is rejected with a suggested value.
    """
    limit = stable_dt(gen)
    if dt is None:
        dt = limit
    elif dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3g} exceeds the stability limit; use dt <= {limit:.3g}")
    U = np.array(U0, dtype=complex)
    if U.shape != (gen.grid.n,):
        raise ValueError("initial data does not match the generator grid")
    q = gen.params.q
    h = gen.grid.h
    L = gen.entries
    steps = max(1, int(math.ceil(tau_end / dt)))
    dt = tau_end / steps
    every = max(1, steps // TRACE_SAMPLES)
    times = [0.0]
    norms = [lq_norm_samples(U, h, q)]
    for s in range(1, steps + 1):
        k1 = L @ U
        k2 = L @ (U + 0.5 * dt * k1)
        k3 = L @ (U + 0.5 * dt * k2)
        k4 = L @ (U + dt * k3)
        U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if s % every == 0 or s == steps:
            times.append(s * dt)
            norms.append(lq_norm_samples(U, h, q))
    times = np.asarray(times)
    norms = np.asarray(norms)
    rate = growth_fit(times, norms) if times.size >= 10 else math.nan
    return EvolutionTrace(times=times, norms=norms, fitted_rate=rate, dt=dt, steps=steps)


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


def eig_scan(k_values, params: VortexParams, grid: LogGrid) -> dict:
    """Dense eigenvalue scan of every mode generator, with resolvent cross-probes.

    Any eigenvalue with Re > a0 + EPS_DISC is flagged; a flagged point is
    discarded ("does not survive") when the resolvent solve at that point meets
    the solver's residual tolerance (``ode_residual`` against
    ``resolvent.RESIDUAL_TOL``, read at call time), which identifies it
    as a truncation artifact rather than spectrum.  Conclusions are desk-scale
    evidence: the probe, not the discretized eigenvalue, is the arbiter.
    """
    if grid.n > SCAN_N_MAX:
        raise ValueError(f"dense eigensolve capped at n = {SCAN_N_MAX}; use a coarser scan grid")
    p = params
    a0 = p.a0
    modes = []
    for k in k_values:
        entry = {"k": int(k)}
        try:
            gen = assemble_generator(k, p, grid)
            ev = np.linalg.eigvals(gen.entries)
        except np.linalg.LinAlgError as exc:
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
                if not z.real > a0:
                    # the solve is only defined right of a0; such a flag cannot
                    # be discarded by a probe
                    entry["probes"].append({"lambda": z, "residual": math.inf,
                                            "resolved": False,
                                            "note": "left of a0, not probeable"})
                    continue
                G = ModeFunction(k, "G", PROBE_GRID, gauss)
                sol = solve_k0(G, z, p) if k == 0 else solve_mode(G, z, p)
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
