"""Verification suites and deterministic report emission.

Each suite checks one family of quantitative claims at desk scale and returns a
JSON-able summary plus CSV rows.  The same functions back the command-line
runner and the acceptance test suite, so a CLI run and `pytest` exercise the
identical code paths.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import resolvent
from .generator import SCAN_N_MAX, assemble_generator, eig_scan, evolve
from .homogeneous import MISMATCH_THRESHOLD, NO_INTEGRABLE, shoot_batch
from .modes import MAX_PANEL_DECAY, KernelK1, LogGrid, ModeFunction, _Phi1Plan, lq_norm_samples
from .params import VortexParams, _number, _spectral_point
from .resolvent import (
    RESOLVENT_COLUMNS,
    ConvergenceError,
    KernelK2,
    _reduced_picard,
    _ScanPlan,
    contraction_bound,
    ode_residual,
    resolvent_bound_check,
    resolvent_row,
    solve_mode,
    verify_kernel_composition,
    verify_neat_identities,
)

SUITES = ("identities", "resolvent", "semigroup", "spectrum", "shooting")

# (q, alpha) pairs for the lattice checks: alpha = 2/q on the scaling-critical
# boundary where admissible (q > 2); q = 2 runs at the default alpha = 0.5
YOUNG_LATTICE = ((2.0, 0.5), (2.5, 0.8), (3.0, 2.0 / 3.0), (4.0, 0.5))
LATTICE_K = tuple(range(1, 9))
LAMBDA_OFFSETS_YOUNG = (0.5, 2.0)

# fixed grid spans t in [-T, T] (point counts are RunConfig fields)
FINE_T = 25.0        # residual-grade solves
NORM_T = 25.0        # norm-ratio batches
YOUNG_T, YOUNG_N = 40.0, 4097
EVOLVE_T_MIN, EVOLVE_T_MAX = -8.0, 10.0

DEFAULT_PARAMS = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)


@dataclass
class RunConfig:
    """Everything a batch run needs; all randomized checks derive from ``seed``.

    Values are normalized to the declared field types: an integral float is
    accepted for an int, a scalar for a tuple (as a 1-tuple).
    """

    params: VortexParams = DEFAULT_PARAMS
    suites: tuple = SUITES
    k_max: int = 8
    seed: int = 1234
    out_dir: str = "out"
    # probe points lambda = a0 + offset; complex offsets are allowed
    lambda_offsets: tuple = (0.1, 0.5, 1.0, 4.0)
    young_batch: int = 100
    bound_batch: int = 12
    # grid point counts, the scan span and the evolution time
    fine_n: int = 2**17 + 1
    norm_n: int = 2**14 + 1
    scan_t: float = 12.0
    scan_n: int = 2048
    evolve_n: int = 1024
    tau_end: float = 5.0
    shoot_k: tuple = (1, 2, 3)
    shoot_offsets: tuple = (0.8, 1.6, 2.4, 3.2, 4.0)
    shoot_imags: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)

    def __post_init__(self):
        # f.type is the annotation's text (postponed annotations, PEP 563)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "float"):
                value = _number(f.name, value, f.type == "int")
            elif f.type == "tuple":
                value = tuple(value) if isinstance(value, (tuple, list)) else (value,)
            setattr(self, f.name, value)
        for name, integer in (("shoot_k", True), ("shoot_offsets", False), ("shoot_imags", False)):
            setattr(self, name, tuple(_number(name, x, integer) for x in getattr(self, name)))
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; choose from {SUITES}")
        if self.seed < 0 or self.k_max < 0:
            raise ValueError("seed and k_max must be nonnegative")
        if self.scan_t <= 0 or self.tau_end <= 0:
            raise ValueError("scan_t and tau_end must be positive")
        # a check over no samples would pass vacuously
        if self.young_batch < 1 or self.bound_batch < 1:
            raise ValueError("young_batch and bound_batch must be at least 1")
        if not (self.shoot_k and self.shoot_offsets and self.shoot_imags):
            raise ValueError("shoot_k, shoot_offsets and shoot_imags each need an entry")
        # the shooting suite adds the analytic k = 0 row itself
        if any(k < 1 for k in self.shoot_k):
            raise ValueError("every shoot_k entry must be at least 1")
        # a shooting point must be finite and right of a0 once formed: a0 + 1e-20 is a0
        try:
            for lam in self.shoot_lambdas():
                _spectral_point(self.params, lam)
        except ValueError as exc:
            raise ValueError(f"shoot_offsets: {exc}") from None
        if min(self.fine_n, self.norm_n, self.scan_n, self.evolve_n) < 16:
            raise ValueError("every grid needs at least 16 points")
        if self.scan_n > SCAN_N_MAX:
            raise ValueError(f"scan_n = {self.scan_n} exceeds the dense eigensolve cap {SCAN_N_MAX}")
        if not self.lambda_offsets:
            raise ValueError("no probe points: set lambda_offsets")
        # each probe point is a complex number and a K2 kernel's lambda (finite, right of
        # a0), and a K2 scan's recurrence must resolve its decay Re B * h per grid panel
        try:
            reB = max(KernelK2(self.params, 0, z).B.real for z in self.probe_lambdas())
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"lambda_offsets: {exc}") from None
        h = max(LogGrid(-FINE_T, FINE_T, self.fine_n).h, LogGrid(-NORM_T, NORM_T, self.norm_n).h)
        if reB * h > MAX_PANEL_DECAY:
            raise ValueError(f"lambda_offsets: a probe point decays by {reB * h:.4g} per panel"
                             f" of the fine or norm grid, beyond {MAX_PANEL_DECAY:g}")

    def probe_lambdas(self):
        return tuple(self.params.a0 + complex(off) for off in self.lambda_offsets)

    def shoot_lambdas(self):
        return tuple(complex(self.params.a0 + off, li)
                     for off in self.shoot_offsets for li in self.shoot_imags)


def _summary(name: str, cfg: RunConfig, checks: list, **extra) -> dict:
    """The report envelope every suite shares; ``passed`` iff every check did."""
    p = cfg.params
    return {"suite": name,
            "params": {"alpha": p.alpha, "beta": p.beta, "m": p.m, "q": p.q, "a0": p.a0},
            "seed": cfg.seed, "checks": checks,
            "passed": all(c["passed"] for c in checks), **extra}


# --------------------------------------------------------------------------
# identities
# --------------------------------------------------------------------------

def suite_identities(cfg: RunConfig) -> tuple[dict, list, list]:
    p = cfg.params
    t_samples = list(np.linspace(-2.0, 3.0, 5))
    mu_samples = [0.5, 1.0, 2.0, 3.75]
    neat = verify_neat_identities(t_samples, mu_samples, p, k=1)

    lattice = list(np.linspace(-2.0, 2.5, 10))
    comp = [r for k, off in ((1, 0.5), (2, 1.0 + 1.0j), (3, 0.5 - 0.5j))
            for r in verify_kernel_composition(lattice, lattice, p, k, p.a0 + off)]
    checks = []
    for name, own, tol in (("tail_and_interval_shortcuts", neat, 1e-8),
                           ("kernel_composition_collapse", comp, 1e-6)):
        # with no rows (beta = 0) the maximum is NaN, so the check fails
        worst = max((r["abs_error"] for r in own), default=math.nan)
        checks.append({"name": name, "max_error": worst, "tolerance": tol,
                       "passed": bool(worst <= tol)})
    summary = _summary("identities", cfg, checks, note=(
        "each closed-form shortcut is the boundary term of one"
        " integration by parts, so its error is the computable"
        " remainder integral, which vanishes only in the rapid-phase"
        " limit; at these parameters strict tolerances are expected"
        " to fail"))
    cols = ["check", "t", "r", "mu_re", "mu_im", "abs_error"]
    return summary, neat + comp, cols


# --------------------------------------------------------------------------
# resolvent
# --------------------------------------------------------------------------

def _lattice(cfg: RunConfig) -> list:
    """The lattice checks' vortices, one per YOUNG_LATTICE entry, at cfg's beta."""
    return [VortexParams(alpha=alpha, beta=cfg.params.beta, m=2, q=q)
            for q, alpha in YOUNG_LATTICE]


def _check(name: str, rows: list, **summary) -> dict:
    """A check that passes exactly when each of its rows does."""
    return {"name": name, **summary, "passed": all(r["passed"] for r in rows)}


def _young_checks(cfg: RunConfig) -> tuple[list, list]:
    """Largest ||Phi(x)||_q / ||x||_q of K1 and K2 over young_batch white-noise
    draws, one plan per kernel applied to each draw in turn."""
    rng = np.random.default_rng(cfg.seed + 1)
    grid = LogGrid(-YOUNG_T, YOUNG_T, YOUNG_N)

    def young_row(check, k, p, lam, plan, bound):
        # each draw's real part is drawn before its imaginary part
        draws = (re + 1j * im for re, im in rng.standard_normal((cfg.young_batch, 2, grid.n)))
        worst = max(lq_norm_samples(plan(x), grid.h, p.q) / lq_norm_samples(x, grid.h, p.q)
                    for x in draws)
        return resolvent_row(check, k, p, lam, worst, bound, worst <= bound * (1.0 + 1e-6))

    rows = []
    for p in _lattice(cfg):
        for k in LATTICE_K:
            kernel = KernelK1(k, p.q, p.m)
            rows.append(young_row("young_phi1", k, p, None, _Phi1Plan(grid, kernel),
                                  2.0 / kernel.A_minus))
        for off in LAMBDA_OFFSETS_YOUNG:
            k2 = KernelK2(p, 1, p.a0 + off)
            rows.append(young_row("young_phi2", 1, p, k2.lam, _ScanPlan(grid, k2),
                                  1.0 / k2.B.real))
    checks = []
    for kind in ("young_phi1", "young_phi2"):
        own = [r for r in rows if r["check"] == kind]
        checks.append(_check(f"{kind}_lattice", own,
                             worst_ratio_to_bound=max(r["value"] / r["bound"] for r in own)))
    return checks, rows


def _contraction_checks(cfg: RunConfig) -> tuple[list, list]:
    grid = LogGrid(-20.0, 20.0, 2**14 + 1)
    gauss = np.exp(-grid.nodes**2).astype(complex)
    gamma_rows, iter_rows = [], []
    for p in _lattice(cfg):
        for k in LATTICE_K:
            g = contraction_bound(p, k)
            gamma_rows.append(resolvent_row("gamma", k, p, None, g, 1.0, g < 1.0))
        for k in (1, 2, 4, 8):
            g = contraction_bound(p, k)
            budget = int(math.ceil(math.log(resolvent.PICARD_TOL) / math.log(g))) + 1
            for off in LAMBDA_OFFSETS_YOUNG:
                G = ModeFunction(k, grid, gauss)
                try:
                    # `sol` stays bound while the next solve runs: freed at once, it lets
                    # glibc trim the heap, and each solve faults its pages in afresh
                    sol = _reduced_picard(G, p.a0 + off, p)
                    steps, ok = sol.iterations, sol.iterations <= budget
                except ConvergenceError as exc:
                    # a Picard run that broke off certifies nothing, however few steps it took
                    steps, ok = len(exc.history), False
                iter_rows.append(resolvent_row("picard_iterations", k, p, p.a0 + off,
                                               steps, budget, ok))
    return [_check("contraction_factor_below_one", gamma_rows,
                   worst_gamma=max(r["value"] for r in gamma_rows)),
            _check("picard_iteration_budget", iter_rows)], gamma_rows + iter_rows


def _residual_checks(cfg: RunConfig) -> tuple[list, list]:
    p = cfg.params
    rows = []
    grid = LogGrid(-FINE_T, FINE_T, cfg.fine_n)
    tol = resolvent.RESIDUAL_TOL
    for lam in cfg.probe_lambdas():
        for k in (0, 1, 2):
            # ModeFunction copies its samples, so a Gaussian kept across solves
            # would sit beside each G: one is built for each solve instead
            G = ModeFunction(k, grid, np.exp(-grid.nodes**2))
            # `sol` stays bound while the next solve runs: freed first, it lowers
            # the peak by about one array, but glibc trims the heap and the next
            # solve faults its pages in afresh, which takes longer
            sol = solve_mode(G, lam, p)
            res, frac = ode_residual(sol.U, G, lam, p)
            rows.append(resolvent_row("residual", k, p, lam, res, tol, res <= tol,
                                      zone_fraction=frac))
    # the residual is measured only on the resolvable zone (see ode_residual)
    return [_check("ode_residuals", rows, worst_residual=max(r["value"] for r in rows),
                   min_zone_fraction=min(r["zone_fraction"] for r in rows),
                   tolerance=tol)], rows


def _bound_checks(cfg: RunConfig) -> tuple[list, list]:
    """Norm ratios for k <= min(k_max, 3), and M with ratio <= M / (Re lambda - a0)."""
    p, k_max = cfg.params, min(cfg.k_max, 3)
    rows = resolvent_bound_check(cfg.probe_lambdas(), p, k_max,
                                 grid=LogGrid(-NORM_T, NORM_T, cfg.norm_n),
                                 batch=cfg.bound_batch, seed=cfg.seed + 2)
    M = max((r["value"] * (r["lambda_re"] - p.a0) for r in rows), default=0.0)
    return [_check("resolvent_norm_bound", rows, M_empirical=M,
                   M_alpha_bound=1.0 / (1.0 - contraction_bound(p, min(k_max, 1))))], rows


def suite_resolvent(cfg: RunConfig) -> tuple[dict, list, list]:
    parts = [part(cfg) for part in (_young_checks, _contraction_checks, _residual_checks,
                                    _bound_checks)]
    checks = [c for own, _ in parts for c in own]
    rows = [r for _, own in parts for r in own]
    return _summary("resolvent", cfg, checks), rows, list(RESOLVENT_COLUMNS)


# --------------------------------------------------------------------------
# semigroup
# --------------------------------------------------------------------------

def suite_semigroup(cfg: RunConfig) -> tuple[dict, list, list]:
    p = cfg.params
    a0 = p.a0
    grid = LogGrid(EVOLVE_T_MIN, EVOLVE_T_MAX, cfg.evolve_n)
    center = EVOLVE_T_MAX - 0.22 * (EVOLVE_T_MAX - EVOLVE_T_MIN)
    U0 = np.exp(-(grid.nodes - center) ** 2).astype(complex)

    rows = []
    fits = {}
    for k in range(cfg.k_max + 1):
        tr = evolve(U0, cfg.tau_end, gen=assemble_generator(k, p, grid))
        fits[k] = tr.fitted_rate
        for tau, nrm in zip(tr.times, tr.norms):
            rows.append({"k": k, "tau": float(tau), "norm": float(nrm)})
    k0_err = abs(fits[0] - a0)
    all_below = all(r <= a0 + 0.05 for r in fits.values())
    checks = [
        {"name": "radial_mode_rate_sharp", "fitted": fits[0], "target": a0,
         "tolerance": 1e-2, "passed": bool(k0_err <= 1e-2)},
        {"name": "all_modes_below_threshold", "rates": {str(k): v for k, v in fits.items()},
         "threshold": a0 + 0.05, "passed": bool(all_below)},
    ]
    return _summary("semigroup", cfg, checks), rows, ["k", "tau", "norm"]


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def suite_spectrum(cfg: RunConfig) -> tuple[dict, list, list]:
    p = cfg.params
    grid = LogGrid(-cfg.scan_t, cfg.scan_t, cfg.scan_n)
    report = eig_scan(range(cfg.k_max + 1), p, grid)
    rows = []
    for m in report["modes"]:
        for ev in m.pop("eigenvalues", ()):
            rows.append({"k": m["k"], "re": float(ev.real), "im": float(ev.imag)})
    summary = _summary("spectrum", cfg, [{
        "name": "no_surviving_eigenvalue_right_of_a0",
        "a0": report["a0"], "eps_disc": report["eps_disc"],
        "modes": report["modes"],
        "passed": report["passed"],
    }])
    return summary, rows, ["k", "re", "im"]


# --------------------------------------------------------------------------
# shooting
# --------------------------------------------------------------------------

def suite_shooting(cfg: RunConfig) -> tuple[dict, list, list]:
    p = cfg.params
    tasks = [(0, complex(p.a0 + 1.0, 0.0))] + [
        (k, lam) for k in cfg.shoot_k for lam in cfg.shoot_lambdas()]
    results = shoot_batch(p, tasks)
    rows = [{"k": r.k, "re_lambda": r.lam.real, "im_lambda": r.lam.imag,
             "mismatch": r.mismatch, "verdict": r.verdict, "note": r.note} for r in results]
    summary = _summary("shooting", cfg, [{
        "name": "no_integrable_homogeneous_solution",
        "min_mismatch": min(r.mismatch for r in results), "threshold": MISMATCH_THRESHOLD,
        "passed": all(r.verdict == NO_INTEGRABLE for r in results)}])
    return summary, rows, ["k", "re_lambda", "im_lambda", "mismatch", "verdict", "note"]


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def _json_default(obj):
    """JSON form of the values json cannot write itself: complex as [re, im]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def emit(report: dict, rows: list, columns: list, out_dir: str, name: str) -> tuple[str, str]:
    """Write <out_dir>/<name>.json and .csv deterministically (stable key order,
    shortest round-trip float formatting, no timestamps)."""
    os.makedirs(out_dir, exist_ok=True)
    jpath = os.path.join(out_dir, f"{name}.json")
    cpath = os.path.join(out_dir, f"{name}.csv")
    with open(jpath, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    with open(cpath, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c, "")) for c in columns])
    return jpath, cpath


_SUITE_FN = {
    "identities": suite_identities,
    "resolvent": suite_resolvent,
    "semigroup": suite_semigroup,
    "spectrum": suite_spectrum,
    "shooting": suite_shooting,
}


def run(cfg: RunConfig, log=print) -> int:
    """Execute the configured suites in canonical order; 0 iff all pass."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        probe = os.path.join(cfg.out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        log(f"error: output directory not writable: {exc}")
        return 2
    all_ok = True
    for name in SUITES:
        if name not in cfg.suites:
            continue
        summary, rows, cols = _SUITE_FN[name](cfg)
        emit(summary, rows, cols, cfg.out_dir, name)
        ok = summary["passed"]
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        log(f"[{status}] {name}")
        if not ok:
            for c in summary["checks"]:
                if not c["passed"]:
                    log(f"    failing check: {c['name']}")
    return 0 if all_ok else 1
