import numpy as np
import pytest
from scipy.integrate import quad

from ssvortex import generator, resolvent
from ssvortex.generator import (
    assemble_generator,
    eig_scan,
    evolve,
    growth_fit,
    stable_dt,
)
from ssvortex.modes import KernelK1, LogGrid, ModeFunction, k1_eval, lq_norm_samples
from ssvortex.params import VortexParams
from ssvortex.resolvent import solve_mode

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1


def test_k0_matrix_is_drift_plus_constant():
    g = LogGrid(-5.0, 5.0, 64)
    gen = assemble_generator(0, P, g)
    # remove the diagonal constant a0 and what is left must be the pure drift,
    # identical to the beta = 0 assembly for any k
    drift = gen.entries - P.a0 * np.eye(g.n)
    assert np.allclose(drift.imag, 0.0)
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    gen_b0 = assemble_generator(3, p0, g)
    np.testing.assert_allclose(gen_b0.entries, gen.entries, rtol=0, atol=0)


def test_generator_action_matches_analytic_formula():
    # U Gaussian: drift and multiplication terms analytic, coupling by quadrature
    g = LogGrid(-4.0, 10.0, 4097)
    t = g.nodes
    gen = assemble_generator(1, P, g)
    U = np.exp(-(t - 2.0) ** 2)
    action = gen.entries @ U.astype(complex)
    dU = -2.0 * (t - 2.0) * U
    ker = KernelK1(1, P.q, P.m)

    def phi1_quad(ti):
        re = quad(lambda s: k1_eval(ti, s, ker) * np.exp(-(s - 2.0) ** 2),
                  -4.0, 10.0, limit=200)[0]
        return re

    idx = np.arange(64, g.n - 64, 157)
    expect = (1.0 / P.alpha) * dU[idx] + P.a0 * U[idx] \
        - 1j * 2 * P.beta * np.exp(-P.alpha * t[idx]) * U[idx] \
        + 1j * (P.alpha * (2 - P.alpha) * P.beta / 2.0) * np.exp(-P.alpha * t[idx]) \
        * np.array([phi1_quad(ti) for ti in t[idx]])
    np.testing.assert_allclose(action[idx], expect, atol=1e-5)


def _masked_consistency(gen, sol, G, p, k, lam, theta=0.05):
    # the generator's drift stencil cannot resolve the e^{-alpha t} phase at the
    # far left; measure the mismatch over the resolvable zone, as for residuals
    g = G.grid
    t = g.nodes
    mism = gen.entries @ sol.U.samples - lam * sol.U.samples - G.samples
    rate = np.maximum(abs(p.m * k * p.beta) * p.alpha * np.exp(-p.alpha * t), 1.0)
    zone = g.h * rate <= theta
    zone[:2] = False
    zone[-2:] = False
    assert zone.mean() > 0.5
    masked = np.where(zone, mism, 0.0)
    return lq_norm_samples(masked, g.h, p.q) / lq_norm_samples(G.samples, g.h, p.q)


def test_generator_resolvent_consistency():
    # (L - lambda) applied to the resolvent output reproduces the right-hand
    # side, across three parameter sets and three spectral points each
    cases = [
        (VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0), 1, LogGrid(-6.0, 10.0, 4097)),
        (VortexParams(alpha=0.6, beta=0.5, m=2, q=2.5), 2, LogGrid(-5.0, 11.0, 4097)),
        (VortexParams(alpha=0.5, beta=-1.0, m=3, q=3.0), 1, LogGrid(-5.0, 11.0, 4097)),
    ]
    for p, k, g in cases:
        G = ModeFunction(k, "G", g, np.exp(-g.nodes**2))
        gen = assemble_generator(k, p, g)
        for off in (0.3, 1.0, 1.5):
            lam = p.a0 + off + (0.5j if off == 1.0 else 0.0)
            sol = solve_mode(G, lam, p)
            rel = _masked_consistency(gen, sol, G, p, k, lam)
            assert rel < 1e-4, (p, k, lam, rel)


def test_generator_resolvent_consistency_tight_example():
    g = LogGrid(-6.0, 10.0, 4097)
    G = ModeFunction(1, "G", g, np.exp(-g.nodes**2))
    sol = solve_mode(G, 0.5, P)
    gen = assemble_generator(1, P, g)
    mism = gen.entries @ sol.U.samples - 0.5 * sol.U.samples - G.samples
    rel = lq_norm_samples(mism[2:-2], g.h, P.q) / lq_norm_samples(G.samples, g.h, P.q)
    assert rel < 1e-5


def test_eig_scan_rejects_oversized_grid():
    with pytest.raises(ValueError, match="4096"):
        eig_scan([0], P, LogGrid(-8.0, 8.0, 8192))


def test_evolve_k0_exact_translation():
    # exact solution e^{a0 tau} U0(t + tau/alpha): the norm decays at rate a0
    g = LogGrid(-12.0, 12.0, 1024)
    gen = assemble_generator(0, P, g)
    U0 = np.exp(-(g.nodes - 6.0) ** 2)
    tr = evolve(U0, 5.0, None, gen)
    expect = tr.norms[0] * np.exp(P.a0 * tr.times)
    np.testing.assert_allclose(tr.norms, expect, rtol=1e-3)
    assert abs(tr.fitted_rate - P.a0) < 1e-2


def test_evolve_zero_initial_data():
    g = LogGrid(-6.0, 6.0, 256)
    gen = assemble_generator(0, P, g)
    tr = evolve(np.zeros(g.n), 1.0, None, gen)
    assert np.all(tr.norms == 0.0)
    assert np.isnan(tr.fitted_rate)


def test_evolve_rejects_unstable_dt():
    g = LogGrid(-6.0, 6.0, 256)
    gen = assemble_generator(1, P, g)
    with pytest.raises(ValueError, match="stability"):
        evolve(np.ones(g.n), 1.0, 10.0 * stable_dt(gen), gen)


@pytest.mark.parametrize("alpha, beta, m, q, k", [
    (0.5, 1.0, 2, 2.0, 0), (0.5, 1.0, 2, 2.0, 1), (0.5, 1.0, 2, 2.0, 8),
    (0.5, -1.0, 2, 4.0, 1),    # critical line q = 2/alpha, negative beta
    (0.8, 1.0, 3, 2.5, 1), (0.8, 1.0, 3, 2.5, 8)])
def test_stable_dt_inside_rk4_region(alpha, beta, m, q, k):
    # the step limit comes from a cheap spectral-radius estimate; every
    # eigenvalue of the generator times that step must lie in RK4's stability
    # region |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1 (measured: 0.61 at k = 0,
    # up to 0.998 at alpha = 0.8, m = 3)
    gen = assemble_generator(k, VortexParams(alpha=alpha, beta=beta, m=m, q=q),
                             LogGrid(-8.0, 10.0, 512))
    z = stable_dt(gen) * np.linalg.eigvals(gen.entries)
    assert np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max() <= 1.0


def test_evolve_k1_rate_below_threshold():
    g = LogGrid(-8.0, 10.0, 1024)
    gen = assemble_generator(1, P, g)
    U0 = np.exp(-(g.nodes - 6.0) ** 2)
    tr = evolve(U0, 5.0, None, gen)
    assert tr.fitted_rate <= P.a0 + 0.05


def test_growth_fit_exact_cases():
    taus = np.linspace(0.0, 5.0, 40)
    assert growth_fit(taus, np.exp(-taus)) == pytest.approx(-1.0, abs=1e-12)
    assert growth_fit(taus, np.ones_like(taus)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        growth_fit(taus[:5], np.ones(5))


def test_eig_scan_k0_and_beta_zero():
    g = LogGrid(-8.0, 8.0, 256)
    rep = eig_scan([0], P, g)
    m0 = rep["modes"][0]
    assert m0["max_re"] <= P.a0 + 1e-9
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    rep2 = eig_scan([2], p0, g)
    np.testing.assert_allclose(sorted(np.real(rep2["modes"][0]["eigenvalues"])),
                               sorted(np.real(m0["eigenvalues"])), rtol=1e-9, atol=1e-9)


def test_eig_scan_refinement_converges_left_of_a0():
    # the largest real part converges from below as h halves (shrinking
    # increments) and never crosses the a0 + eps_disc threshold
    res = []
    for n in (512, 1024, 2048):
        g = LogGrid(-8.0, 8.0, n)
        res.append(eig_scan([1], P, g)["modes"][0]["max_re"])
    inc1 = res[1] - res[0]
    inc2 = res[2] - res[1]
    assert abs(inc2) < abs(inc1) / 1.5
    assert max(res) <= P.a0 + 0.05


def test_eig_scan_unprobeable_flags_are_survivors(monkeypatch):
    # with an artificially negative threshold every eigenvalue is flagged; the
    # ones left of a0 cannot be cross-probed and must be reported as surviving
    monkeypatch.setattr(generator, "EPS_DISC", -90.0)
    monkeypatch.setattr(generator, "PROBE_GRID", LogGrid(-18.0, 18.0, 2**14 + 1))
    g = LogGrid(-8.0, 8.0, 256)
    rep = eig_scan([1], P, g)
    m = rep["modes"][0]
    assert m["n_flagged"] > 0
    assert m["probes"]
    assert m["survivors"]
    assert not rep["passed"]


def test_eig_scan_probe_judged_by_residual_tol(monkeypatch):
    # no grid tried puts an eigenvalue right of a0, so plant one at a0 + 0.5:
    # the probe solve there has a residual near 2e-7, resolved under the
    # default RESIDUAL_TOL = 1e-6 and a survivor under 1e-12
    a0 = P.a0
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([a0 + 0.5 + 0j]))
    monkeypatch.setattr(generator, "PROBE_GRID", LogGrid(-25.0, 25.0, 2**16 + 1))
    g = LogGrid(-8.0, 8.0, 64)
    rep = eig_scan([1], P, g)
    (probe,) = rep["modes"][0]["probes"]
    assert probe["lambda"] == a0 + 0.5
    assert 0.0 < probe["residual"] < 1e-6
    assert probe["resolved"] and not rep["modes"][0]["survivors"]
    assert rep["passed"]
    monkeypatch.setattr(resolvent, "RESIDUAL_TOL", 1e-12)
    strict = eig_scan([1], P, g)
    (probe,) = strict["modes"][0]["probes"]
    assert not probe["resolved"]
    assert strict["modes"][0]["survivors"] == [a0 + 0.5]
    assert not strict["passed"]


def test_eig_scan_probes_every_flagged_cluster(monkeypatch):
    # seventeen planted flags right of a0, 0.5 apart: each is its own cluster
    # and gets its own probe
    planted = P.a0 + 0.5 + 0.5j * np.arange(17)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: planted)
    monkeypatch.setattr(generator, "PROBE_GRID", LogGrid(-15.0, 15.0, 2**11 + 1))
    rep = eig_scan([1], P, LogGrid(-8.0, 8.0, 64))
    mode = rep["modes"][0]
    assert mode["n_flagged"] == 17
    assert len(mode["probes"]) == 17
    assert sorted(pr["lambda"].imag for pr in mode["probes"]) == sorted(planted.imag)


def test_dedupe_flags():
    from ssvortex.generator import _dedupe_flags
    pts = np.array([1.0 + 0j, 1.05 + 0j, 3.0 + 1j, 3.05 + 1.01j, -2.0 + 0j])
    kept = _dedupe_flags(pts, radius=0.3)
    assert len(kept) == 3
    assert kept[0] == pytest.approx(3.05 + 1.01j)  # strongest real part first
