import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from ssvortex import resolvent
from ssvortex.modes import KernelK1, LogGrid, ModeFunction, lq_norm, phi1_matrix
from ssvortex.params import VortexParams
from ssvortex.resolvent import (
    PICARD_TOL,
    KernelK2,
    _osc_weights,
    _ScanPlan,
    apply_phi2,
    contraction_bound,
    k2_eval,
    ode_residual,
    resolvent_bound_check,
    solve_k0,
    solve_mode,
    verify_kernel_composition,
    verify_neat_identities,
)

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1


def cquad(f, a, b, **kw):
    re = quad(lambda s: f(s).real, a, b, limit=400, **kw)[0]
    im = quad(lambda s: f(s).imag, a, b, limit=400, **kw)[0]
    return re + 1j * im


def gaussian(grid, k=1, rep="G"):
    return ModeFunction(k, rep, grid, np.exp(-grid.nodes**2))


def test_kernel_k2_domain():
    KernelK2(P, 1, -0.9)  # just right of a0 = -1
    with pytest.raises(ValueError):
        KernelK2(P, 1, -1.0)  # on the line
    with pytest.raises(ValueError):
        KernelK2(P, 1, -1.5)


def test_k2_eval_values():
    ker = KernelK2(P, 1, 0.0)
    assert k2_eval(0.3, 0.3, ker) == 0.0
    # beta = 0: pure exponential
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    ker0 = KernelK2(p0, 1, 0.0)
    assert k2_eval(-1.0, 0.0, ker0) == pytest.approx(np.exp(-0.5), rel=1e-14)
    # modulus only sees Re B
    assert abs(k2_eval(-1.0, 0.0, ker)) == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_phi2_closed_form_beta_zero():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    g = LogGrid(-20.0, 20.0, 8001)
    s = ((g.nodes > 0) & (g.nodes < 1)).astype(complex)
    s[np.isclose(g.nodes, 0.0)] = 0.5
    s[np.isclose(g.nodes, 1.0)] = 0.5
    G = ModeFunction(1, "G", g, s)
    out = apply_phi2(G, KernelK2(p0, 1, 0.0))  # B = 0.5
    sel = g.nodes < -0.5
    expect = np.exp(0.5 * g.nodes[sel]) * (1 - np.exp(-0.5)) / 0.5
    np.testing.assert_allclose(out.samples[sel].real, expect, atol=5e-6)


def test_phi2_zero_and_oracle():
    g = LogGrid(-10.0, 10.0, 8001)
    z = ModeFunction(1, "G", g, np.zeros(g.n))
    ker = KernelK2(P, 1, 0.5)
    assert np.all(apply_phi2(z, ker).samples == 0)
    # independent oscillatory quadrature oracle at a few nodes
    G = gaussian(g)
    out = apply_phi2(G, ker)
    B = ker.B
    for t0 in (-1.0, 0.0, 1.5):
        i = int(np.argmin(np.abs(g.nodes - t0)))
        ti = g.nodes[i]
        oracle = cquad(
            lambda s: np.exp(-2j * np.exp(-0.5 * ti) + 2j * np.exp(-0.5 * s)
                             + (ti - s) * B - s**2), ti, 20.0)
        assert out.samples[i] == pytest.approx(oracle, rel=2e-5)


def test_phi2_young_bound_randomized():
    g = LogGrid(-30.0, 30.0, 4001)
    ker = KernelK2(P, 1, 0.0)  # Re B = 0.5, bound = 2
    rng = np.random.default_rng(5)
    for _ in range(200):
        fn = ModeFunction(1, "G", g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        ratio = lq_norm(apply_phi2(fn, ker), 2.0) / lq_norm(fn, 2.0)
        assert ratio <= 2.0 * (1 + 1e-6)


def test_phi2_pointwise_majorant():
    g = LogGrid(-15.0, 15.0, 2001)
    rng = np.random.default_rng(6)
    fn = ModeFunction(1, "G", g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    ker = KernelK2(P, 1, 0.25 + 0.7j)
    lhs = np.abs(apply_phi2(fn, ker).samples)
    rhs = _ScanPlan(g, P.alpha, complex(ker.B.real), 0.0)(np.abs(fn.samples)).real
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-14)


def test_osc_weights_match_quadrature():
    def against_phase(f, y):  # int_0^1 f(x) e^{-iyx} dx by weighted (QAWO) quadrature
        re = quad(f, 0.0, 1.0, weight="cos", wvar=y, epsabs=1e-17, epsrel=1e-13)[0]
        im = quad(f, 0.0, 1.0, weight="sin", wvar=y, epsabs=1e-17, epsrel=1e-13)[0]
        return re - 1j * im

    # both sides of the series/closed-form switch at |y| = 0.5, and y < 0
    for y in (1e-9, 1e-4, 0.1, 0.4999, 0.5001, 2.0, 40.0, -0.3, -7.0):
        gb, ga, phase = _osc_weights(np.array([y]))
        want_b = against_phase(lambda x: 1.0 - x, y)
        want_a = against_phase(lambda x: x, y)
        assert abs(gb[0] - want_b) <= 1e-13 * abs(want_b)
        assert abs(ga[0] - want_a) <= 1e-13 * abs(want_a)
        assert abs(phase[0] - np.exp(-1j * y)) <= 1e-15


def test_scan_plan_reuse_is_bit_identical():
    g = LogGrid(-15.0, 15.0, 2001)
    B = KernelK2(P, 1, 0.25 + 0.7j).B
    rng = np.random.default_rng(7)
    x1, x2 = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(2))
    plan = _ScanPlan(g, P.alpha, B, 2.0)
    a1, a2 = plan(x1), plan(x2)
    np.testing.assert_array_equal(a1, _ScanPlan(g, P.alpha, B, 2.0)(x1))
    np.testing.assert_array_equal(a2, _ScanPlan(g, P.alpha, B, 2.0)(x2))


@pytest.mark.parametrize("c, order", [(2.0, 1), (0.0, 1), (0.0, 2)])
def test_scan_plan_batched_matches_columns(c, order):
    g = LogGrid(-10.0, 10.0, 501)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((g.n, 4)) + 1j * rng.standard_normal((g.n, 4))
    plan = _ScanPlan(g, P.alpha, KernelK2(P, 1, 0.5).B, c, order=order)
    batched = plan(X)
    for j in range(X.shape[1]):
        np.testing.assert_allclose(batched[:, j], plan(X[:, j]), rtol=1e-14, atol=0)


def test_scan_plan_rejects_unsupported_combinations():
    g = LogGrid(-10.0, 10.0, 501)
    B = KernelK2(P, 1, 0.5).B
    with pytest.raises(ValueError, match="quadratic"):
        _ScanPlan(g, P.alpha, B, 2.0, order=2)


def test_scan_plan_multiple_blocks_match_sequential_recurrence():
    # Re(B) * h = 3.05 per panel: blocks of 98 panels, three of them here
    g = LogGrid(-10.0, 10.0, 201)
    kernel = KernelK2(P, 1, 60.0)
    B, c, h = kernel.B, kernel.phase_amplitude, g.h
    plan = _ScanPlan(g, P.alpha, B, c)
    assert len(plan.recurrence.blocks) == 3
    x = np.random.default_rng(9).standard_normal(g.n) + 0j
    w = np.exp(-P.alpha * g.nodes)
    D = np.exp(-1j * c * (w[:-1] - w[1:]) - B * h)
    Pn = plan.wi * x[:-1] + plan.wj * x[1:]
    want = np.zeros(g.n, dtype=complex)
    for i in range(g.n - 2, -1, -1):
        want[i] = Pn[i] + D[i] * want[i + 1]
    np.testing.assert_allclose(plan(x), want, rtol=1e-13, atol=0)


def test_solve_k0_closed_form():
    g = LogGrid(-20.0, 20.0, 16001)
    s = ((g.nodes > 0) & (g.nodes < 1)).astype(complex)
    s[np.isclose(g.nodes, 0.0)] = 0.5
    s[np.isclose(g.nodes, 1.0)] = 0.5
    G = ModeFunction(0, "G", g, s)
    sol = solve_k0(G, 0.0, P)
    sel = g.nodes < -0.5
    expect = -np.exp(0.5 * g.nodes[sel]) * (1 - np.exp(-0.5))
    np.testing.assert_allclose(sol.U.samples[sel].real, expect, atol=5e-6)


def test_solve_k0_zero_rhs_and_residual():
    g = LogGrid(-25.0, 25.0, 2**15 + 1)
    z = ModeFunction(0, "G", g, np.zeros(g.n))
    assert np.all(solve_k0(z, 0.5, P).U.samples == 0)
    G = gaussian(g, k=0)
    assert ode_residual(solve_k0(G, -0.5, P).U, G, -0.5, P)[0] < 1e-7
    # Young bound ||U|| <= alpha ||G|| / Re B, here alpha/ReB = 1
    rng = np.random.default_rng(7)
    for _ in range(20):
        G = ModeFunction(0, "G", g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        sol = solve_k0(G, 0.0, P)
        assert lq_norm(sol.U, 2.0) <= lq_norm(G, 2.0) * (1 + 1e-6)
    with pytest.raises(ValueError):
        solve_k0(z, -1.0, P)


def test_contraction_bound_value():
    assert contraction_bound(P, 1) == pytest.approx(0.375)
    assert contraction_bound(P, 0) == 0.0


def test_solve_mode_zero_rhs():
    g = LogGrid(-15.0, 15.0, 1025)
    z = ModeFunction(1, "G", g, np.zeros(g.n))
    sol = solve_mode(z, 0.5, P)
    assert np.all(sol.U.samples == 0)


def test_solve_mode_requires_k_positive_and_lambda_right_of_a0():
    g = LogGrid(-5.0, 5.0, 65)
    with pytest.raises(ValueError):
        solve_mode(gaussian(g, k=0), 0.5, P)
    with pytest.raises(ValueError):
        solve_mode(gaussian(g), -1.2, P)


def test_solve_mode_residual_and_bound():
    g = LogGrid(-25.0, 25.0, 2**16 + 1)
    G = gaussian(g)
    gamma = contraction_bound(P, 1)
    sol = solve_mode(G, -0.5, P)
    assert ode_residual(sol.U, G, -0.5, P)[0] < 1e-6
    bound = (P.alpha / (2 / P.q + P.alpha * (-0.5 - 1))) / (1 - gamma)
    assert lq_norm(sol.U, P.q) <= bound * lq_norm(G, P.q)
    assert sol.method == "picard"
    assert sol.iterations <= int(np.ceil(np.log(PICARD_TOL) / np.log(gamma))) + 1


# (alpha, beta, m, q, k, lambda - a0) beyond the default vortex: the critical
# line q = 2/alpha, negative beta, a complex lambda, k = 16 and lambda close to a0
BEYOND_DEFAULT = [
    (0.8, 1.0, 2, 2.5, 1, 0.5),
    (0.5, -1.0, 2, 4.0, 1, 1.0),
    (2.0 / 3.0, -1.0, 3, 3.0, 2, 0.5 - 0.5j),
    (0.5, 1.0, 2, 2.0, 16, 1.0),
    (0.5, 1.0, 2, 2.0, 1, 1e-3),
    (0.8, 1.0, 2, 2.5, 8, 1e-3),
]


@pytest.mark.parametrize("alpha,beta,m,q,k,offset", BEYOND_DEFAULT)
def test_solve_mode_beyond_default_vortex(alpha, beta, m, q, k, offset):
    # no reduced-map iteration budget here: these are full-map solves, and the
    # (0.8, 1, 2, 2.5, 8, 1e-3) case takes one step more than that budget
    p = VortexParams(alpha=alpha, beta=beta, m=m, q=q)
    g = LogGrid(-25.0, 25.0, 2**16 + 1)
    G = gaussian(g, k=k)
    lam = p.a0 + offset
    sol = solve_mode(G, lam, p)
    assert sol.method == "picard"
    assert ode_residual(sol.U, G, lam, p)[0] <= resolvent.RESIDUAL_TOL
    bound = (p.alpha / KernelK2(p, k, lam).B.real) / (1.0 - contraction_bound(p, k))
    assert lq_norm(sol.U, p.q) <= bound * lq_norm(G, p.q)


def test_solve_mode_dense_matches_picard():
    # oracle: the full map T applied to every column of the identity, and the
    # linear system (I - T) U = U0 solved directly
    g = LogGrid(-18.0, 18.0, 2049)
    G = gaussian(g)
    a = solve_mode(G, 0.5, P)
    kernel = KernelK2(P, 1, 0.5)
    B, c = kernel.B, kernel.phase_amplitude
    coef = 1j * P.beta * P.alpha**2 * (2.0 - P.alpha) / 2.0
    scan = _ScanPlan(g, P.alpha, B, c)
    w = np.exp(-P.alpha * g.nodes)
    T = coef * scan(w[:, None] * phi1_matrix(g, KernelK1(1, P.q, P.m)))
    U0 = -P.alpha * scan(G.samples)
    dense = np.linalg.solve(np.eye(g.n) - T, U0)
    assert a.method == "picard"
    np.testing.assert_allclose(dense, a.U.samples, atol=1e-9 * np.abs(a.U.samples).max())


def test_solve_mode_builds_its_plans_once(monkeypatch):
    # the K1 and K2 recurrences are built once per solve, not per Picard step
    from ssvortex import modes
    built = []

    class CountingRecurrence(modes._Recurrence):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(modes, "_Recurrence", CountingRecurrence)
    monkeypatch.setattr(resolvent, "_Recurrence", CountingRecurrence)
    g = LogGrid(-15.0, 15.0, 1025)
    counts, iterations = [], []
    for lam in (-0.5, 5.0):
        built.clear()
        sol = solve_mode(gaussian(g), lam, P)
        counts.append(len(built))
        iterations.append(sol.iterations)
    assert iterations[0] != iterations[1]
    assert counts[0] == counts[1]


def test_solve_mode_reduced_map_leaves_ode_defect():
    # the K1-shortcut map converges fast but its fixed point does not satisfy
    # the mode ODE: the defect is the dropped phase-correction term, O(0.1)
    g = LogGrid(-25.0, 25.0, 2**15 + 1)
    G = gaussian(g)
    full = solve_mode(G, -0.5, P)
    red = solve_mode(G, -0.5, P, map_kind="reduced")
    assert ode_residual(full.U, G, -0.5, P)[0] < 1e-6
    assert ode_residual(red.U, G, -0.5, P)[0] > 1e-2


def test_solve_mode_beta_zero_reduces_to_phi2():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    g = LogGrid(-15.0, 15.0, 2049)
    G = gaussian(g)
    sol = solve_mode(G, 0.5, p0)
    expect = -p0.alpha * apply_phi2(G, KernelK2(p0, 1, 0.5)).samples
    np.testing.assert_allclose(sol.U.samples, expect, rtol=0, atol=1e-12)


def test_neat_identity_report_oracle_values():
    # frozen oracle: at (k=1, beta=1, alpha=0.5, mu=1, t=0) the true integral is
    # 2*int_0^1 e^{2iw} w^2 dw = e^{2i}(1 - i/2) - i/2, while the shortcut claims
    # -i e^{2i}; their distance is 0.89374...
    rep = verify_neat_identities([0.0], [1.0], P, 1)
    assert not rep["skipped"]
    row = [r for r in rep["rows"] if r["identity"] == "half_line"][0]
    lhs_exact = np.exp(2j) * (1 - 0.5j) - 0.5j
    rhs_claim = -1j * np.exp(2j)
    assert row["lhs"] == pytest.approx(lhs_exact, abs=1e-9)
    assert row["rhs"] == pytest.approx(rhs_claim, abs=1e-14)
    assert row["abs_error"] == pytest.approx(abs(lhs_exact - rhs_claim), abs=1e-8)


def test_neat_identity_finite_interval_empty():
    rep = verify_neat_identities([0.5], [1.0], P, 1)
    # single t-sample: no (t, r) pairs, so no finite-interval rows
    assert all(r["identity"] == "half_line" for r in rep["rows"])


def test_neat_identity_skipped_for_beta_zero():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    rep = verify_neat_identities([0.0], [1.0], p0, 1)
    assert rep["skipped"]


def test_quadrature_self_convergence():
    # composite Simpson approximations of the tail integral converge to the
    # adaptive-quadrature value at order >= 2
    from ssvortex.resolvent import _tail_integral
    t, mu, alpha, c = 0.0, 1.0, 0.5, 2.0
    ref = _tail_integral(t, mu, alpha, c)
    W = np.exp(-alpha * t)

    def simpson(n):
        w = np.linspace(0.0, W, n + 1)
        f = np.exp(1j * c * w) * w ** (mu / alpha)
        wts = np.ones(n + 1); wts[1:-1:2] = 4; wts[2:-1:2] = 2
        return (W / n / 3) * np.sum(wts * f) / alpha

    e1 = abs(simpson(16) - ref)
    e2 = abs(simpson(32) - ref)
    order = np.log2(e1 / e2)
    assert order >= 2.0


@pytest.mark.parametrize("n, c, w_lo, w_hi", [
    (14, 600.0, 0.0, np.exp(-1.0)),   # integral ~1e-9: no absolute floor may hide it
    (4, 600.0, np.exp(-1.25), np.e),  # finite interval at a large phase rate
    (14, 6000.0, 0.0, np.e),          # ~2600 oscillations: needs the scaled budget
])
def test_wquad_matches_closed_form(n, c, w_lo, w_hi):
    # for integer n, repeated integration by parts gives the antiderivative
    # F(w) = e^{aw} sum_j (-1)^j n!/(n-j)! w^{n-j} / a^{j+1}, a = ic
    from ssvortex.resolvent import _wquad
    a = 1j * c

    def F(w):
        return np.exp(a * w) * sum((-1) ** j * math.factorial(n) / math.factorial(n - j)
                                   * w ** (n - j) / a ** (j + 1) for j in range(n + 1))

    exact = F(w_hi) - F(w_lo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _wquad(n, c, w_lo, w_hi)
    assert abs(got - exact) <= 1e-10 * abs(exact)


def test_composition_report_values():
    # w-substituted evaluation cross-checked against direct oscillatory quadrature
    lam = 0.5
    rep = verify_kernel_composition([1.0, -1.0], [-1.0, 1.0], P, 1, lam)
    ker = KernelK2(P, 1, lam)
    k1 = KernelK1(1, P.q, 2)

    def direct(t, r):
        def integrand(s):
            d = s - r
            k1v = np.exp(-k1.A_plus * d) if d >= 0 else np.exp(k1.A_minus * d)
            return k2_eval(t, s, ker) * np.exp(-P.alpha * s) * k1v
        return 2j * P.alpha * cquad(integrand, t, 60.0)

    for row in rep["rows"]:
        t, r = row["t"], row["r"]
        assert row["lhs"] == pytest.approx(direct(t, r), rel=1e-6, abs=1e-9)
        expect_k1 = np.exp(-3 * (t - r)) if t >= r else np.exp(1 * (t - r))
        assert row["k1"] == pytest.approx(expect_k1, rel=1e-12)
    # the collapse misses K1 by a sizable amount at these parameters
    assert rep["max_error"] > 1e-2


def test_composition_requires_beta_and_k():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    assert verify_kernel_composition([0.0], [0.0], p0, 1, 0.5)["skipped"]
    with pytest.raises(ValueError):
        verify_kernel_composition([0.0], [0.0], P, 0, 0.5)


def test_resolvent_bound_check_report():
    rep = resolvent_bound_check([-0.5, 0.0], P, 1,
                                grid=LogGrid(-20.0, 20.0, 2049), batch=4, seed=0)
    assert rep["passed"]
    assert np.isfinite(rep["M_empirical"]) and rep["M_empirical"] > 0
    ks = {r["k"] for r in rep["rows"]}
    assert ks == {0, 1}


def test_resolvent_ratio_decays_like_inverse_lambda():
    # along the real axis the ratio falls off like 1/lambda1 (slope -1 on log-log)
    g = LogGrid(-20.0, 20.0, 2049)
    G = gaussian(g)
    lams = np.array([10.0, 20.0, 40.0, 80.0])
    ratios = []
    for lam in lams:
        sol = solve_mode(G, lam, P)
        ratios.append(lq_norm(sol.U, P.q) / lq_norm(G, P.q))
    slope = np.polyfit(np.log(lams), np.log(ratios), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_ode_residual_zone_reporting():
    g = LogGrid(-25.0, 25.0, 2**14 + 1)
    G = gaussian(g)
    sol = solve_mode(G, -0.5, P)
    _, frac, tmin = ode_residual(sol.U, G, -0.5, P)
    assert 0.0 < frac <= 1.0
    assert tmin > g.t_min


def test_iteration_budget_exhaustion_raises_with_history(monkeypatch):
    # Picard stops at its budget of two steps; when the Krylov fallback then
    # fails too, the error carries Picard's history and the a-priori factor
    from ssvortex.resolvent import ConvergenceError
    monkeypatch.setattr(resolvent, "lgmres", lambda op, b, **kw: (b, 1))
    monkeypatch.setattr(resolvent, "PICARD_MAX_ITER", 2)
    g = LogGrid(-15.0, 15.0, 1025)
    G = gaussian(g)
    with pytest.raises(ConvergenceError) as exc:
        solve_mode(G, -0.5, P)
    assert len(exc.value.history) == 2
    assert exc.value.gamma == pytest.approx(contraction_bound(P, 1))


def test_auto_method_falls_back_to_krylov(monkeypatch):
    # Picard stops at its budget of two steps, keeps their history, and Krylov
    # finishes the same linear system
    g = LogGrid(-20.0, 20.0, 2**13 + 1)
    G = gaussian(g)
    ref = solve_mode(G, -0.5, P)
    monkeypatch.setattr(resolvent, "PICARD_MAX_ITER", 2)
    sol = solve_mode(G, -0.5, P)
    assert sol.method == "krylov"
    assert len(sol.update_history) == 2
    assert ode_residual(sol.U, G, -0.5, P)[0] < 1e-5
    np.testing.assert_allclose(sol.U.samples, ref.U.samples, atol=1e-8 * np.abs(ref.U.samples).max())
