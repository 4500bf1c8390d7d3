import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ssvortex import resolvent
from ssvortex.modes import (
    KernelK1,
    LogGrid,
    ModeFunction,
    apply_phi1,
    lq_norm,
    lq_norm_samples,
    phi1_matrix,
)
from ssvortex.params import VortexParams
from ssvortex.resolvent import (
    PICARD_TOL,
    ConvergenceError,
    KernelK2,
    _osc_weights,
    _ScanPlan,
    apply_phi2,
    contraction_bound,
    ode_residual,
    resolvent_bound_check,
    solve_k0,
    solve_mode,
    verify_kernel_composition,
    verify_neat_identities,
)
from ssvortex.suites import _reduced_picard

from oracles import k2_eval, linear_panel_weights, quadratic_panel_weights

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1


def cquad(f, a, b, **kw):
    re = quad(lambda s: f(s).real, a, b, limit=400, **kw)[0]
    im = quad(lambda s: f(s).imag, a, b, limit=400, **kw)[0]
    return re + 1j * im


def gaussian(grid, k=1):
    return ModeFunction(k, grid, np.exp(-grid.nodes**2))


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
    G = ModeFunction(1, g, s)
    out = apply_phi2(G, KernelK2(p0, 1, 0.0))  # B = 0.5
    sel = g.nodes < -0.5
    expect = np.exp(0.5 * g.nodes[sel]) * (1 - np.exp(-0.5)) / 0.5
    np.testing.assert_allclose(out.samples[sel].real, expect, atol=5e-6)


def test_phi2_zero_and_oracle():
    g = LogGrid(-10.0, 10.0, 8001)
    z = ModeFunction(1, g, np.zeros(g.n))
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
        fn = ModeFunction(1, g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        ratio = lq_norm(apply_phi2(fn, ker), 2.0) / lq_norm(fn, 2.0)
        assert ratio <= 2.0 * (1 + 1e-6)


def test_phi2_pointwise_majorant():
    g = LogGrid(-15.0, 15.0, 2001)
    rng = np.random.default_rng(6)
    fn = ModeFunction(1, g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    ker = KernelK2(P, 1, 0.25 + 0.7j)
    lhs = np.abs(apply_phi2(fn, ker).samples)
    flat = KernelK2(replace(P, beta=0.0), 1, ker.lam.real)  # no phase, B = Re(ker.B)
    rhs = _ScanPlan(g, flat)(np.abs(fn.samples)).real
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
    kernel = KernelK2(P, 1, 0.25 + 0.7j)
    rng = np.random.default_rng(7)
    x1, x2 = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(2))
    plan = _ScanPlan(g, kernel)
    a1, a2 = plan(x1), plan(x2)
    np.testing.assert_array_equal(a1, _ScanPlan(g, kernel)(x1))
    np.testing.assert_array_equal(a2, _ScanPlan(g, kernel)(x2))


def test_phi2_of_the_radial_kernel_is_solve_k0():
    # the plan takes its panel rule from the kernel: at k = 0 apply_phi2 scans
    # with solve_k0's quadratic panels, bit for bit, as well as with a complex
    # lambda and a negative beta
    g = LogGrid(-15.0, 15.0, 1025)
    G = gaussian(g, k=0)
    for p, lam in ((P, 0.5), (VortexParams(alpha=0.8, beta=-1.0, m=3, q=2.5), 1.0 - 2.0j)):
        want = -p.alpha * apply_phi2(G, KernelK2(p, 0, lam)).samples
        assert solve_k0(G, lam, p).U.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("offset, magnitude", [
    # Re(B) h = 317 per panel: every block is a single panel
    (2000.0, 1.0),
    # 682 per panel, just under the cap, on samples of size 1e100: the
    # balanced block factors stay far from overflow
    (4300.0, 1e100),
])
def test_scan_plan_far_right_matches_sequential_recurrence(offset, magnitude):
    g = LogGrid(-10.0, 10.0, 64)
    lam = P.a0 + offset
    x = magnitude * np.random.default_rng(10).standard_normal(g.n) + 0j

    def sequential(Pn, D):
        want = np.zeros(g.n, dtype=complex)
        for i in range(g.n - 2, -1, -1):
            want[i] = Pn[i] + D[i] * want[i + 1]
        return want

    kernel = KernelK2(P, 1, lam)
    B, c = kernel.B, kernel.phase_amplitude
    plan = _ScanPlan(g, kernel)
    assert len(plan.recurrence.blocks) == g.n - 1
    w = np.exp(-P.alpha * g.nodes)
    D = np.exp(-1j * c * (w[:-1] - w[1:]) - B * g.h)
    out = apply_phi2(ModeFunction(1, g, x), kernel).samples
    assert np.all(np.isfinite(out))
    wi, wj = linear_panel_weights(g, P.alpha, B, c)
    np.testing.assert_allclose(out, sequential(wi * x[:-1] + wj * x[1:], D), rtol=1e-13, atol=0)

    # solve_k0's quadratic panels on the same recurrence (B does not depend on k)
    wi, wj, wk = quadratic_panel_weights(g, B)
    Pn = wi * x[:-1] + wj * x[1:]
    Pn[:-1] += wk * x[2:]
    U = solve_k0(ModeFunction(0, g, x), lam, P).U.samples
    want = -P.alpha * sequential(Pn, np.full(g.n - 1, np.exp(-B * g.h)))
    np.testing.assert_allclose(U, want, rtol=1e-13, atol=0)


def test_scan_plan_rejects_a_grid_too_coarse_for_lambda():
    # Re(B) h = 714 per panel: e^{-B h} of one panel is no longer a normal double
    g = LogGrid(-10.0, 10.0, 64)
    with pytest.raises(ValueError, match="too coarse"):
        solve_k0(ModeFunction(0, g, np.ones(g.n)), P.a0 + 4500.0, P)


def test_scan_plan_multiple_blocks_match_sequential_recurrence():
    # Re(B) * h = 3.05 per panel: blocks of 98 panels, three of them here
    g = LogGrid(-10.0, 10.0, 201)
    kernel = KernelK2(P, 1, 60.0)
    B, c, h = kernel.B, kernel.phase_amplitude, g.h
    plan = _ScanPlan(g, kernel)
    assert len(plan.recurrence.blocks) == 3
    x = np.random.default_rng(9).standard_normal(g.n) + 0j
    w = np.exp(-P.alpha * g.nodes)
    D = np.exp(-1j * c * (w[:-1] - w[1:]) - B * h)
    wi, wj = linear_panel_weights(g, P.alpha, B, c)
    Pn = wi * x[:-1] + wj * x[1:]
    want = np.zeros(g.n, dtype=complex)
    for i in range(g.n - 2, -1, -1):
        want[i] = Pn[i] + D[i] * want[i + 1]
    np.testing.assert_allclose(plan(x), want, rtol=1e-13, atol=0)


def test_scan_plan_build_memory(traced):
    # the c != 0 build writes its weights and panel phase in place: its peak
    # stays under 7.5 complex arrays of the grid's length (5.24 measured), and
    # the plan keeps exactly three, wi and wj with the recurrence's 1 / cp
    # folded in and its cp, no view into a larger buffer (4.0 before the fold)
    g = LogGrid(-25.0, 25.0, 2**17 + 1)
    g.nodes  # cached on the grid, not part of the plan
    plan, held, peak = traced(_ScanPlan, g, KernelK2(P, 1, 0.5))
    assert len(plan.recurrence.blocks) == 1
    unit = 16 * g.n
    assert peak / unit <= 7.5
    assert held / unit == pytest.approx(3.0, abs=0.01)


# the residual suite's fine grid
FINE = LogGrid(-25.0, 25.0, 2**17 + 1)


def test_solve_mode_peak_memory(traced):
    # the two plans hold five complex arrays of the grid's length; a step adds
    # U, the increment (the scan writes into it), the K1 result buffer and one
    # temporary: 9.07 measured, against 12.0 with unfolded weights, a panel
    # array and a fresh output in every scan, and U0 live through the loop
    G = gaussian(FINE)
    sol, _, peak = traced(solve_mode, G, P.a0 + 0.1, P)
    assert sol.iterations == 15
    assert peak / (16 * FINE.n) <= 9.5


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="Linux process accounting")
def test_warm_solve_does_not_fault_its_arrays_in_again(isolated):
    # a Picard step writes its K1 result into a buffer that the solve keeps, so
    # the step frees only its one temporary.  Made afresh in each step, the K1
    # result would be freed with that temporary at the top of the heap, glibc
    # would return both to the kernel, and every step would fault about 1,000
    # pages back in: 14,880-19,232 per warm solve measured so, 0 now
    code = """
import resource
import numpy as np
from ssvortex.modes import LogGrid, ModeFunction
from ssvortex.params import VortexParams
from ssvortex.resolvent import solve_mode
P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)
g = LogGrid(-25.0, 25.0, 2**17 + 1)
G = ModeFunction(1, g, np.exp(-g.nodes**2))
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sol = solve_mode(G, P.a0 + 0.1, P)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    faults = [int(v) for v in isolated(code).split()]
    # the third solve runs on the heap the first two left: fewer pages than
    # one complex array of the grid's length
    assert faults[-1] < 16 * (2**17 + 1) // 4096, faults


def test_ode_residual_peak_memory(traced):
    # the coupling is built first; then the phase, the gauged samples and their
    # derivative, written in place: 4.63 measured, 9.06 with temporaries
    G = gaussian(FINE)
    lam = P.a0 + 0.1
    U = solve_mode(G, lam, P).U
    (res, _), _, peak = traced(ode_residual, U, G, lam, P)
    assert res <= resolvent.RESIDUAL_TOL
    assert peak / (16 * FINE.n) <= 5.0


def test_solve_k0_closed_form():
    g = LogGrid(-20.0, 20.0, 16001)
    s = ((g.nodes > 0) & (g.nodes < 1)).astype(complex)
    s[np.isclose(g.nodes, 0.0)] = 0.5
    s[np.isclose(g.nodes, 1.0)] = 0.5
    G = ModeFunction(0, g, s)
    sol = solve_k0(G, 0.0, P)
    sel = g.nodes < -0.5
    expect = -np.exp(0.5 * g.nodes[sel]) * (1 - np.exp(-0.5))
    np.testing.assert_allclose(sol.U.samples[sel].real, expect, atol=5e-6)


def test_solve_k0_zero_rhs_and_residual():
    g = LogGrid(-25.0, 25.0, 2**15 + 1)
    z = ModeFunction(0, g, np.zeros(g.n))
    assert np.all(solve_k0(z, 0.5, P).U.samples == 0)
    G = gaussian(g, k=0)
    assert ode_residual(solve_k0(G, -0.5, P).U, G, -0.5, P)[0] < 1e-7
    # Young bound ||U|| <= alpha ||G|| / Re B, here alpha/ReB = 1
    rng = np.random.default_rng(7)
    for _ in range(20):
        G = ModeFunction(0, g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        sol = solve_k0(G, 0.0, P)
        assert lq_norm(sol.U, 2.0) <= lq_norm(G, 2.0) * (1 + 1e-6)
    with pytest.raises(ValueError):
        solve_k0(z, -1.0, P)


def test_contraction_bound_value():
    assert contraction_bound(P, 1) == pytest.approx(0.375)
    assert contraction_bound(P, 0) == 0.0


def test_solve_mode_zero_rhs():
    g = LogGrid(-15.0, 15.0, 1025)
    z = ModeFunction(1, g, np.zeros(g.n))
    sol = solve_mode(z, 0.5, P)
    assert np.all(sol.U.samples == 0)


def test_solve_mode_requires_lambda_right_of_a0():
    g = LogGrid(-5.0, 5.0, 65)
    for k in (0, 1):
        with pytest.raises(ValueError):
            solve_mode(gaussian(g, k=k), -1.2, P)


def test_solve_mode_k0_is_the_closed_form():
    g = LogGrid(-15.0, 15.0, 1025)
    G = gaussian(g, k=0)
    want = solve_k0(G, 0.5, P)
    sol = solve_mode(G, 0.5, P)
    assert np.array_equal(sol.U.samples, want.U.samples)
    assert (sol.iterations, sol.method) == (1, "direct")


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


def _manufactured(grid, t0, lam, k=1, sign=0):
    """U of psi = e^{-(t - t0)^2} e^{sign i c e^{-alpha t}} (c = m k beta) and the
    G the resolvent ODE (module docstring of ``resolvent``) gives it, derivatives
    by hand: psi^(j) from g = e^{-(t - t0)^2} and E = e^{sign i c e^{-alpha t}} by
    the product rule."""
    t, a, n = grid.nodes, P.alpha, P.m * k
    x = t - t0
    g = np.exp(-x * x)
    g1, g2, g3 = -2 * x * g, (4 * x * x - 2) * g, (12 * x - 8 * x**3) * g
    phase = sign * n * P.beta * np.exp(-a * t)
    th = -1j * a * phase  # E' / E; E'' / E and E''' / E follow from th' = -a th
    e2, e3 = th * th - a * th, th**3 - 3 * a * th * th + a * a * th
    E = np.exp(1j * phase)
    psi = g * E
    d1 = (g1 + g * th) * E
    d2 = (g2 + 2 * g1 * th + g * e2) * E
    d3 = (g3 + 3 * g2 * th + 3 * g1 * e2 + g * e3) * E
    cw = 2.0 - 2.0 / P.q
    U = d2 + 2 * cw * d1 + (cw * cw - n * n) * psi
    dU = d3 + 2 * cw * d2 + (cw * cw - n * n) * d1
    osc = 1j * n * P.beta * np.exp(-a * t)
    G = dU / a + (P.a0 - lam) * U - osc * (U + a * (2 - a) * psi)
    return U, ModeFunction(k, grid, G)


# (t0, k, phase sign, lambda - a0, error bounds at n = 2^13+1 and 2^15+1).  Relative
# L2 errors measured at n = 2^13+1, 2^15+1, 2^17+1, second order throughout:
#   t0 = 0:                 1.54e-5, 9.65e-7, 6.03e-8
#   t0 = -6:                1.06e-5, 6.60e-7, 4.13e-8
#   phase e^{-ic e^{-at}}:  1.60e-2, 1.01e-3, 6.33e-5
#   phase e^{+ic e^{-at}}:  1.11e-2, 6.84e-4, 4.27e-5
# ode_residual does not track these errors (ROADMAP item 10).  At t0 = -6 and
# n = 2^13+1 it reads 1.35e-10 against the 1.06e-5 error: it does not see the
# far left, where the Gaussian sits.  For e^{-ic e^{-at}} it reads 2e-16, 2.4e-8
# and 1.4e-5 on the three grids, above RESIDUAL_TOL on the most accurate one
# (test_ode_residual_on_the_finest_manufactured_phase_case).
MANUFACTURED = [
    pytest.param(0.0, 1, 0, 0.1, (3e-5, 2e-6), id="0.0"),
    pytest.param(-6.0, 1, 0, 0.1, (3e-5, 2e-6), id="-6.0"),
    pytest.param(-6.0, 2, -1, 0.5 + 2j, (3e-2, 2e-3), id="-6.0-phase-minus"),
    pytest.param(-6.0, 2, 1, 0.5 + 2j, (3e-2, 2e-3), id="-6.0-phase-plus"),
]


@pytest.mark.parametrize("t0,k,sign,offset,bounds", MANUFACTURED)
def test_solve_mode_manufactured_smooth_solution(t0, k, sign, offset, bounds):
    # solve_mode against a known U on every node
    lam = P.a0 + offset
    errors = []
    for n in (2**13 + 1, 2**15 + 1):
        grid = LogGrid(-25.0, 25.0, n)
        U, G = _manufactured(grid, t0, lam, k, sign)
        sol = solve_mode(G, lam, P)
        errors.append(lq_norm_samples(sol.U.samples - U, grid.h, 2.0)
                      / lq_norm_samples(U, grid.h, 2.0))
    assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
    # h falls by 4 between the grids
    assert math.log(errors[0] / errors[1], 4.0) >= 1.8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the residual reads 1.4e-5 on the"
                   " most accurate phase case; it should pass once K1 is phase-aware (10 (d))")
def test_ode_residual_on_the_finest_manufactured_phase_case():
    # the "-6.0-phase-minus" case of MANUFACTURED on the residual suite's fine grid
    lam = P.a0 + 0.5 + 2j
    _, G = _manufactured(FINE, -6.0, lam, k=2, sign=-1)
    assert ode_residual(solve_mode(G, lam, P).U, G, lam, P)[0] <= resolvent.RESIDUAL_TOL


def test_picard_steps_at_large_q():
    # q = 2/alpha = 200: every |U| is about 0.018, and |U|**q underflowed to 0
    # before lq_norm_samples scaled by max|x|, so Picard stopped after one step
    # with update 0.0 and ode_residual read 0.0, measuring nothing.  Now the full
    # map takes 5 steps and the reduced one 7.  The residual reads 1.59e-5 on this
    # coarse grid, above RESIDUAL_TOL: grid error, which the next test shows
    # falling at second order below RESIDUAL_TOL on finer grids.
    p = VortexParams(alpha=0.01, beta=1.0, m=2, q=2.0 / 0.01)
    G = gaussian(LogGrid(-20.0, 20.0, 4097))
    lam = p.a0 + 1.0
    sol = solve_mode(G, lam, p)
    assert sol.iterations > 1 and min(sol.update_history) > 0.0
    assert _reduced_picard(G, lam, p).iterations > 1
    assert ode_residual(sol.U, G, lam, p)[0] > 0.0


def test_ode_residual_at_large_q_is_second_order_grid_error():
    # the q = 200 solve above: ode_residual reads 1.585e-5, 9.907e-7 and
    # 6.192e-8 at n = 4097, 16385 and 65537 (observed order 2.000)
    p = VortexParams(alpha=0.01, beta=1.0, m=2, q=2.0 / 0.01)
    lam = p.a0 + 1.0
    residuals = []
    for n in (16385, 65537):
        G = gaussian(LogGrid(-20.0, 20.0, n))
        residuals.append(ode_residual(solve_mode(G, lam, p).U, G, lam, p)[0])
    assert math.log(residuals[0] / residuals[1], 4.0) >= 1.8
    assert residuals[1] <= resolvent.RESIDUAL_TOL


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


@st.composite
def valid_solves(draw):
    """(params, k, lambda) over the valid range, the critical line q = 2/alpha included."""
    alpha = draw(st.floats(0.01, 0.99))
    u = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    q = 2.0 / alpha if u == 1.0 else 2.0 + u * (2.0 / alpha - 2.0)
    beta = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.01, 50.0))
    p = VortexParams(alpha=alpha, beta=beta, m=draw(st.integers(2, 6)), q=q)
    lam = complex(p.a0 + draw(st.floats(1e-4, 5.0)), draw(st.floats(-1000.0, 1000.0)))
    return p, draw(st.integers(1, 64)), lam


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(valid_solves())
def test_picard_finishes_every_valid_solve(case):
    # Picard is the only solver, so it must finish every valid solve.  A sweep
    # of 6,720 points per map (alpha 0.01-0.99 at q = 2 and 2/alpha, |beta| 0.01-50,
    # m 2 and 6, k 1-64, lambda - a0 from 1e-4) needed at most 23 steps on the
    # full map and 22 on the K1-shortcut one (near alpha = 0.01 those counts were
    # of underflowed norms; see test_picard_steps_at_large_q).  Warnings are
    # errors, so an overflow in the norms fails here too.
    p, k, lam = case
    G = gaussian(LogGrid(-20.0, 20.0, 4097), k=k)
    sol = solve_mode(G, lam, p)
    assert sol.method == "picard"
    assert sol.iterations <= 40
    assert np.all(np.isfinite(sol.U.samples))
    assert _reduced_picard(G, lam, p).iterations <= 40


def plain_picard(tmap, U0, h, q):
    """Update history of U <- U0 + T U from U = U0, stopped as solve_mode stops.

    Its updates are norms of the difference of two iterates, so besides their
    relative rounding they carry an absolute one of order eps (they are relative
    to ||U||); HISTORY_ATOL allows for that on the last, smallest updates."""
    history = []
    U = U0
    while len(history) < resolvent.PICARD_MAX_ITER:
        Unew = U0 + tmap(U)
        history.append(lq_norm_samples(Unew - U, h, q) / lq_norm_samples(Unew, h, q))
        U = Unew
        if history[-1] < PICARD_TOL:
            break
    return history


HISTORY_ATOL = np.finfo(float).eps


def test_solve_mode_dense_matches_picard():
    # oracle: the full map T applied to every column of the identity, iterated
    # as U <- U0 + T U and solved directly as (I - T) U = U0
    g = LogGrid(-18.0, 18.0, 2049)
    G = gaussian(g)
    a = solve_mode(G, 0.5, P)
    coef = 1j * P.beta * P.alpha**2 * (2.0 - P.alpha) / 2.0
    scan = _ScanPlan(g, KernelK2(P, 1, 0.5))
    w = np.exp(-P.alpha * g.nodes)
    M = w[:, None] * phi1_matrix(g, KernelK1(1, P.q, P.m))
    T = coef * np.stack([scan(col) for col in M.T], axis=1)
    U0 = -P.alpha * scan(G.samples)
    dense = np.linalg.solve(np.eye(g.n) - T, U0)
    assert a.method == "picard"
    np.testing.assert_allclose(dense, a.U.samples, atol=1e-9 * np.abs(a.U.samples).max())
    history = plain_picard(lambda x: T @ x, U0, g.h, P.q)
    assert a.iterations == len(history)
    np.testing.assert_allclose(a.update_history, history, rtol=1e-10, atol=HISTORY_ATOL)


def allocating_picard(G, lam, p):
    """The full map's Picard run as ``solve_mode`` stops it, every stage a fresh
    array: d <- coef Phi2(e^{-alpha t} Phi1(d)), U <- U + d from d = U = U0,
    through ``apply_phi1`` and ``apply_phi2``.  Returns U and the step count."""
    k1, k2 = KernelK1(G.k, p.q, p.m), KernelK2(p, G.k, lam)
    coef = 1j * p.beta * p.alpha**2 * (2.0 - p.alpha) / 2.0
    decay = np.exp(-p.alpha * G.grid.nodes)
    h = G.grid.h
    U = d = -p.alpha * apply_phi2(G, k2).samples
    for step in range(1, resolvent.PICARD_MAX_ITER + 1):
        y = decay * apply_phi1(G.with_samples(d), k1).samples
        d = coef * apply_phi2(G.with_samples(y), k2).samples
        U = U + d
        if lq_norm_samples(d, h, p.q) / lq_norm_samples(U, h, p.q) < PICARD_TOL:
            return U, step
    raise AssertionError("the oracle did not converge")


@pytest.mark.parametrize("p, k, offset", [
    pytest.param(P, 1, 0.1, id="default"),
    pytest.param(VortexParams(alpha=0.5, beta=-1.0, m=2, q=4.0), 1, 1.0, id="negative-beta"),
    pytest.param(VortexParams(alpha=2.0 / 3.0, beta=1.0, m=3, q=3.0), 2, 0.5 - 0.5j, id="q3"),
])
def test_solve_mode_matches_allocating_picard(p, k, offset):
    # the in-place step with coef e^{-alpha t} and the recurrence factor folded
    # into the scan's weights against the unfused, allocating map
    g = LogGrid(-25.0, 25.0, 2**14 + 1)
    G = gaussian(g, k=k)
    lam = p.a0 + offset
    sol = solve_mode(G, lam, p)
    U, steps = allocating_picard(G, lam, p)
    assert sol.iterations == steps
    assert np.abs(sol.U.samples - U).max() <= 1e-12 * np.abs(U).max()
    assert solve_mode(G, lam, p).U.samples.tobytes() == sol.U.samples.tobytes()


def test_solves_leave_their_callers_arrays_alone():
    # _picard accumulates U in U0's buffer and the full map's scan writes into
    # the increment: neither may reach an array the caller passed in or holds,
    # such as an earlier solve's U
    g = LogGrid(-15.0, 15.0, 1025)
    raw = np.exp(-g.nodes**2) + 0j
    kept = raw.copy()
    G = ModeFunction(1, g, raw)
    for solve in (solve_mode, _reduced_picard):
        first = solve(G, 0.5, P)
        before = first.U.samples.copy()
        second = solve(G, 0.5, P)
        assert first.U.samples.tobytes() == before.tobytes() == second.U.samples.tobytes()
        assert not np.shares_memory(first.U.samples, second.U.samples)
        assert not np.shares_memory(second.U.samples, G.samples)
    assert G.samples.tobytes() == kept.tobytes() == raw.tobytes()


@pytest.mark.parametrize("q, alpha, k", [(2.5, 0.8, 2), (3.0, 2.0 / 3.0, 4)])
def test_solve_mode_reduced_map_matches_plain_picard(q, alpha, k):
    # two points of the contraction check's lattice, on its grid and data
    p = VortexParams(alpha=alpha, beta=1.0, m=2, q=q)
    lam = p.a0 + 0.5
    g = LogGrid(-20.0, 20.0, 2**14 + 1)
    G = gaussian(g, k=k)
    sol = _reduced_picard(G, lam, p)
    coef = alpha * (2.0 - alpha) / (2.0 * p.m * k)
    k1 = KernelK1(k, q, p.m)
    U0 = -alpha * apply_phi2(G, KernelK2(p, k, lam)).samples
    history = plain_picard(lambda x: coef * apply_phi1(G.with_samples(x), k1).samples,
                           U0, g.h, q)
    assert sol.method == "picard"
    assert sol.iterations == len(history)
    np.testing.assert_allclose(sol.update_history, history, rtol=1e-10, atol=HISTORY_ATOL)


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
    red = _reduced_picard(G, -0.5, P)
    assert ode_residual(full.U, G, -0.5, P)[0] < 1e-6
    assert ode_residual(red.U, G, -0.5, P)[0] > 1e-2


def test_solve_mode_beta_zero_reduces_to_phi2():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    g = LogGrid(-15.0, 15.0, 2049)
    G = gaussian(g)
    sol = solve_mode(G, 0.5, p0)
    expect = -p0.alpha * apply_phi2(G, KernelK2(p0, 1, 0.5)).samples
    np.testing.assert_allclose(sol.U.samples, expect, rtol=0, atol=1e-12)


def test_solve_mode_reduced_map_at_beta_zero():
    # the reduced map alpha(2-alpha)/(2mk) Phi1 does not depend on beta, so at
    # beta = 0 it still feeds back: its fixed point takes Picard steps
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    g = LogGrid(-15.0, 15.0, 2049)
    G = gaussian(g)
    sol = _reduced_picard(G, 0.5, p0)
    U0 = -p0.alpha * apply_phi2(G, KernelK2(p0, 1, 0.5)).samples
    coef = p0.alpha * (2.0 - p0.alpha) / (2.0 * p0.m * 1)
    fixed = U0 + coef * apply_phi1(sol.U, KernelK1(1, p0.q, p0.m)).samples
    assert sol.method == "picard" and sol.iterations > 1
    assert lq_norm(sol.U.with_samples(sol.U.samples - fixed), p0.q) <= 1e-8 * lq_norm(sol.U, p0.q)


def test_neat_identity_report_oracle_values():
    # frozen oracle: at (k=1, beta=1, alpha=0.5, mu=1, t=0) the true integral is
    # 2*int_0^1 e^{2iw} w^2 dw = e^{2i}(1 - i/2) - i/2, while the shortcut claims
    # -i e^{2i}; their distance is 0.89374...
    rows = verify_neat_identities([0.0], [1.0], P, 1)
    row = [r for r in rows if r["check"] == "half_line"][0]
    lhs_exact = np.exp(2j) * (1 - 0.5j) - 0.5j
    rhs_claim = -1j * np.exp(2j)
    assert row["lhs"] == pytest.approx(lhs_exact, abs=1e-9)
    assert row["rhs"] == pytest.approx(rhs_claim, abs=1e-14)
    assert row["abs_error"] == pytest.approx(abs(lhs_exact - rhs_claim), abs=1e-8)


def test_neat_identity_finite_interval_empty():
    rows = verify_neat_identities([0.5], [1.0], P, 1)
    # single t-sample: no (t, r) pairs, so no finite-interval rows
    assert rows and all(r["check"] == "half_line" for r in rows)


def test_neat_identity_skipped_for_beta_zero():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    assert verify_neat_identities([0.0], [1.0], p0, 1) == []


def test_quadrature_self_convergence():
    # composite Simpson approximations of the tail integral converge to the
    # adaptive-quadrature value at order >= 2
    from ssvortex.resolvent import _span_integral
    t, mu, alpha, c = 0.0, 1.0, 0.5, 2.0
    ref = _span_integral(t, math.inf, mu, alpha, c)
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
    rows = verify_kernel_composition([1.0, -1.0], [-1.0, 1.0], P, 1, lam)
    ker = KernelK2(P, 1, lam)
    k1 = KernelK1(1, P.q, 2)

    def direct(t, r):
        def integrand(s):
            d = s - r
            k1v = np.exp(-k1.A_plus * d) if d >= 0 else np.exp(k1.A_minus * d)
            return k2_eval(t, s, ker) * np.exp(-P.alpha * s) * k1v
        return 2j * P.alpha * cquad(integrand, t, 60.0)

    assert len(rows) == 4
    for row in rows:
        t, r = row["t"], row["r"]
        assert row["lhs"] == pytest.approx(direct(t, r), rel=1e-6, abs=1e-9)
        expect_k1 = np.exp(-3 * (t - r)) if t >= r else np.exp(1 * (t - r))
        assert row["k1"] == pytest.approx(expect_k1, rel=1e-12)
    # the collapse misses K1 by a sizable amount at these parameters
    assert max(row["abs_error"] for row in rows) > 1e-2


def test_composition_requires_beta_and_k():
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    assert verify_kernel_composition([0.0], [0.0], p0, 1, 0.5) == []
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
    # the zone is every node where h * max(|c| alpha e^{-alpha t}, 1) <= theta,
    # c = m k beta, less the two end nodes on each side
    g = LogGrid(-25.0, 25.0, 2**14 + 1)
    G = gaussian(g)
    sol = solve_mode(G, -0.5, P)
    _, frac = ode_residual(sol.U, G, -0.5, P)
    resolvable = [g.h * max(abs(P.m * P.beta) * P.alpha * math.exp(-P.alpha * t), 1.0)
                  <= resolvent.RESIDUAL_ZONE_THETA for t in g.nodes[2:-2]]
    assert 0 < sum(resolvable) < g.n - 4
    assert frac == sum(resolvable) / g.n


def test_ode_residual_fails_with_no_resolvable_node():
    # h = 0.050 exceeds RESIDUAL_ZONE_THETA at every node: with nothing to
    # measure the residual is inf, so the check fails instead of passing vacuously
    g = LogGrid(-10.0, 10.0, 400)
    assert g.h > resolvent.RESIDUAL_ZONE_THETA
    G = gaussian(g)
    res, frac = ode_residual(solve_mode(G, -0.5, P).U, G, -0.5, P)
    assert (res, frac) == (math.inf, 0.0)
    assert not res <= resolvent.RESIDUAL_TOL


def test_iteration_budget_exhaustion_raises_with_history(monkeypatch):
    # Picard stops at its budget of two steps and raises with their history
    monkeypatch.setattr(resolvent, "PICARD_MAX_ITER", 2)
    g = LogGrid(-15.0, 15.0, 1025)
    G = gaussian(g)
    with pytest.raises(ConvergenceError) as exc:
        solve_mode(G, -0.5, P)
    assert len(exc.value.history) == 2


def test_picard_overflow_raises(monkeypatch):
    # a Phi1 scaled by 50 makes the Picard map expand: its iterates overflow
    # within about 160 steps, and the first non-finite update must raise
    real = resolvent._Phi1Plan

    def scaled(grid, kernel):
        plan = real(grid, kernel)

        def call(x, out=None):  # the plan's call, the result buffer included
            y = plan(x, out)
            y *= 50.0
            return y

        return call

    monkeypatch.setattr(resolvent, "_Phi1Plan", scaled)
    G = gaussian(LogGrid(-15.0, 15.0, 257))
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
        solve_mode(G, -0.5, P)
    history = exc.value.history
    assert len(history) < resolvent.PICARD_MAX_ITER
    assert not math.isfinite(history[-1])
    assert all(math.isfinite(u) for u in history[:-1])
