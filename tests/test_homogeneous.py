import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ssvortex import homogeneous
from ssvortex.homogeneous import INCONCLUSIVE, NO_INTEGRABLE, shoot_batch, shoot_homogeneous
from ssvortex.modes import KernelK1
from ssvortex.params import VortexParams
from ssvortex.suites import RunConfig

from oracles import SeriesError, homo2_defect, homo2_params, hyp2f2_regularized, q_frak

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1
_P_NEG = VortexParams(alpha=0.5, beta=-1.0, m=3, q=4.0)


def test_homo2_params_values():
    hp = homo2_params(P, 1, 0.0)
    assert hp.q_frak == pytest.approx(math.sqrt(3.25) / 0.5, rel=1e-14)
    assert hp.a1 == pytest.approx(-4.0 - math.sqrt(3.25) / 0.5, rel=1e-12)
    assert hp.a2 == pytest.approx(-4.0 + math.sqrt(3.25) / 0.5, rel=1e-12)
    assert hp.b1 == pytest.approx(-7.0)
    assert hp.b2 == pytest.approx(0.0)
    # sqrt(0.81 - 1.8 + 16)/0.9
    assert q_frak(0.9, 2) == pytest.approx(math.sqrt(15.01) / 0.9, rel=1e-14)


def test_homo2_parameter_identities_lattice():
    for alpha in (0.2, 0.5, 2.0 / 3.0, 0.9):
        p = VortexParams(alpha=alpha, beta=1.0, m=2, q=2.0)
        for k in (1, 2, 3, 5):
            hp = homo2_params(p, k, 0.3 - 0.7j)
            assert abs(hp.a1 + hp.a2 - (-4.0 * k / alpha)) < 1e-12
            assert abs(hp.b1 - (alpha - 4.0 * k) / alpha) < 1e-12
            # a1*a2 = (2 - alpha)/alpha = -(alpha - 2)/alpha
            assert abs(hp.a1 * hp.a2 - (2.0 - alpha) / alpha) < 1e-10


def test_homo2_params_requires_k_positive():
    with pytest.raises(ValueError):
        homo2_params(P, 0, 0.0)
    # the bundle is the m = 2 form: any other fold is rejected, not misread
    with pytest.raises(ValueError):
        homo2_params(VortexParams(alpha=0.5, beta=1.0, m=3, q=2.0), 1, 0.0)


def test_series_at_zero_with_gamma_pole():
    hp = homo2_params(P, 1, 0.0)  # b1 = -7 is a reciprocal-gamma zero
    assert hyp2f2_regularized(hp.a1, hp.a2, hp.b1, hp.b2, 0.0) == 0.0


def test_series_known_reduction():
    # 2F2(1,1;1,2;z) collapses to (e^z - 1)/z; gamma factors are 1
    val = hyp2f2_regularized(1.0, 1.0, 1.0, 2.0, 1.0)
    assert val == pytest.approx(math.e - 1.0, rel=1e-14)


def test_series_term_budget_guard():
    with pytest.raises(SeriesError):
        hyp2f2_regularized(1.0, 1.0, 1.0, 2.0, 100.0)


def test_homo2_ode_defect_small():
    # the derivatives are exact series, so only roundoff is left
    cases = [
        homo2_params(P, 1, 0.0),
        homo2_params(P, 1, 0.5),
        homo2_params(VortexParams(alpha=0.8, beta=1.0, m=2, q=2.5), 2, 1.0),
    ]
    zs = np.linspace(0.1, 2.0, 10)
    for hp in cases:
        assert homo2_defect(hp, zs) <= 1e-12


def _series_vector(p, k, lam):
    """(psi, psi', U) at t = 0 of psi = e^{(n - c_w) t} F(z), z = -i m k beta e^{-alpha t}:
    F is the regularized 2F2 at homo2_params, F' and F'' the series with every
    parameter raised by 1 and 2 (DLMF 16.3.1), and z' = -alpha z."""
    hp = homo2_params(p, k, lam)
    n, cw, a = p.m * k, 2.0 - 2.0 / p.q, p.alpha
    z = -1j * p.m * k * p.beta
    F, poch = [], 1.0
    for j in range(3):
        F.append(poch * hyp2f2_regularized(hp.a1 + j, hp.a2 + j, hp.b1 + j, hp.b2 + j, z))
        poch *= (hp.a1 + j) * (hp.a2 + j)
    return np.array([F[0], n * F[0] - a * z * F[1] - cw * F[0],
                     -a * (2 * n - a) * z * F[1] + a * a * z * z * F[2]])


def _right_vector(p, k, lam):
    """The shooting flow's right-admissible vector at t = 0, built as _mismatches does."""
    M0, M1 = homogeneous._system(p, np.array([k], dtype=float), np.array([lam], dtype=complex))
    k1 = KernelK1(k, p.q, p.m)
    return homogeneous._flow_to_zero(M0 + k1.A_plus * np.eye(3), M1, p.alpha,
                                     [[1.0, -k1.A_plus, 0.0]], homogeneous.SHOOT_SPAN, "right")[0]


def _sine(u, v):
    """Sine of the angle between the complex lines through u and v."""
    v = v / np.linalg.norm(v)
    return np.linalg.norm(u - np.vdot(v, u) * v) / np.linalg.norm(u)


@pytest.mark.parametrize("alpha, beta, q, k", [
    (0.5, 1.0, 2.0, 1), (0.5, 1.0, 2.0, 2), (0.5, 1.0, 2.0, 3), (0.5, 1.0, 2.0, 8),
    (0.8, 1.0, 2.5, 2), (2.0 / 3.0, 1.0, 3.0, 3), (0.5, 3.0, 3.0, 2)])
def test_series_is_the_right_admissible_solution(alpha, beta, q, k):
    # ties the appendix series to the vortex: at t = 0 it spans the same line
    # as the right-admissible vector the shooting flow integrates from t = 12
    p = VortexParams(alpha=alpha, beta=beta, m=2, q=q)
    # 1 - b1 = 2mk/alpha is a positive integer, so b1 is a reciprocal-gamma zero
    # and the regularized series starts at z^{2mk/alpha}: psi ~ e^{-A+ t}
    assert abs(2 * p.m * k / alpha - round(2 * p.m * k / alpha)) < 1e-12
    for off in (0.1, 0.5, 1.0, 4.0, 0.5 + 1j, 2.0 - 2.0j, 4.0 + 3.0j):
        lam = p.a0 + off
        v = _right_vector(p, k, lam)
        # measured at most 6.7e-12 over this lattice
        assert _sine(_series_vector(p, k, lam), v) <= 1e-10
        # control: the series at a neighbouring lambda is off the line
        # (measured 1.9e-5 to 5.5e-4)
        assert _sine(_series_vector(p, k, lam + 0.05), v) >= 1e-6


def test_shoot_k0_analytic():
    r = shoot_homogeneous(P, 0, 0.0)
    assert r.verdict == NO_INTEGRABLE
    assert r.mismatch == 1.0


def test_shoot_rejects_lambda_left_of_a0():
    with pytest.raises(ValueError):
        shoot_homogeneous(P, 1, -1.5)
    # one bad point rejects the whole batch before anything is integrated
    with pytest.raises(ValueError):
        shoot_batch(P, [(1, complex(P.a0 + 1.0)), (2, complex(P.a0 - 0.5))])


def test_shoot_k1_no_integrable_solution():
    r = shoot_homogeneous(P, 1, -0.5)
    assert r.verdict == NO_INTEGRABLE
    assert r.mismatch > 1e-3


def test_shoot_complex_lambda_grid_sample():
    for lam in (-0.2 + 1.0j, 1.0 - 2.0j):
        r = shoot_homogeneous(P, 2, lam)
        assert r.verdict == NO_INTEGRABLE


def _grid(p, ks, offsets, imags):
    return [(k, complex(p.a0 + off, im)) for k in ks for off in offsets for im in imags]


# the default shooting grid, and a negative-beta vortex with m = 3 at q > 2/alpha
# down to Re(lambda) - a0 = 0.05 (k <= 2 there: its single-task solves are slow)
_DEFAULT = RunConfig()
AGREEMENT_CASES = {
    "default": (P, _grid(P, _DEFAULT.shoot_k, _DEFAULT.shoot_offsets, _DEFAULT.shoot_imags)),
    "beta_neg_m3_q4": (_P_NEG, _grid(_P_NEG, (1, 2), (0.05, 1.0, 4.0), (-1.0, 0.0))),
}


def _flow(p, k, lam, y0, t0):
    """One solution of the mode system y' = (M0 + e^{-alpha t} M1) y from t0 to 0."""
    M0, M1 = homogeneous._system(p, np.array([float(k)]), np.array([lam]))

    def rhs(t, y):
        return (M0[0] + math.exp(-p.alpha * t) * M1[0]) @ y

    sol = solve_ivp(rhs, (t0, 0.0), np.array(y0, dtype=complex), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1]


# a default-vortex batch (one complex lambda) and a negative-beta m = 3 vortex
TEXTBOOK_CASES = [
    (P, [(1, complex(P.a0 + 1.0)), (2, complex(P.a0 + 0.5, 1.0))]),
    (_P_NEG, [(1, complex(_P_NEG.a0 + 0.3, -0.5)), (2, complex(_P_NEG.a0 + 2.0))]),
]


@pytest.mark.parametrize("case", range(len(TEXTBOOK_CASES)))
def test_adjoint_normal_gives_textbook_determinant(case, monkeypatch):
    # the normal of the left plane is integrated by the adjoint flow; the
    # textbook form integrates the plane's two spanning solutions u, v and the
    # right solution y_C separately and takes |det[u, v, y_C]| / (|u x v| |y_C|)
    monkeypatch.setattr(homogeneous, "SHOOT_SPAN", 2.0)
    p, tasks = TEXTBOOK_CASES[case]
    results = shoot_batch(p, tasks)
    for r, (k, lam) in zip(results, tasks):
        k1 = KernelK1(k, p.q, p.m)
        u = _flow(p, k, lam, [1.0, k1.A_minus, 0.0], -2.0)
        v = _flow(p, k, lam, [0.0, 0.0, 1.0], -2.0)
        yC = _flow(p, k, lam, [1.0, -k1.A_plus, 0.0], 2.0)
        det = np.linalg.det(np.column_stack([u, v, yC]))
        expected = abs(det) / (np.linalg.norm(np.cross(u, v)) * np.linalg.norm(yC))
        assert r.verdict == NO_INTEGRABLE
        assert r.mismatch == pytest.approx(expected, rel=1e-7, abs=0.0)


def test_shoot_large_k_needs_renormalization():
    # at k = 16, 32 and 64 the unshifted left normal and right vector would grow
    # like e^{A+ SHOOT_SPAN}, far more than a double holds; the shift by A+ is
    # what keeps them finite in one integration per side
    lam = complex(P.a0 + 1.0, 0.5)
    for r in shoot_batch(P, [(16, lam), (32, lam), (64, lam)]):
        assert r.verdict == NO_INTEGRABLE
        assert math.isfinite(r.mismatch) and r.mismatch > homogeneous.MISMATCH_THRESHOLD


# every block starts at unit length; the shifted flows must never grow it much
# (the critical line q = 2/alpha has a0 = 0)
BOUNDED_CASES = {
    "default": AGREEMENT_CASES["default"],
    "large_k": (P, [(k, complex(P.a0 + 1.0, 0.5)) for k in (16, 32, 64)]),
    "beta_neg_m3_q4": AGREEMENT_CASES["beta_neg_m3_q4"],
    "alpha_0.2_q10": (VortexParams(alpha=0.2, beta=1.0, m=2, q=10.0),
                      [(k, complex(off, im)) for k in (1, 3) for off in (0.05, 1.0)
                       for im in (0.0, 2.0)]),
}


@pytest.mark.parametrize("case", sorted(BOUNDED_CASES))
def test_shifted_flow_keeps_states_bounded(case, monkeypatch):
    p, tasks = BOUNDED_CASES[case]
    real = homogeneous.solve_ivp
    largest = []

    def recording(fun, t_span, y0, **kwargs):
        # every state the integrator evaluates, trial stages included
        seen = []

        def watched(t, y):
            seen.append(np.linalg.norm(y.reshape(-1, 3), axis=1).max())
            return fun(t, y)

        sol = real(watched, t_span, y0, **kwargs)
        largest.append(max(seen))
        return sol

    monkeypatch.setattr(homogeneous, "solve_ivp", recording)
    results = shoot_batch(p, tasks)
    assert len(largest) == 2  # one integration per side
    assert all(r.verdict == NO_INTEGRABLE for r in results)
    assert max(largest) <= 2.0


def test_flows_get_contiguous_coefficients(monkeypatch):
    # the right-hand side sums A0 and A1 on every call; a transposed view as
    # the adjoint's A1 made each of those sums strided and the left flow slower
    real = homogeneous._flow_to_zero
    seen = {}

    def recording(A0, A1, alpha, y0, t_start, side):
        seen[side] = (A0, A1)
        return real(A0, A1, alpha, y0, t_start, side)

    monkeypatch.setattr(homogeneous, "_flow_to_zero", recording)
    shoot_batch(P, [(1, complex(P.a0 + 1.0, 0.5)), (2, complex(P.a0 + 4.0, -1.0))])
    assert sorted(seen) == ["left", "right"]
    for side, coefficients in seen.items():
        for name, A in zip(("A0", "A1"), coefficients):
            assert A.shape == (2, 3, 3)
            assert A.flags.c_contiguous, f"{side} {name} is not C-contiguous"


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_shoot_batch_matches_single_task(case):
    p, tasks = AGREEMENT_CASES[case]
    batched = shoot_batch(p, tasks)
    assert [(r.k, r.lam) for r in batched] == tasks
    for r, (k, lam) in zip(batched, tasks):
        single = shoot_homogeneous(p, k, lam)
        assert r.verdict == single.verdict == NO_INTEGRABLE
        assert r.mismatch == pytest.approx(single.mismatch, rel=1e-8, abs=0.0)


def test_shoot_batch_failure_stays_with_its_task(monkeypatch):
    # the planted task's right-hand side is the only one whose real part is
    # above 100: Re(lambda) - a0 = 1000 enters it as alpha * (lambda - a0)
    planted = complex(P.a0 + 1000.0, 0.5)
    tasks = [(1, complex(P.a0 + 0.8, -1.0)), (2, planted), (0, complex(P.a0 + 1.0)),
             (2, complex(P.a0 + 4.0, 1.0))]
    real = homogeneous.solve_ivp
    batch_sizes = []

    def flaky(fun, t_span, y0, **kwargs):
        batch_sizes.append(len(y0) // 3)
        if np.abs(fun(t_span[0], np.ones_like(y0)).real).max() > 100.0:
            return SimpleNamespace(success=False, message="planted failure")
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(homogeneous, "solve_ivp", flaky)
    results = shoot_batch(P, tasks)
    assert batch_sizes[0] == 3 and max(batch_sizes[1:]) == 1
    assert [r.verdict for r in results] == [NO_INTEGRABLE, INCONCLUSIVE, NO_INTEGRABLE,
                                            NO_INTEGRABLE]
    assert results[1].note == "left integration failed: planted failure"
    monkeypatch.undo()
    for r, (k, lam) in zip(results, tasks):
        if r.verdict == NO_INTEGRABLE:
            assert r.mismatch == shoot_homogeneous(P, k, lam).mismatch


@pytest.mark.parametrize("value", [np.inf, 1e200])
def test_shoot_batch_overflow_is_inconclusive(value, monkeypatch):
    # a stub solve_ivp reports success but leaves an overflowed value (or one
    # whose norm overflows) in the planted task's block; that task must not
    # pass as a possible eigenvalue
    planted = complex(P.a0 + 1000.0, 0.5)
    tasks = [(1, complex(P.a0 + 0.8, -1.0)), (2, planted), (2, complex(P.a0 + 4.0, 1.0))]
    real = homogeneous.solve_ivp

    def overflowing(fun, t_span, y0, **kwargs):
        hit = np.abs(fun(t_span[0], np.ones_like(y0)).real).reshape(-1, 3).max(axis=1) > 100.0
        if not hit.any():
            return real(fun, t_span, y0, **kwargs)
        y = np.ones((len(y0), 1), dtype=complex)
        y.reshape(-1, 3)[hit] = value
        return SimpleNamespace(success=True, message="", y=y)

    monkeypatch.setattr(homogeneous, "solve_ivp", overflowing)
    results = shoot_batch(P, tasks)
    assert [r.verdict for r in results] == [NO_INTEGRABLE, INCONCLUSIVE, NO_INTEGRABLE]
    assert results[1].note == "left integration overflowed"
    monkeypatch.undo()
    for r, (k, lam) in zip(results, tasks):
        if r.verdict == NO_INTEGRABLE:
            assert r.mismatch == shoot_homogeneous(P, k, lam).mismatch
