import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from ssvortex.modes import (
    MAX_PANEL_DECAY,
    KernelK1,
    LogGrid,
    ModeFunction,
    _Phi1Plan,
    _Recurrence,
    apply_phi1,
    k1_eval,
    lq_norm,
    lq_norm_samples,
    phi1_matrix,
    psi_from_U,
)
from ssvortex.params import VortexParams
from ssvortex.suites import LATTICE_K, YOUNG_LATTICE, YOUNG_N, YOUNG_T

from oracles import second_order_relation

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)


def gaussian_mode(grid, k=1, width=1.0, center=0.0):
    return ModeFunction(k, grid, np.exp(-((grid.nodes - center) / width) ** 2))


def test_grid_validation():
    with pytest.raises(ValueError):
        LogGrid(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        LogGrid(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        LogGrid(-1.0, 1.0, 16.5)
    for ends in ((-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError, match="must be a real number"):
            LogGrid(*ends, 64)
    # an integral float is normalized to an int
    g16 = LogGrid(-1, 1, 16.0)
    assert type(g16.n) is int and g16.n == 16 and g16.nodes.size == 16
    g = LogGrid(-1.0, 1.0, 21)
    assert g.h == pytest.approx(0.1)
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0


def test_mode_function_validation():
    g = LogGrid(-1.0, 1.0, 21)
    with pytest.raises(ValueError):
        ModeFunction(1, g, np.zeros(20))
    with pytest.raises(ValueError):
        ModeFunction(1, g, np.full(21, np.nan))


def test_weighted_norm_matches_radial_norm():
    # ||u||_{L^q(r dr)} equals ||U||_{L^q(dt)} for a Gaussian bump in t
    g = LogGrid(-20.0, 20.0, 2001)
    t = g.nodes
    q = 2.0
    u = np.exp(-t**2)   # u(e^t)
    U = ModeFunction(1, g, u * np.exp(2.0 * t / q))
    # radial-side integral of |u|^q r dr = |u(e^t)|^q e^{2t} dt by quadrature
    radial = np.sqrt(trapezoid(np.abs(u) ** 2 * np.exp(2 * t), t))
    assert lq_norm(U, q) == pytest.approx(radial, abs=1e-8)


def test_lq_norm_values():
    g = LogGrid(-10.0, 10.0, 5001)
    zero = ModeFunction(0, g, np.zeros(g.n))
    assert lq_norm(zero, 2.0) == 0.0
    ind = ModeFunction(0, g, ((g.nodes >= 0) & (g.nodes <= 1)).astype(complex))
    assert abs(lq_norm(ind, 2.0) - 1.0) < 2 * g.h
    gauss = ModeFunction(0, g, np.exp(-g.nodes**2))
    assert lq_norm(gauss, 2.0) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-10)


def _explicit_l2(x, h):
    w = np.ones(x.shape[0])
    w[[0, -1]] = 0.5
    return np.sqrt(h * np.sum(w * np.abs(x) ** 2))


def test_lq_norm_samples_q2_matches_explicit_sum():
    # the q = 2 sum runs over a float view of the samples: contiguous, a strided
    # column of a block, a reversed view and a real array all give h sum w |x|^2
    g = LogGrid(-10.0, 10.0, 4097)
    rng = np.random.default_rng(16)
    X = rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3))
    x = np.ascontiguousarray(X[:, 0])
    for name, s in [("contiguous", x), ("column", X[:, 1]), ("reversed", X[::-1, 2]),
                    ("real", X[:, 2].real.copy())]:
        norm = lq_norm_samples(s, g.h, 2.0)
        assert type(norm) is float
        assert norm == pytest.approx(_explicit_l2(s, g.h), rel=1e-14), name


def test_lq_norm_samples_q2_overflow_is_inf():
    # solve_mode's overflow hand-over reads math.isfinite of the iterate's norm
    g = LogGrid(-10.0, 10.0, 257)
    big = np.full(g.n, 1e200 + 1e200j)
    with np.errstate(over="ignore"):
        assert lq_norm_samples(big, g.h, 2.0) == np.inf


def test_lq_norm_samples_large_q_does_not_underflow():
    # at q = 200 (the critical line q = 2/alpha at alpha = 0.01), |x|**q is 0 in
    # double precision for every |x| below 0.02, so an unscaled sum reads 0
    g = LogGrid(-20.0, 20.0, 4097)
    x = np.full(g.n, 0.01 + 0.01j)
    norm = lq_norm_samples(x, g.h, 200.0)
    assert type(norm) is float
    assert norm == pytest.approx(abs(x[0]) * (g.h * (g.n - 1)) ** (1 / 200), rel=1e-12)
    # where nothing underflows, the scaling changes only the rounding
    y = np.random.default_rng(3).standard_normal(g.n) + 0.5j
    w = np.abs(y) ** 3
    plain = (g.h * (w.sum() - 0.5 * (w[0] + w[-1]))) ** (1 / 3)
    assert lq_norm_samples(y, g.h, 3.0) == pytest.approx(plain, rel=1e-15)
    assert lq_norm_samples(np.zeros(g.n), g.h, 200.0) == 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e300])
def test_lq_norm_samples_large_q_keeps_non_finite(bad):
    # Picard detects an overflowed iterate by its norm, so a non-finite sample
    # must give a non-finite norm (and warn of nothing) after the max|x| scaling;
    # a finite one that |x|**q would overflow now gives a finite norm
    g = LogGrid(-10.0, 10.0, 257)
    x = np.full(g.n, 0.5 + 0j)
    x[7] = bad
    assert math.isfinite(lq_norm_samples(x, g.h, 200.0)) == math.isfinite(bad)


def test_second_order_relation_zero_and_root():
    g = LogGrid(-2.0, 2.0, 201)
    zero = ModeFunction(1, g, np.zeros(g.n))
    assert np.all(second_order_relation(zero, P).samples == 0)
    # m=2, q=2, k=1: U = psi'' + 2 psi' - 3 psi and e^t is a characteristic root
    et = ModeFunction(1, g, np.exp(g.nodes))
    out = second_order_relation(et, P)
    assert np.max(np.abs(out.samples[2:-2])) < 1e-7


def test_second_order_relation_sin_oracle():
    g = LogGrid(-3.0, 3.0, 601)
    t = g.nodes
    psi = ModeFunction(1, g, np.sin(t))
    out = second_order_relation(psi, P)
    expect = 2 * np.cos(t) - 4 * np.sin(t)
    np.testing.assert_allclose(out.samples[2:-2], expect[2:-2], atol=1e-6)


def test_k1_eval_values():
    ker = KernelK1(1, 2.0, 2)
    assert ker.A_plus == pytest.approx(3.0)
    assert ker.A_minus == pytest.approx(1.0)
    assert k1_eval(1.0, 0.0, ker) == pytest.approx(np.exp(-3.0))
    assert k1_eval(0.0, 1.0, ker) == pytest.approx(np.exp(-1.0))
    assert k1_eval(0.5, 0.5, ker) == pytest.approx(1.0)


def test_k1_shift_invariance():
    ker = KernelK1(2, 2.5, 2)
    # dyadic shifts keep t - s bitwise identical, so equality is exact
    for c in (-4.0, 0.5, 8.0):
        assert k1_eval(1.25 + c, -0.25 + c, ker) == k1_eval(1.25, -0.25, ker)
    for c in (-3.0, 0.7, 11.0):
        assert k1_eval(1.2 + c, -0.3 + c, ker) == pytest.approx(k1_eval(1.2, -0.3, ker), rel=1e-12)


def test_phi1_indicator_closed_form():
    g = LogGrid(-20.0, 20.0, 8001)
    s = ((g.nodes > 0) & (g.nodes < 1)).astype(complex)
    s[np.isclose(g.nodes, 0.0)] = 0.5  # half-value convention at the jumps
    s[np.isclose(g.nodes, 1.0)] = 0.5
    ind = ModeFunction(1, g, s)
    ker = KernelK1(1, 2.0, 2)
    out = apply_phi1(ind, ker)
    sel = g.nodes > 1.5
    expect = (np.exp(-3.0 * (g.nodes[sel] - 1.0)) - np.exp(-3.0 * g.nodes[sel])) / 3.0
    np.testing.assert_allclose(out.samples[sel].real, expect, atol=5e-6)


@pytest.mark.parametrize("grid, k, q", [
    *[pytest.param(LogGrid(-10.0, 10.0, 257), k, q, id=f"k{k}-q{q}")
      for k in (1, 8) for q in (1.2, 2.0, 6.0)],
    # A+ h = 0.33 per panel, so the recurrence runs in several blocks
    pytest.param(LogGrid(-40.0, 40.0, 4097), 8, 2.0, id="k8-q2.0-blocks"),
])
def test_phi1_recurrence_matches_matrix(grid, k, q):
    rng = np.random.default_rng(3)
    fn = ModeFunction(k, grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
    ker = KernelK1(k, q, 2)
    out = apply_phi1(fn, ker).samples
    np.testing.assert_allclose(out, phi1_matrix(grid, ker) @ fn.samples, rtol=1e-11, atol=0)


# full row blocks, the partial last one, and a slice that runs past the end
@pytest.mark.parametrize("rows", [slice(0, 128), slice(128, 256), slice(256, 300),
                                  slice(290, 400)])
def test_phi1_matrix_rows_are_rows_of_full_matrix(rows):
    g = LogGrid(-8.0, 10.0, 300)
    ker = KernelK1(1, 2.0, 2)
    full = phi1_matrix(g, ker)
    assert phi1_matrix(g, ker, rows=rows).tobytes() == full[rows].tobytes()


def test_phi1_coarse_grid_single_panel_blocks():
    # A+ h = 90.7 per panel: a block of 8 panels would underflow its cumulative
    # product, so blocks shrink to 3 panels; against the dense matrix and a
    # sequential loop over the two recurrences
    g = LogGrid(-40.0, 40.0, 16)
    ker = KernelK1(8, 2.0, 2)
    assert len(_Phi1Plan(g, ker).forward.blocks) == 5
    rng = np.random.default_rng(12)
    x = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    out = apply_phi1(ModeFunction(8, g, x), ker).samples
    np.testing.assert_allclose(out, phi1_matrix(g, ker) @ x, rtol=1e-13, atol=0)
    y = g.h * x
    y[[0, -1]] *= 0.5
    dm, dp = np.exp(-ker.A_minus * g.h), np.exp(-ker.A_plus * g.h)
    back, fwd = np.zeros(g.n, dtype=complex), np.zeros(g.n, dtype=complex)
    for i in range(g.n - 2, -1, -1):
        back[i] = dm * (y[i + 1] + back[i + 1])
    for i in range(1, g.n):
        fwd[i] = dp * (y[i - 1] + fwd[i - 1])
    np.testing.assert_allclose(out, y + back + fwd, rtol=1e-13, atol=0)


def test_phi1_rejects_a_grid_too_coarse_for_the_kernel():
    # A+ h = 709 per panel: e^{-A+ h} of one panel is no longer a normal double
    g = LogGrid(-40.0, 40.0, 16)
    with pytest.raises(ValueError, match="too coarse"):
        apply_phi1(ModeFunction(66, g, np.ones(g.n)), KernelK1(66, 2.0, 2))


# decay per panel 0.01: one block; 40: blocks of 7 panels; 300 to 700: single panels
@pytest.mark.parametrize("decay, nblocks", [(0.01, 1), (40.0, 29), (300.0, 200), (450.0, 200),
                                            (MAX_PANEL_DECAY, 200)])
@pytest.mark.parametrize("weighted", [True, False])
def test_recurrence_matches_a_sequential_loop(decay, nblocks, weighted):
    # S_i = w_i P_i + D_i S_{i+1}, S_npan = 0, with |D| = e^{-decay} and random phases
    npan = 200
    rng = np.random.default_rng(17)
    D = np.exp(-decay + 1j * rng.uniform(0.0, 2 * np.pi, npan))
    w = rng.uniform(0.5, 2.0, npan) if weighted else np.ones(npan)
    P = rng.standard_normal(npan) + 1j * rng.standard_normal(npan)
    rec = _Recurrence(D, decay)
    assert len(rec.blocks) == nblocks
    S = (rec.fold(w) if weighted else rec.fold()) * P
    rec.sweep(S)
    want = np.zeros(npan + 1, dtype=complex)
    for i in range(npan - 1, -1, -1):
        want[i] = w[i] * P[i] + D[i] * want[i + 1]
    # relative to the solution's norm: a single entry can cancel to far below its terms
    assert np.linalg.norm(S - want[:-1]) <= 1e-13 * np.linalg.norm(want)


def test_recurrence_rejects_a_decay_past_the_doubles():
    D = np.full(8, 1e-300)
    with pytest.raises(ValueError, match="too coarse"):
        _Recurrence(D, np.nextafter(MAX_PANEL_DECAY, math.inf))


def test_phi1_plan_reuse_leaves_earlier_results():
    g = LogGrid(-40.0, 40.0, 4097)
    ker = KernelK1(8, 2.0, 2)
    plan = _Phi1Plan(g, ker)
    rng = np.random.default_rng(14)
    x1, x2 = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(2))
    a1 = plan(x1)
    kept = a1.copy()
    a2 = plan(x2)
    np.testing.assert_array_equal(a1, kept)
    np.testing.assert_array_equal(a2, _Phi1Plan(g, ker)(x2))


def test_phi1_young_bound_randomized():
    g = LogGrid(-40.0, 40.0, 2049)
    rng = np.random.default_rng(11)
    for (k, q, m) in [(1, 2.0, 2), (2, 2.5, 2), (1, 3.0, 3)]:
        ker = KernelK1(k, q, m)
        bound = 2.0 / ker.A_minus
        for _ in range(100):
            fn = ModeFunction(k, g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
            ratio = lq_norm(apply_phi1(fn, ker), q) / lq_norm(fn, q)
            assert ratio <= bound * (1 + 1e-6)


def test_phi1_plan_near_its_young_bound():
    # a wide smooth input nearly attains the plan's norm, where white noise
    # reaches about a quarter of it: at q = 2 the ratio is the trapezoid row sum
    # h (1 + 1/expm1(A+ h) + 1/expm1(A- h)), 0.949 of 2/A- at k = 8 on this grid
    g = LogGrid(-YOUNG_T, YOUNG_T, YOUNG_N)
    x = np.exp(-(g.nodes / 10.0) ** 2).astype(complex)
    for q, _ in YOUNG_LATTICE:
        for k in LATTICE_K:
            ker = KernelK1(k, q, 2)
            ratio = lq_norm_samples(_Phi1Plan(g, ker)(x), g.h, q) / lq_norm_samples(x, g.h, q)
            assert ratio <= 2.0 / ker.A_minus, (q, k)
            if q == 2.0:
                row_sum = g.h * (1.0 + 1.0 / np.expm1(ker.A_plus * g.h)
                                 + 1.0 / np.expm1(ker.A_minus * g.h))
                assert ratio == pytest.approx(row_sum, rel=1e-2), k


def test_phi1_plan_row_sums_on_the_young_grid():
    # K1 > 0, so the plan applied to ones is its row-sum vector, and the largest
    # entry is its infinity norm.  At the centre node that is the trapezoid row
    # sum h (1 + 1/expm1(A+ h) + 1/expm1(A- h)).  It stays below the continuous
    # Young bound 2/A- on every lattice kernel and exceeds it once m k h
    # reaches about 0.6, so larger k needs a finer grid than the Young grid
    g = LogGrid(-YOUNG_T, YOUNG_T, YOUNG_N)
    ones = np.ones(g.n, dtype=complex)

    def ratio_to_bound(m, k, q):
        ker = KernelK1(k, q, m)
        sums = _Phi1Plan(g, ker)(ones)
        centre = g.h * (1.0 + 1.0 / math.expm1(ker.A_plus * g.h)
                        + 1.0 / math.expm1(ker.A_minus * g.h))
        assert sums[g.n // 2] == pytest.approx(centre, rel=1e-8), (m, k, q)
        return np.abs(sums).max() / (2.0 / ker.A_minus)

    ratios = {(q, k): ratio_to_bound(2, k, q) for q, _ in YOUNG_LATTICE for k in LATTICE_K}
    assert max(ratios, key=ratios.get) == (2.0, 8)
    assert ratios[2.0, 8] == pytest.approx(0.9488, abs=1e-4)
    assert ratio_to_bound(2, 16, 2.0) == pytest.approx(1.0010, abs=1e-4)
    assert ratio_to_bound(6, 8, 2.0) == pytest.approx(1.0503, abs=1e-4)


def test_phi1_zero():
    g = LogGrid(-5.0, 5.0, 65)
    z = ModeFunction(1, g, np.zeros(g.n))
    assert np.all(apply_phi1(z, KernelK1(1, 2.0, 2)).samples == 0)


def test_psi_from_u_inverts_second_order_relation():
    g = LogGrid(-40.0, 40.0, 32769)
    U = gaussian_mode(g)
    psi = psi_from_U(U, P)
    back = second_order_relation(psi, P)
    err = np.abs(back.samples - U.samples)[2:-2]
    rel = np.sqrt(g.h * np.sum(err**2)) / lq_norm(U, 2.0)
    assert rel < 1e-5


def test_psi_from_u_trivial_and_errors():
    g = LogGrid(-5.0, 5.0, 65)
    z = ModeFunction(1, g, np.zeros(g.n))
    assert np.all(psi_from_U(z, P).samples == 0)
    with pytest.raises(ValueError):
        psi_from_U(ModeFunction(0, g, np.zeros(g.n)), P)


def test_psi_tail_slopes():
    # compactly supported U: psi ~ e^{-A+ t} to the right, e^{A- t} to the left
    g = LogGrid(-30.0, 30.0, 4001)
    U = gaussian_mode(g, width=0.5)
    psi = psi_from_U(U, P)
    t = g.nodes
    right = (t > 4) & (t < 12)
    left = (t < -4) & (t > -12)
    sr = np.polyfit(t[right], np.log(np.abs(psi.samples[right])), 1)[0]
    sl = np.polyfit(t[left], np.log(np.abs(psi.samples[left])), 1)[0]
    ker = KernelK1(1, 2.0, 2)
    assert sr == pytest.approx(-ker.A_plus, rel=1e-3)
    assert sl == pytest.approx(ker.A_minus, rel=1e-3)
