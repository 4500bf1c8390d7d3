import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.linalg.lapack import zgebal, zlange

from ssvortex import generator
from ssvortex.generator import (
    assemble_generator,
    eig_scan,
    evolve,
    growth_fit,
    stable_dt,
)
from ssvortex.modes import KernelK1, LogGrid, ModeFunction, k1_eval, lq_norm_samples, phi1_matrix
from ssvortex.params import VortexParams
from ssvortex.resolvent import solve_mode

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1
# (alpha, beta, m, q, k) beyond the default vortex, up to k = 8
OPERATOR_CASES = [
    (0.5, 1.0, 2, 2.0, 0), (0.5, 1.0, 2, 2.0, 1), (0.5, 1.0, 2, 2.0, 8),
    (0.5, -1.0, 2, 4.0, 1),    # critical line q = 2/alpha, negative beta
    (0.8, 1.0, 3, 2.5, 1), (0.8, 1.0, 3, 2.5, 8)]
# the generators without a K1 block (k = 0 or beta = 0), whose eigenvalues
# eig_scan takes without zgeev's Hessenberg reduction
K1_FREE_CASES = [c for c in OPERATOR_CASES if c[4] == 0 or c[1] == 0.0] + [(0.5, 0.0, 2, 2.0, 2)]


def test_k0_matrix_is_drift_plus_constant():
    g = LogGrid(-5.0, 5.0, 64)
    gen = assemble_generator(0, P, g)
    # remove the diagonal constant a0 and what is left must be the pure drift,
    # identical to the beta = 0 assembly for any k
    drift = gen.dense() - P.a0 * np.eye(g.n)
    assert np.allclose(drift.imag, 0.0)
    p0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
    gen_b0 = assemble_generator(3, p0, g)
    np.testing.assert_allclose(gen_b0.dense(), gen.dense(), rtol=0, atol=0)


def test_generator_action_matches_analytic_formula():
    # U Gaussian: drift and multiplication terms analytic, coupling by quadrature
    g = LogGrid(-4.0, 10.0, 4097)
    t = g.nodes
    gen = assemble_generator(1, P, g)
    U = np.exp(-(t - 2.0) ** 2)
    action = gen.dense() @ U.astype(complex)
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
    mism = gen.dense() @ sol.U.samples - lam * sol.U.samples - G.samples
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
        G = ModeFunction(k, g, np.exp(-g.nodes**2))
        gen = assemble_generator(k, p, g)
        for off in (0.3, 1.0, 1.5):
            lam = p.a0 + off + (0.5j if off == 1.0 else 0.0)
            sol = solve_mode(G, lam, p)
            rel = _masked_consistency(gen, sol, G, p, k, lam)
            assert rel < 1e-4, (p, k, lam, rel)


def test_generator_resolvent_consistency_tight_example():
    g = LogGrid(-6.0, 10.0, 4097)
    G = ModeFunction(1, g, np.exp(-g.nodes**2))
    sol = solve_mode(G, 0.5, P)
    gen = assemble_generator(1, P, g)
    mism = gen.dense() @ sol.U.samples - 0.5 * sol.U.samples - G.samples
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
    tr = evolve(U0, 5.0, gen=gen)
    expect = tr.norms[0] * np.exp(P.a0 * tr.times)
    np.testing.assert_allclose(tr.norms, expect, rtol=1e-3)
    assert abs(tr.fitted_rate - P.a0) < 1e-2


def test_evolve_zero_initial_data():
    g = LogGrid(-6.0, 6.0, 256)
    gen = assemble_generator(0, P, g)
    tr = evolve(np.zeros(g.n), 1.0, gen=gen)
    assert np.all(tr.norms == 0.0)
    assert np.isnan(tr.fitted_rate)


@pytest.mark.parametrize("alpha, beta, m, q, k", OPERATOR_CASES)
def test_stable_dt_inside_rk4_region(alpha, beta, m, q, k):
    # the step limit comes from a cheap spectral-radius estimate; every
    # eigenvalue of the generator times that step must lie in RK4's stability
    # region |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1 (measured: 0.61 at k = 0,
    # up to 0.998 at alpha = 0.8, m = 3)
    gen = assemble_generator(k, VortexParams(alpha=alpha, beta=beta, m=m, q=q),
                             LogGrid(-8.0, 10.0, 512))
    z = stable_dt(gen) * np.linalg.eigvals(gen.dense())
    assert np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max() <= 1.0


@pytest.mark.parametrize("alpha, beta, m, q, k",
                         OPERATOR_CASES + [(0.5, 0.0, 2, 2.0, 3)])  # beta = 0: no coupling
def test_generator_apply_matches_dense(alpha, beta, m, q, k):
    # the O(n) operator against its dense matrix, the oracle
    gen = assemble_generator(k, VortexParams(alpha=alpha, beta=beta, m=m, q=q),
                             LogGrid(-8.0, 10.0, 512))
    rng = np.random.default_rng(k)
    L = gen.dense()
    for _ in range(3):
        U = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        dense = L @ U
        assert np.abs(gen.apply(U) - dense).max() <= 1e-13 * np.abs(dense).max()


def _entries_one_shot(gen):
    # the dense matrix as one whole-matrix formula: the drift stencil as a
    # real matrix over h, scaled, plus the diagonal, plus the full coupling
    n, h, p = gen.grid.n, gen.grid.h, gen.params
    D = np.zeros((n, n))
    rows = np.arange(1, n - 2)
    for off, c in generator.DRIFT_INTERIOR:
        D[rows, rows + off] = c
    for row, stencil in generator.DRIFT_EDGES:
        for off, c in stencil:
            D[row % n, row % n + off] = c
    L = (1.0 / p.alpha) * (D / h).astype(complex)
    idx = np.arange(n)
    L[idx, idx] += gen.diag
    if gen.plan is not None:
        L += gen.coup[:, None] * phi1_matrix(gen.grid, KernelK1(gen.k, p.q, p.m))
    return L


@pytest.mark.parametrize("n", [100, 300])  # each ends in a partial row block
@pytest.mark.parametrize("alpha, beta, m, q, k",
                         OPERATOR_CASES + [(0.5, 0.0, 2, 2.0, 3)])
def test_entries_match_one_shot_formula(alpha, beta, m, q, k, n):
    # the row-block build performs the same operations per entry, so the bytes agree
    gen = assemble_generator(k, VortexParams(alpha=alpha, beta=beta, m=m, q=q),
                             LogGrid(-8.0, 10.0, n))
    assert gen.dense().tobytes() == _entries_one_shot(gen).tobytes()


def test_entries_match_one_shot_formula_on_scan_grid():
    # the spectrum suite's grid, one point short so that the last block is partial
    gen = assemble_generator(1, P, LogGrid(-12.0, 12.0, 2047))
    assert gen.grid.n % generator._ENTRY_BLOCK_ROWS
    assert gen.dense().tobytes() == _entries_one_shot(gen).tobytes()


@pytest.mark.parametrize("k, bound", [(0, 1.1), (1, 1.05)])
def test_entries_peak_memory(k, bound, traced):
    # the build holds the n x n result and one 16-row block of temporaries
    # (1.00x and 1.02x measured, against 1.50x and 3.06x for the one-shot formula)
    gen = assemble_generator(k, P, LogGrid(-12.0, 12.0, 2048))
    _, _, peak = traced(gen.dense)
    assert peak <= bound * 16 * gen.grid.n**2


def _hessenberg_premise(L):
    # what eig_scan's K1-free shortcut relies on: zgehrd is the identity on an
    # upper Hessenberg matrix with a real subdiagonal, and zgebal must not
    # permute it (ilo = 1, ihi = n)
    n = L.shape[0]
    sub = np.diagonal(L, -1)
    _, lo, hi, _, info = zgebal(L.copy(order="F"), scale=1, permute=1)
    return {"below_subdiagonal": not np.any(np.tril(L, -2)),
            "subdiagonal_real": not np.any(sub.imag),
            "subdiagonal_nonzero": bool(np.all(sub != 0.0)),
            "not_permuted": info == 0 and (lo, hi) == (0, n - 1)}


@pytest.mark.parametrize("n", [64, 300])
@pytest.mark.parametrize("alpha, beta, m, q, k", K1_FREE_CASES)
def test_k1_free_matrix_is_unpermuted_hessenberg(alpha, beta, m, q, k, n):
    gen = assemble_generator(k, VortexParams(alpha=alpha, beta=beta, m=m, q=q),
                             LogGrid(-8.0, 10.0, n))
    assert gen.plan is None
    premise = _hessenberg_premise(gen.dense())
    assert all(premise.values()), premise


def test_hessenberg_premise_fails_for_a_second_subdiagonal(monkeypatch):
    # an upwind stencil reaching two nodes left would put entries below the
    # first subdiagonal, and the premise check must see them
    interior = ((-2, 0.1),) + generator.DRIFT_INTERIOR[1:]
    monkeypatch.setattr(generator, "DRIFT_INTERIOR", interior)
    premise = _hessenberg_premise(assemble_generator(0, P, LogGrid(-8.0, 10.0, 64)).dense())
    assert not premise["below_subdiagonal"]


@pytest.mark.parametrize("k", [0, 1])
def test_evolve_matches_dense_rk4(k):
    # classical RK4 written out on the dense matrix, at evolve's own step
    g = LogGrid(-8.0, 10.0, 256)
    gen = assemble_generator(k, P, g)
    U = np.exp(-(g.nodes - 6.0) ** 2).astype(complex)
    tr = evolve(U, 5.0, gen=gen)
    assert tr.steps == math.ceil(5.0 / stable_dt(gen))
    L, dt = gen.dense(), 5.0 / tr.steps
    norms = [lq_norm_samples(U, g.h, P.q)]
    for _ in range(tr.steps):
        k1 = L @ U
        k2 = L @ (U + 0.5 * dt * k1)
        k3 = L @ (U + 0.5 * dt * k2)
        k4 = L @ (U + dt * k3)
        U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms.append(lq_norm_samples(U, g.h, P.q))
    sampled = np.asarray(norms)[np.rint(tr.times / dt).astype(int)]
    np.testing.assert_allclose(tr.norms, sampled, rtol=1e-12, atol=0)
    assert tr.fitted_rate == pytest.approx(growth_fit(tr.times, sampled), rel=1e-12)


def test_evolve_k1_rate_below_threshold():
    g = LogGrid(-8.0, 10.0, 1024)
    gen = assemble_generator(1, P, g)
    U0 = np.exp(-(g.nodes - 6.0) ** 2)
    tr = evolve(U0, 5.0, gen=gen)
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


@pytest.mark.parametrize("offset, flags", [(0.5, 1), (-0.5, 0)])
@pytest.mark.parametrize("k, eigensolve", [(0, "_hessenberg_eigvals"), (1, "eigvals")])
def test_eig_scan_fails_on_a_flag(monkeypatch, k, eigensolve, offset, flags):
    # no grid tried puts an eigenvalue right of a0, so plant one on the mode's
    # eigensolve path: a flag fails the scan, with nothing to excuse it
    planted = np.array([P.a0 - 3.0, P.a0 + offset], dtype=complex)
    monkeypatch.setattr(generator, eigensolve, lambda a, **kw: planted)
    rep = eig_scan([k], P, LogGrid(-8.0, 8.0, 64))
    (mode,) = rep["modes"]
    assert mode["max_re"] == P.a0 + offset
    assert mode["n_flagged"] == flags
    assert rep["passed"] is (flags == 0)


def test_eig_scan_eigenvalues_match_numpy_bytes(isolated):
    # eig_scan lets scipy's zgeev overwrite the matrix; the pinned spectrum
    # values (bench/reference.json's max_re) were made by numpy's eigvals on a
    # copy.  At one BLAS thread the two give the same bytes; at two threads
    # they differ from n = 128 up, and numpy's own k = 0 max_re at the
    # benchmark's n = 2048 is then -59.75, not the pinned -62.06, so the pinned
    # values are one-thread values and this check runs at one thread.  The
    # K1-free modes skip zgehrd; n = 128 is where handing zhseqr less than
    # zgeev's whole workspace changes the bytes
    code = """
import numpy as np
from ssvortex.generator import assemble_generator, eig_scan
from ssvortex.modes import LogGrid
from ssvortex.params import VortexParams
P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)
Q = VortexParams(alpha=0.8, beta=-1.0, m=3, q=2.5)
B0 = VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0)
for n in (128, 256, 512):
    g = LogGrid(-8.0, 10.0, n)
    for p, k in ((P, 0), (Q, 0), (B0, 2), (P, 1), (P, 8), (Q, 1)):
        ev = eig_scan([k], p, g)["modes"][0]["eigenvalues"]
        ref = np.linalg.eigvals(assemble_generator(k, p, g).dense())
        print(n, k, p.alpha, ev.tobytes() == ref.tobytes())
"""
    lines = isolated(code).split("\n")[:-1]
    assert len(lines) == 18
    assert all(line.endswith("True") for line in lines), lines


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("p, k", [(P, 0), (VortexParams(alpha=0.5, beta=0.0, m=2, q=2.0), 2)])
def test_k1_free_eigenvalues_match_scipy_bytes(p, k, n):
    # at the default BLAS threads: the path without zgehrd against zgeev
    g = LogGrid(-12.0, 12.0, n)
    ev = eig_scan([k], p, g)["modes"][0]["eigenvalues"]
    assert ev.tobytes() == scipy.linalg.eigvals(assemble_generator(k, p, g).dense()).tobytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("ks", [[0], [1], [0, 1]], ids=lambda ks: ",".join(map(str, ks)))
def test_eig_scan_peak_memory(ks, isolated):
    # the eigensolve works on the one matrix that dense() builds, with no n x n
    # temporary beside it: peak growth 1.16x, 1.23x and 1.22x of 16 n^2 bytes
    # measured for [0], [1] and [0,1], against over 2x when LAPACK gets a
    # copy; across modes, mode 0's matrix is gone before mode 1's is built.
    # The peak is VmHWM, not ru_maxrss: a child's
    # ru_maxrss starts at the high-water mark of the process that forked it
    code = f"""
from ssvortex.generator import eig_scan
from ssvortex.modes import LogGrid
from ssvortex.suites import DEFAULT_PARAMS
def hwm_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = hwm_kib()
eig_scan({ks}, DEFAULT_PARAMS, LogGrid(-12.0, 12.0, 1024))
print(hwm_kib() - before)
"""
    growth = 1024 * int(isolated(code))
    assert growth <= 1.35 * 16 * 1024**2, growth / (16 * 1024**2)


def test_eig_scan_non_finite_matrix_fails_the_mode(monkeypatch):
    # a NaN in the K1 block reaches the eigensolve's finite check: that mode
    # is reported failed, the scan does not pass, and nothing is raised
    def nan_block(grid, kernel, rows=slice(None)):
        block = phi1_matrix(grid, kernel, rows)
        block[0, 0] = np.nan
        return block

    monkeypatch.setattr(generator, "phi1_matrix", nan_block)
    rep = eig_scan([0, 1], P, LogGrid(-8.0, 8.0, 64))
    ok, bad = rep["modes"]
    assert "failed" not in ok and ok["max_re"] <= P.a0 + 1e-9
    assert "nan" in bad["failed"].lower() and "eigenvalues" not in bad
    assert not rep["passed"]


def test_eig_scan_non_finite_k1_free_matrix_fails_the_mode(monkeypatch):
    # a NaN in the k = 0 diagonal is caught before LAPACK: the mode is
    # reported failed and zhseqr never sees the matrix
    assemble = generator.assemble_generator

    def nan_diag(k, params, grid):
        gen = assemble(k, params, grid)
        return dataclasses.replace(gen, diag=np.where(np.arange(grid.n) == 5, np.nan, gen.diag))

    def zhseqr(H, lwork):
        raise AssertionError("zhseqr called on a non-finite matrix")

    monkeypatch.setattr(generator, "assemble_generator", nan_diag)
    monkeypatch.setattr(generator, "_zhseqr", zhseqr)
    rep = eig_scan([0], P, LogGrid(-8.0, 8.0, 64))
    (bad,) = rep["modes"]
    assert "infs or nans" in bad["failed"].lower() and "eigenvalues" not in bad
    assert not rep["passed"]


@pytest.mark.parametrize("entry", [(0, 0), (3, 4), (7, 7)], ids=["first", "middle", "last"])
def test_zlange_max_is_not_finite_for_a_non_finite_part(entry):
    # the finite check of both eigensolve paths rests on this: LAPACK's
    # max |entry| of a Fortran-ordered complex matrix is NaN for a NaN in
    # either part and inf for +inf or -inf in either part
    for bad, is_bad in ((np.nan, math.isnan), (np.inf, math.isinf), (-np.inf, math.isinf)):
        for value in (complex(bad, 0.5), complex(0.5, bad)):
            A = np.ones((8, 8), dtype=complex, order="F")
            A[entry] = value
            assert is_bad(zlange("M", A)), value


@pytest.mark.parametrize("k", [0, 1], ids=["k1_free", "k1"])
@pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(-np.inf, 0.0)],
                         ids=["nan_imag", "minus_inf"])
def test_eig_scan_non_finite_entry_never_reaches_the_eigensolve(monkeypatch, k, bad):
    # a NaN in an imaginary part only, or a -inf, on the diagonal: zlange's
    # max |entry| fails the mode on either path before LAPACK's eigensolve
    assemble = generator.assemble_generator

    def bad_diag(k, params, grid):
        gen = assemble(k, params, grid)
        diag = gen.diag.copy()
        diag[5] += bad
        return dataclasses.replace(gen, diag=diag)

    def eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve called on a non-finite matrix")

    monkeypatch.setattr(generator, "assemble_generator", bad_diag)
    monkeypatch.setattr(generator, "eigvals", eigensolve)
    monkeypatch.setattr(generator, "_zhseqr", eigensolve)
    rep = eig_scan([k], P, LogGrid(-8.0, 8.0, 64))
    (mode,) = rep["modes"]
    assert mode["failed"] == "array must not contain infs or NaNs"
    assert "eigenvalues" not in mode and not rep["passed"]


def test_eig_scan_zhseqr_info_fails_the_mode(monkeypatch):
    monkeypatch.setattr(generator, "_zhseqr",
                        lambda H, lwork: (np.full(H.shape[0], np.nan + 0j), 7))
    rep = eig_scan([0, 1], P, LogGrid(-8.0, 8.0, 64))
    bad, ok = rep["modes"]
    assert "did not converge" in bad["failed"] and "eigenvalues" not in bad
    assert "failed" not in ok and not rep["passed"]


def test_hessenberg_eigvals_refuses_what_zgeev_treats_otherwise():
    # the shortcut raises, never falls back, where zgeev's path would differ:
    # a matrix that balancing permutes, one that zgeev scales, and a LAPACK
    # whose zhseqr is not the LP64 routine the ctypes prototype declares
    with pytest.raises(RuntimeError, match="permuted"):
        generator._hessenberg_eigvals(np.asfortranarray(np.triu(np.ones((8, 8), complex))))
    huge = assemble_generator(0, P, LogGrid(-8.0, 8.0, 16)).dense() * 1e150
    with pytest.raises(RuntimeError, match="scaled"):
        generator._hessenberg_eigvals(huge)
    with pytest.raises(RuntimeError, match="signature"):
        generator._lapack_function("zhseqr", "void (long *)", generator._ZHSEQR_TYPE)


def test_dense_is_built_fresh_in_fortran_order():
    # nothing caches the matrix that eig_scan lets LAPACK overwrite
    gen = assemble_generator(1, P, LogGrid(-8.0, 8.0, 64))
    a, b = gen.dense(), gen.dense()
    assert a.flags.f_contiguous and a.dtype == complex
    assert not np.shares_memory(a, b)
    assert a.tobytes() == b.tobytes()
