"""Negative controls: each verdict must fail on an operator known to violate it.

A case injects a known defect through monkeypatch, with no option or config
key, and asserts that the verdict flips.  It prints its margin, the smallest
defect that flips the verdict; run with `pytest -s` to see it.  A verdict
that cannot flip yet is a strict expected failure naming the ROADMAP item that
would let it.
"""

import numpy as np
import pytest

from ssvortex import resolvent, suites
from ssvortex.generator import EPS_DISC, GeneratorMatrix, eig_scan
from ssvortex.modes import LogGrid
from ssvortex.resolvent import RESIDUAL_TOL
from ssvortex.suites import DEFAULT_PARAMS

SCAN_GRID = LogGrid(-12.0, 12.0, 256)
# the K1 mode's matrix is far from normal: a shift by s moves its computed top
# eigenvalue by s only to within about 0.2 (less than 1e-13 at k = 0), so the
# verdict is checked this far either side of the margin
SHIFT_SLACK = 0.5
# a shift of the generator by s moves each fitted semigroup rate by s to within
# 1e-6, so the verdict is checked this far either side of the margin
SEMIGROUP_SLACK = 1e-3


@pytest.mark.parametrize("k", [0, 1])
def test_spectrum_fails_once_the_generator_is_shifted_past_a0(monkeypatch, k):
    # adding s to the diagonal of the dense generator moves every eigenvalue
    # right by s; once the top one crosses a0 + EPS_DISC the scan must fail
    unshifted = GeneratorMatrix.dense

    def scan(s):
        def shifted(gen):
            A = unshifted(gen)
            A.flat[::A.shape[0] + 1] += s
            return A

        monkeypatch.setattr(GeneratorMatrix, "dense", shifted)
        return eig_scan([k], DEFAULT_PARAMS, SCAN_GRID)

    base = scan(0.0)
    assert base["passed"]
    margin = DEFAULT_PARAMS.a0 + EPS_DISC - base["modes"][0]["max_re"]
    print(f"spectrum control, k = {k}: the verdict flips at a diagonal shift of {margin:.3f}")
    assert scan(margin - SHIFT_SLACK)["passed"]
    shifted = scan(margin + SHIFT_SLACK)
    assert shifted["modes"][0]["n_flagged"] > 0
    assert not shifted["passed"]


def test_semigroup_fails_once_the_generator_is_shifted(monkeypatch, small_all_config):
    # apply() returning L U + s U moves every fitted rate right by s (to within
    # 1e-6 at these grids), so each semigroup check flips where its rate crosses
    # its threshold
    cfg = small_all_config("semigroup")
    unshifted = GeneratorMatrix.apply

    def verdicts(s):
        monkeypatch.setattr(GeneratorMatrix, "apply", lambda gen, U: unshifted(gen, U) + s * U)
        summary, _, _ = suites.suite_semigroup(cfg)
        return summary["checks"]

    radial, below = verdicts(0.0)
    assert radial["passed"] and below["passed"]
    margins = {"radial_mode_rate_sharp": radial["tolerance"] - (radial["fitted"] - radial["target"]),
               "all_modes_below_threshold": below["threshold"] - max(below["rates"].values())}
    for i, (name, margin) in enumerate(margins.items()):
        print(f"semigroup control, {name}: the verdict flips at a shift of {margin:.5f}")
        assert verdicts(margin - SEMIGROUP_SLACK)[i]["passed"]
        assert not verdicts(margin + SEMIGROUP_SLACK)[i]["passed"]


def test_residuals_fail_once_the_solution_is_perturbed(monkeypatch, small_all_config):
    # the residual is linear in U: adding eps b, for a bump b inside the
    # resolvable zone, adds eps times b's own residual R_k to each row.  On
    # 2^15 + 1 nodes every row passes (the default 4097 already fails).  By the
    # triangle inequality the check must pass while eps R_k stays below the
    # tolerance less the base residual, and fail once some eps R_k exceeds the
    # tolerance plus it
    cfg = small_all_config("residuals", fine_n=2**15 + 1, lambda_offsets=(1.0,))
    unperturbed = suites.ode_residual

    def rows(eps):
        def perturbed(U, G, lam, p):
            bump = np.exp(-(U.grid.nodes - 5.0) ** 2)
            return unperturbed(U.with_samples(U.samples + eps * bump), G, lam, p)

        monkeypatch.setattr(suites, "ode_residual", perturbed)
        checks, rows = suites._residual_checks(cfg)
        return checks[0]["passed"], [r["value"] for r in rows]

    ok, base = rows(0.0)
    assert ok
    # at eps = 1 the base residual (below 1e-6) is lost beside the bump's (about 2)
    tol, own = RESIDUAL_TOL, max(rows(1.0)[1])
    print(f"residual control: the verdict flips near eps = {tol / own:.3g}")
    assert rows(0.99 * (tol - max(base)) / own)[0]
    assert not rows(1.01 * (tol + max(base)) / own)[0]


def test_iteration_budget_fails_once_the_shortcut_map_is_scaled(monkeypatch, small_all_config):
    # the certificate iterates U <- U0 + coef Phi1(U); scaling the K1 plan it
    # reads by f scales the map's factor by f, past what its budget allows
    cfg = small_all_config("contraction")
    plan = resolvent._Phi1Plan

    def budget(f):
        class Scaled(plan):
            def __call__(self, samples, out=None):
                result = super().__call__(samples, out)
                result *= f
                return result

        monkeypatch.setattr(resolvent, "_Phi1Plan", Scaled)
        checks, rows = suites._contraction_checks(cfg)
        ratio = max(r["value"] / r["bound"] for r in rows if r["check"] == "picard_iterations")
        print(f"iteration-budget control: at f = {f} the worst steps/budget ratio is {ratio:.2f}")
        return checks[1]

    assert budget(1.0)["passed"]
    assert budget(1.5)["passed"]
    assert not budget(2.0)["passed"]


# scaled by 1.1, K1's exact norm is past 2/A- (today 0.9488 of it at most) and
# K2's past 1/Re B (0.974-0.998 of it), but white-noise draws read only about
# 0.27 and 0.11 of the bounds, so neither check can see it
@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the Young checks bound white-noise"
                   " ratios, which read 0.27 (K1) and 0.11 (K2) of the bounds; deterministic"
                   " brackets would fail on a plan scaled by 1.1")
@pytest.mark.parametrize("plan, check", [("_Phi1Plan", "young_phi1_lattice"),
                                         ("_ScanPlan", "young_phi2_lattice")])
def test_young_fails_once_a_plan_is_scaled(monkeypatch, small_all_config, plan, check):
    cfg = small_all_config("young")
    unscaled = getattr(suites, plan)

    class Scaled(unscaled):
        def __call__(self, samples, out=None):
            result = super().__call__(samples, out)
            result *= 1.1
            return result

    monkeypatch.setattr(suites, plan, Scaled)
    checks, _ = suites._young_checks(cfg)
    verdict = next(c for c in checks if c["name"] == check)
    print(f"Young control, {check}: worst ratio to bound {verdict['worst_ratio_to_bound']:.3f}")
    assert not verdict["passed"]
