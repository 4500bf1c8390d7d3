import math

import numpy as np
import pytest

from ssvortex.homogeneous import (
    INCONCLUSIVE,
    NO_INTEGRABLE,
    SeriesError,
    homo2_defect,
    homo2_params,
    hyp2f2_regularized,
    q_frak,
    shoot_homogeneous,
)
from ssvortex.params import VortexParams

P = VortexParams(alpha=0.5, beta=1.0, m=2, q=2.0)  # a0 = -1


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
    cases = [
        homo2_params(P, 1, 0.0),
        homo2_params(P, 1, 0.5),
        homo2_params(VortexParams(alpha=0.8, beta=1.0, m=2, q=2.5), 2, 1.0),
    ]
    zs = np.linspace(0.1, 2.0, 10)
    for hp in cases:
        assert homo2_defect(hp, zs) < 1e-6


def test_shoot_k0_analytic():
    r = shoot_homogeneous(P, 0, 0.0)
    assert r.verdict == NO_INTEGRABLE
    assert r.mismatch == 1.0


def test_shoot_rejects_lambda_left_of_a0():
    with pytest.raises(ValueError):
        shoot_homogeneous(P, 1, -1.5)


def test_shoot_k1_no_integrable_solution():
    r = shoot_homogeneous(P, 1, -0.5)
    assert r.verdict == NO_INTEGRABLE
    assert r.mismatch > 1e-3


def test_shoot_complex_lambda_grid_sample():
    for lam in (-0.2 + 1.0j, 1.0 - 2.0j):
        r = shoot_homogeneous(P, 2, lam)
        assert r.verdict == NO_INTEGRABLE
