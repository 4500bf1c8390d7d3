import numpy as np
import pytest

from ssvortex.params import (
    PHYSICAL,
    SELF_SIMILAR,
    FieldSample,
    SelfSimilarPoint,
    VortexParams,
    map_field,
    omega_bar,
    v_bar,
)


def test_a0_values():
    assert VortexParams(alpha=0.5, q=2.0).a0 == pytest.approx(-1.0)
    assert VortexParams(alpha=0.5, q=4.0).a0 == pytest.approx(0.0)
    assert VortexParams(alpha=0.25, q=2.0).a0 == pytest.approx(-3.0)


def test_a0_sign_sweep():
    for alpha in np.linspace(0.05, 0.95, 19):
        for q in np.linspace(2.0, 2.0 / alpha, 7):
            p = VortexParams(alpha=float(alpha), q=float(q))
            assert p.a0 <= 1e-12
            if abs(q - 2.0 / alpha) < 1e-12:
                assert p.a0 == pytest.approx(0.0, abs=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        VortexParams(alpha=1.0)
    with pytest.raises(ValueError):
        VortexParams(alpha=0.5, q=1.5)
    with pytest.raises(ValueError):
        VortexParams(alpha=0.5, q=5.0)  # q > 2/alpha
    with pytest.raises(ValueError):
        VortexParams(alpha=0.5, m=1)


def test_omega_bar_values():
    assert omega_bar(1.0, VortexParams(alpha=0.5, beta=1.0)) == pytest.approx(1.5)
    assert omega_bar(4.0, VortexParams(alpha=0.5, beta=1.0)) == pytest.approx(0.75)
    assert omega_bar(1.0, VortexParams(alpha=0.5, beta=0.0)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        omega_bar(0.0, VortexParams(alpha=0.5))


def test_v_bar_values():
    assert v_bar(1.0, VortexParams(alpha=0.5, beta=1.0)) == pytest.approx(1.0)
    assert v_bar(4.0, VortexParams(alpha=0.5, beta=2.0)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        v_bar(-1.0, VortexParams(alpha=0.5))


def test_curl_consistency():
    # (1/rho) d(rho * v_bar)/drho recovers omega_bar; 4th-order differences
    p = VortexParams(alpha=0.5, beta=1.0)
    for j in range(-10, 11):
        rho = 2.0**j
        h = 1e-3 * rho
        vals = np.array([rho + i * h for i in (-2, -1, 1, 2)])
        rv = vals * v_bar(vals, p)
        d = (rv[0] - 8 * rv[1] + 8 * rv[2] - rv[3]) / (12 * h)
        assert d / rho == pytest.approx(omega_bar(rho, p), rel=1e-6)


def test_curl_value_at_two():
    p = VortexParams(alpha=0.5, beta=1.0)
    assert omega_bar(2.0, p) == pytest.approx(1.5 * 2**-0.5, rel=1e-12)


def test_map_field_identity_at_t1():
    p = VortexParams(alpha=0.5)
    s = FieldSample(2.5, [1.0, -2.0], "vorticity", PHYSICAL)
    out = map_field(s, 1.0, "to_ss", p)
    assert out.value == pytest.approx(2.5)
    np.testing.assert_allclose(out.position, s.position)


def test_map_field_self_similar_ansatz():
    # omega(x, t) = g(x t^{-1/alpha}) / t maps to Omega(xi) = g(xi) for any t
    p = VortexParams(alpha=0.5)
    g = lambda xi: np.exp(-np.sum(xi**2))
    for t in (0.2, 1.0, 7.3):
        x = np.array([0.7, -1.1])
        xi = x * t ** (-1.0 / p.alpha)
        s = FieldSample(g(xi) / t, x, "vorticity", PHYSICAL)
        out = map_field(s, t, "to_ss", p)
        assert out.value == pytest.approx(g(out.position), rel=1e-12)


def test_map_field_round_trip():
    p = VortexParams(alpha=0.37)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        t = float(np.exp(rng.uniform(-3, 3)))
        kind = "vorticity" if rng.random() < 0.5 else "velocity"
        value = rng.normal() if kind == "vorticity" else rng.normal(size=2)
        s = FieldSample(value, rng.normal(size=2), kind, PHYSICAL)
        back = map_field(map_field(s, t, "to_ss", p), t, "to_phys", p)
        np.testing.assert_allclose(back.position, s.position, rtol=1e-13)
        np.testing.assert_allclose(np.asarray(back.value), np.asarray(s.value), rtol=1e-13)


def test_map_field_errors():
    p = VortexParams(alpha=0.5)
    s = FieldSample(1.0, [1.0, 0.0], "vorticity", PHYSICAL)
    with pytest.raises(ValueError):
        map_field(s, -1.0, "to_ss", p)
    with pytest.raises(ValueError):
        map_field(s, 1.0, "to_phys", p)  # frame mismatch
    with pytest.raises(ValueError):
        map_field(s, 1.0, "sideways", p)


def test_self_similar_point_round_trip():
    pt = SelfSimilarPoint.from_physical([3.0, 4.0], 2.0, alpha=0.5)
    x, t = pt.to_physical(alpha=0.5)
    np.testing.assert_allclose(x, [3.0, 4.0], rtol=1e-14)
    assert t == pytest.approx(2.0)
    polar = SelfSimilarPoint.from_polar(pt.rho, pt.theta, pt.tau)
    np.testing.assert_allclose(polar.xi, pt.xi, rtol=1e-12)
