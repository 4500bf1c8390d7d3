import numpy as np
import pytest

from ssvortex.params import VortexParams


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


# the background profiles in plain numpy: vorticity beta*(2-alpha)*|x|^{-alpha}
# and velocity beta*|x|^{1-alpha} e_theta = beta*|x|^{-alpha} (-x2, x1)
def omega(x, p):
    return p.beta * (2.0 - p.alpha) * np.linalg.norm(x, axis=-1) ** -p.alpha


def v(x, p):
    return p.beta * np.linalg.norm(x, axis=-1, keepdims=True) ** -p.alpha \
        * np.stack([-x[..., 1], x[..., 0]], axis=-1)


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.37, -2.0), (0.9, 0.3)])
def test_profile_stationarity(alpha, beta):
    # in xi = x t^{-1/alpha} with amplitudes t*omega and t^{1-1/alpha}*v the
    # background is the same field at every t
    p = VortexParams(alpha=alpha, beta=beta)
    xi = np.random.default_rng(42).normal(size=(200, 2))
    for t in (0.05, 0.2, 1.0, 7.3, 40.0):
        x = xi * t ** (1.0 / alpha)
        np.testing.assert_allclose(t * omega(x, p), omega(xi, p), rtol=1e-12)
        np.testing.assert_allclose(t ** (1.0 - 1.0 / alpha) * v(x, p), v(xi, p), rtol=1e-12)


def test_curl_consistency():
    # (1/rho) d(rho * v_theta)/drho recovers omega; 4th-order differences
    p = VortexParams(alpha=0.5, beta=1.0)
    e = np.array([1.0, 0.0])
    for j in range(-10, 11):
        rho = 2.0**j
        h = 1e-3 * rho
        vals = np.array([rho + i * h for i in (-2, -1, 1, 2)])
        rv = vals * v(vals[:, None] * e, p)[:, 1]
        d = (rv[0] - 8 * rv[1] + 8 * rv[2] - rv[3]) / (12 * h)
        assert d / rho == pytest.approx(omega(rho * e, p), rel=1e-6)


def test_curl_value_at_two():
    p = VortexParams(alpha=0.5, beta=1.0)
    assert omega(np.array([2.0, 0.0]), p) == pytest.approx(1.5 * 2**-0.5, rel=1e-12)
