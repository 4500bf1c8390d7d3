"""The parameter quadruple (alpha, beta, m, q) of the power-law vortex.

The background flow is the radial vortex with vorticity ``beta*(2-alpha)*rho**(-alpha)``
and azimuthal velocity ``beta*rho**(1-alpha)``.  In the self-similar variables
``xi = x * t**(-1/alpha)``, ``tau = log(t)``, with amplitudes ``t*omega`` and
``t**(1-1/alpha)*v``, it is stationary.  Linearized about it, mode k acts on
the weighted vorticity samples U(t), t = log r, by

    L_k U = (1/alpha) U' + a0 U - i c_k e^{-alpha t} U + i kappa e^{-alpha t} Phi1(U),

with c_k = m k beta (``VortexParams.phase_amplitude``) and
kappa = alpha (2 - alpha) beta / 2 (``VortexParams.coupling``); Phi1 is the K1
convolution of ``modes``.  The generator, the resolvent solve, its residual
and the shooting system read both coefficients from here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


def _number(name: str, value, integer: bool):
    """``value`` as a finite float, or as an int if ``integer`` (an integral
    float such as 2.0 counts); anything else, text included (only the config
    reader parses text), raises ValueError naming ``name``."""
    try:
        x = math.nan if isinstance(value, str) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if integer:
        return value if isinstance(value, int) else int(x)
    return x


def _mode_index(k, least: int = 0) -> int:
    """``k`` as an int of at least ``least`` by ``_number``'s integer rule, or ValueError."""
    k = _number("k", k, integer=True)
    if k < least:
        raise ValueError(f"k must be an integer >= {least}, got {k}")
    return k


def _complex(value) -> complex:
    """``value`` as a complex number; text raises ValueError, as in ``_number``."""
    if isinstance(value, str):
        raise ValueError(f"{value!r} is text, not a complex number")
    return complex(value)


def _spectral_point(params: VortexParams, lam) -> complex:
    """``lam`` as a complex number (``_complex``), finite and right of
    ``params.a0``, or ValueError."""
    lam = _complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if not lam.real > params.a0:
        raise ValueError(f"Re(lambda) = {lam.real:.6g} must exceed a0 = {params.a0:.6g}")
    return lam


@dataclass(frozen=True)
class VortexParams:
    """Parameter quadruple governing every computation.

    Args:
        alpha: radial decay exponent of the vorticity profile, in (0, 1).
        beta: profile amplitude (any real).
        m: rotational symmetry fold, integer >= 2.
        q: Lebesgue exponent with 2 <= q <= 2/alpha.
    """

    alpha: float
    beta: float = 1.0
    m: int = 2
    q: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "m", "q"):
            object.__setattr__(self, name, _number(name, getattr(self, name), name == "m"))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m}")
        if not 2.0 <= self.q <= 2.0 / self.alpha:
            raise ValueError(
                f"q must satisfy 2 <= q <= 2/alpha = {2.0 / self.alpha:.6g}, got {self.q}"
            )

    @property
    def a0(self) -> float:
        """Stability exponent 1 - 2/(alpha*q); never positive for valid parameters."""
        return 1.0 - 2.0 / (self.alpha * self.q)

    def phase_amplitude(self, k):
        """c_k = m k beta, for an int or array ``k``: the phase rate of mode k's operator."""
        return self.m * k * self.beta

    @property
    def coupling(self) -> float:
        """kappa = alpha (2 - alpha) beta / 2: the factor of e^{-alpha t} Phi1(U) in L_k."""
        return self.alpha * (2.0 - self.alpha) * self.beta / 2.0
