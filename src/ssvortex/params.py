"""Power-law vortex profiles and the physical <-> self-similar coordinate maps.

The background flow is the radial vortex with vorticity ``beta*(2-alpha)*rho**(-alpha)``
and azimuthal velocity ``beta*rho**(1-alpha)``.  Self-similar variables are
``xi = x * t**(-1/alpha)``, ``tau = log(t)``, with amplitude scalings chosen so that
the profile is stationary in the new frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VORTICITY = "vorticity"
VELOCITY = "velocity"
PHYSICAL = "physical"
SELF_SIMILAR = "self_similar"

_KINDS = (VORTICITY, VELOCITY)
_FRAMES = (PHYSICAL, SELF_SIMILAR)


def _number(name: str, value, integer: bool):
    """``value`` as a finite float, or as an int if ``integer`` (an integral
    float such as 2.0 counts); anything else raises ValueError naming ``name``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if integer:
        return value if isinstance(value, int) else int(x)
    return x


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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "m", _number("m", self.m, integer=True))
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


def _power(rho, expo):
    # exp/log keeps rho**expo accurate over many decades of rho
    return np.exp(expo * np.log(rho))


def omega_bar(rho, params: VortexParams):
    """Background vorticity profile beta*(2-alpha)*rho**(-alpha).

    The profile is singular at the origin; rho must be strictly positive.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("omega_bar requires rho > 0")
    out = params.beta * (2.0 - params.alpha) * _power(rho, -params.alpha)
    return out if out.ndim else float(out)


def v_bar(rho, params: VortexParams):
    """Azimuthal velocity profile beta*rho**(1-alpha) (e_theta component)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("v_bar requires rho > 0")
    out = params.beta * _power(rho, 1.0 - params.alpha)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SelfSimilarPoint:
    """A point (xi, tau) in self-similar coordinates; xi is a 2-vector."""

    xi: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float).reshape(2))

    @property
    def rho(self) -> float:
        return float(np.hypot(self.xi[0], self.xi[1]))

    @property
    def theta(self) -> float:
        return float(np.arctan2(self.xi[1], self.xi[0]) % (2.0 * np.pi))

    @classmethod
    def from_polar(cls, rho: float, theta: float, tau: float) -> "SelfSimilarPoint":
        if rho < 0.0:
            raise ValueError("rho must be nonnegative")
        return cls(np.array([rho * np.cos(theta), rho * np.sin(theta)]), tau)

    @classmethod
    def from_physical(cls, x, t: float, alpha: float) -> "SelfSimilarPoint":
        if t <= 0.0:
            raise ValueError("physical time must be positive")
        x = np.asarray(x, dtype=float).reshape(2)
        return cls(x * t ** (-1.0 / alpha), np.log(t))

    def to_physical(self, alpha: float):
        t = np.exp(self.tau)
        return self.xi * t ** (1.0 / alpha), t


@dataclass(frozen=True)
class FieldSample:
    """A single field value attached to a spatial position and a frame.

    ``value`` is a scalar for vorticity and a 2-vector for velocity;
    ``position`` is the 2-vector spatial location in the sample's own frame.
    """

    value: object
    position: np.ndarray
    kind: str
    frame: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.frame not in _FRAMES:
            raise ValueError(f"frame must be one of {_FRAMES}")
        pos = np.asarray(self.position, dtype=float).reshape(2)
        object.__setattr__(self, "position", pos)
        if self.kind == VELOCITY:
            val = np.asarray(self.value, dtype=float).reshape(2)
            object.__setattr__(self, "value", val)
        else:
            object.__setattr__(self, "value", float(self.value))


def map_field(sample: FieldSample, t_phys: float, direction: str, params: VortexParams) -> FieldSample:
    """Map a field sample between the physical and self-similar frames.

    Amplitudes scale as Omega = t*omega and V = t**(1-1/alpha)*v; positions as
    xi = x*t**(-1/alpha).  The round trip to_ss o to_phys is the identity to
    machine precision.
    """
    if t_phys <= 0.0:
        raise ValueError("t_phys must be positive")
    alpha = params.alpha
    if direction == "to_ss":
        if sample.frame != PHYSICAL:
            raise ValueError("to_ss requires a sample in the physical frame")
        pos = sample.position * t_phys ** (-1.0 / alpha)
        if sample.kind == VORTICITY:
            val = t_phys * sample.value
        else:
            val = t_phys ** (1.0 - 1.0 / alpha) * sample.value
        return FieldSample(val, pos, sample.kind, SELF_SIMILAR)
    if direction == "to_phys":
        if sample.frame != SELF_SIMILAR:
            raise ValueError("to_phys requires a sample in the self-similar frame")
        pos = sample.position * t_phys ** (1.0 / alpha)
        if sample.kind == VORTICITY:
            val = sample.value / t_phys
        else:
            val = t_phys ** (1.0 / alpha - 1.0) * sample.value
        return FieldSample(val, pos, sample.kind, PHYSICAL)
    raise ValueError("direction must be 'to_ss' or 'to_phys'")
