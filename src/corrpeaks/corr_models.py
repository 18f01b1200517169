"""Closed-form angular correlation models with exact breakpoint metadata.

Four families: a smooth double exponential, a broken exponential with a
kink angle theta_star, and two disk-population models (radii uniform in
[R_min, R_max], and radii induced by a distance spread).  Every model
reports the angles where some derivative jumps through ``breakpoints()``
so the transform layer can split its quadrature there.  All angles
are radians.
"""

import math
from dataclasses import dataclass

import numpy as np

from .transforms import _check_angles, _require_positive

__all__ = [
    "DoubleExp",
    "BrokenExp",
    "Toy2Uniform",
    "Toy2Distance",
    "default_model",
]


@dataclass(frozen=True)
class DoubleExp:
    """C(theta) = a1 exp(-theta/s1) + a2 exp(-theta/s2); smooth everywhere."""

    a1: float
    a2: float
    scale1: float
    scale2: float

    def __post_init__(self):
        _require_positive(scale1=self.scale1, scale2=self.scale2)

    def breakpoints(self):
        return ()

    def __call__(self, theta):
        theta = _check_angles(theta)
        out = self.a1 * np.exp(-theta / self.scale1) + self.a2 * np.exp(
            -theta / self.scale2
        )
        return out[()]


@dataclass(frozen=True)
class BrokenExp:
    """Two exponentials glued at theta_star, one on each side.

    The value jump at theta_star is tiny for the default parameters but
    the slope jump is not; that kink is what imprints oscillations on
    the spectrum.
    """

    a1: float
    a2: float
    scale1: float
    scale2: float
    theta_star: float

    def __post_init__(self):
        _require_positive(
            scale1=self.scale1, scale2=self.scale2, theta_star=self.theta_star
        )

    def breakpoints(self):
        return (self.theta_star,)

    def __call__(self, theta):
        theta = _check_angles(theta)
        out = np.where(
            theta <= self.theta_star,
            self.a1 * np.exp(-theta / self.scale1),
            self.a2 * np.exp(-theta / self.scale2),
        )
        return out[()]


@dataclass(frozen=True)
class Toy2Uniform:
    """Correlation of uncorrelated disks with radii uniform in [r_min, r_max].

    Piecewise closed form (overlap kernel A = 1, h(x) = 1 - x/2):

        (r_max - r_min) - (theta/2) ln(r_max/r_min)          theta <= 2 r_min
        r_max - (1 + ln 2)/2 theta + (theta/2) ln(theta/r_max)
                                                2 r_min < theta < 2 r_max
        0                                              theta >= 2 r_max

    Continuous at both joins; the middle branch meets the outer ones with
    matching first derivative, so the surviving discontinuities are the
    second-derivative jumps 1/(4 r_min) and -1/(4 r_max).
    """

    r_min: float
    r_max: float

    def __post_init__(self):
        _require_positive(r_min=self.r_min, r_max=self.r_max)
        if not self.r_min < self.r_max:
            raise ValueError("need r_min < r_max; the equal-radius field is toy model 1")

    def breakpoints(self):
        return (2.0 * self.r_min, 2.0 * self.r_max)

    def __call__(self, theta):
        theta = _check_angles(theta)
        rmn, rmx = self.r_min, self.r_max
        out = np.zeros_like(theta)

        inner = theta <= 2.0 * rmn
        out[inner] = (rmx - rmn) - 0.5 * math.log(rmx / rmn) * theta[inner]

        mid = (theta > 2.0 * rmn) & (theta < 2.0 * rmx)
        tm = theta[mid]
        # log argument is positive throughout: tm < 2 r_max here
        out[mid] = (
            rmx - 0.5 * (1.0 + math.log(2.0)) * tm + 0.5 * tm * np.log(tm / rmx)
        )
        return out[()]


@dataclass(frozen=True)
class Toy2Distance:
    """Disks of fixed physical size at distances uniform in [r_min, r_max].

    The projected radius of a disk at distance r is R = L/r (L =
    ``length``), and each unit of distance adds Toy2Uniform's kernel
    1 - theta/(2R) with weight a0^2/L:

        C(theta) = Integral (a0^2 / L) (1 - theta r / (2 L)) dr
                   over r from r_min to min(r_max, 2 L / theta),

    which gives

        a0^2 [ (r_max - r_min)/L - (r_max^2 - r_min^2) theta / (4 L^2) ]
                                                       theta <= theta_1
        a0^2 [ -r_min/L + 1/theta + r_min^2 theta / (4 L^2) ]
                                             theta_1 < theta < theta_2
        0                                              theta >= theta_2

    with theta_1 = 2 L / r_max and theta_2 = 2 L / r_min.  Distances are
    dimensionless multiples of the object size L.
    """

    a0: float
    length: float
    r_min: float
    r_max: float

    def __post_init__(self):
        _require_positive(
            a0=self.a0, length=self.length, r_min=self.r_min, r_max=self.r_max
        )
        if not self.r_min < self.r_max:
            raise ValueError("need r_min < r_max; a single distance has no spread")

    @property
    def theta_1(self):
        return 2.0 * self.length / self.r_max

    @property
    def theta_2(self):
        return 2.0 * self.length / self.r_min

    def breakpoints(self):
        return (self.theta_1, self.theta_2)

    def __call__(self, theta):
        theta = _check_angles(theta)
        a2 = self.a0**2
        el = self.length
        rmn, rmx = self.r_min, self.r_max
        out = np.zeros_like(theta)

        inner = theta <= self.theta_1
        out[inner] = a2 * (
            (rmx - rmn) / el - (rmx**2 - rmn**2) / (4.0 * el**2) * theta[inner]
        )

        mid = (theta > self.theta_1) & (theta < self.theta_2)
        tm = theta[mid]
        out[mid] = a2 * (-rmn / el + 1.0 / tm + rmn**2 / (4.0 * el**2) * tm)
        return out[()]


# Reference parameter sets; angles quoted in degrees for legibility.
_DEFAULTS = {
    "c1": lambda: DoubleExp(9744.0, 3000.0, math.radians(0.45), math.radians(13.0)),
    "c2": lambda: BrokenExp(
        12000.0,
        3600.0,
        math.radians(0.79),
        math.radians(11.45),
        math.radians(1.03),
    ),
    "toy2-uniform": lambda: Toy2Uniform(math.radians(1.0), math.radians(2.0)),
    "toy2-distance": lambda: Toy2Distance(0.02, 1.0, 3.0, 50.0),
}

def default_model(name):
    """Look up a model with its reference parameters by short name.

    Accepted names: c1, c2, toy2-uniform, toy2-distance.
    """
    key = name.strip().lower()
    try:
        return _DEFAULTS[key]()
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(_DEFAULTS)}"
        ) from None
