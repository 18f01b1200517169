"""Exact correlation function of a field of randomly placed disks.

The sky is a superposition of disks of angular radius R with radial
brightness profile f, centers laid down by a point process of mean
density n = N_c / (4 pi) and two-point correlation omega.  A pair of
field points lies in one disk or in two, which splits the correlation
into a same-disk and an other-disk term (the one- and two-halo terms of
halo models, Cooray & Sheth, Phys. Rep. 372, 1, 2002):

    C(theta) = n A(theta)
               + n^2 Integral_0^2R ds s A(s) Integral_0^2pi dphi
                     [1 + omega(|theta e - s e(phi)|)]

in the flat-sky limit (all angles well below a radian).  Here

    A(s) = Integral d^2x f(|x|) f(|x + s e|)

is the overlap of two profiles whose centers sit s apart (the lens area
for a top hat), and the phi integral is the center pair density averaged
over the ring of center offsets s around the separation vector.

A(s) is an integral over circle radii rho about one center of f(rho)
times the line integral of f along that circle in the other disk.
Parametrising every circle by its central angle keeps all integrands
bounded, so plain panelised Gauss-Legendre quadrature converges fast.
Panels are cut wherever a circle starts or stops crossing a disk edge, a
profile kink or a breakpoint of omega, which is where the integrands kink.
"""

import math
from dataclasses import dataclass

import numpy as np

from .transforms import TabulatedCorrelation, gauss_nodes

__all__ = [
    "DiskProfile",
    "CenterCorrelation",
    "top_hat_disk",
    "exponential_disk",
    "poisson_centers",
    "hard_core_centers",
    "clustered_centers",
    "same_disk_integral",
    "other_disk_integral",
    "correlation_toy1",
    "preset_case",
]

# Gauss-Legendre orders per panel: along a circle's arc (psi), over circle
# radii (rho), over center offsets (s) and around the ring of offsets
# (phi).  With them the equal-radius Poisson case matches its closed form
# to ~1e-6, far below MC error bars.
N_PSI = 64
N_RHO = 48
N_S = 32
N_PHI = 48

DEFAULT_N_DISKS = 1000


@dataclass(frozen=True)
class DiskProfile:
    """Radial brightness profile of one disk.

    ``f`` maps radius (radians, array-valued) to brightness on [0, radius]
    and is treated as zero outside.  ``breakpoints`` lists interior radii
    where f itself kinks, for quadrature splitting.
    """

    f: callable
    radius: float
    breakpoints: tuple = ()
    name: str = "disk"

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        bad = [b for b in self.breakpoints if not 0 < b < self.radius]
        if bad:
            raise ValueError(f"profile breakpoints must lie inside (0, R): {bad}")
        probe = self.f(np.linspace(0.0, self.radius, 17))
        if not np.all(np.isfinite(probe)) or np.any(probe < 0):
            raise ValueError("profile must be finite and nonnegative on [0, R]")


@dataclass(frozen=True)
class CenterCorrelation:
    """Two-point correlation omega(theta) of the disk-center process.

    The pair density of centers at separation theta is proportional to
    1 + omega(theta), so omega must stay >= -1.  ``breakpoints`` lists
    the separations where omega jumps or kinks; 0 marks a cone at zero
    separation.
    """

    omega: callable
    breakpoints: tuple = ()
    name: str = "centers"

    def __post_init__(self):
        probe_at = np.linspace(0.0, math.pi, 33)
        probe = np.asarray(self.omega(probe_at), dtype=float)
        if not np.all(np.isfinite(probe)) or np.any(probe < -1.0 - 1e-12):
            raise ValueError("omega must be finite and >= -1")


def top_hat_disk(radius):
    """Uniform disk: f = 1 inside."""
    return DiskProfile(lambda r: np.ones_like(r), float(radius), (), "top-hat")


def exponential_disk(radius, scale=None):
    """Disk with f = exp(-r/scale), scale defaulting to the radius."""
    s = float(radius) if scale is None else float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    return DiskProfile(lambda r: np.exp(-r / s), float(radius), (), "exponential")


def poisson_centers():
    """Uncorrelated centers: omega = 0."""
    return CenterCorrelation(lambda th: np.zeros_like(th), (), "poisson")


def hard_core_centers(radius):
    """Centers forbidden within 2 radius of each other, uncorrelated beyond."""
    d = 2.0 * float(radius)
    if d <= 0:
        raise ValueError("radius must be positive")
    return CenterCorrelation(
        lambda th: np.where(th < d, -1.0, 0.0), (d,), "hard-core"
    )


def clustered_centers(scale, amplitude=2.0):
    """Short-range clustered centers: omega = amplitude exp(-theta/scale) - 1."""
    s, a = float(scale), float(amplitude)
    if s <= 0 or a < 0:
        raise ValueError("need scale > 0 and amplitude >= 0")
    return CenterCorrelation(lambda th: a * np.exp(-th / s) - 1.0, (0.0,), "clustered")


def _mapped_gl(cuts, n):
    """Gauss-Legendre nodes/weights on each interval of a sorted cut table.

    ``cuts`` has shape (rows, m); every row is an ascending partition.
    Returns nodes and weights of shape (rows, (m-1) n); empty intervals
    contribute zero weight, so duplicate cuts are harmless.
    """
    x, w = gauss_nodes(n)
    a = cuts[:, :-1]
    b = cuts[:, 1:]
    half = 0.5 * (b - a)
    nodes = a[:, :, None] + half[:, :, None] * (x[None, None, :] + 1.0)
    weights = half[:, :, None] * w[None, None, :]
    rows = cuts.shape[0]
    return nodes.reshape(rows, -1), weights.reshape(rows, -1)


def _crossing_angle(level, d0, d1):
    """Central angle where sqrt(d0^2 + d1^2 + 2 d0 d1 cos(angle)) = level.

    The distance is decreasing in the angle, so the region closer than
    ``level`` is [result, pi].  Degenerate geometry (d0 d1 = 0) has a
    constant distance; the clip then parks the cut at 0 or pi, leaving
    one empty interval, which the quadrature ignores.
    """
    den = np.maximum(2.0 * d0 * d1, 1e-300)
    return np.arccos(np.clip((level**2 - d0**2 - d1**2) / den, -1.0, 1.0))


def _ring_profile_integral(radius, offset, profile):
    """Line integral of the profile along circles of the given radii.

    Each circle (``radius`` an array) is centered ``offset`` (an array of
    the same shape) from the disk center; the profile is zero outside the
    disk, so integration starts at the angle where the circle enters it.
    By symmetry only [0, pi] is integrated and doubled.
    """
    levels = [profile.radius, *profile.breakpoints]
    cut_cols = [_crossing_angle(lv, offset, radius) for lv in levels]
    cuts = np.sort(np.stack(cut_cols + [np.full_like(radius, math.pi)], axis=1), axis=1)
    psi, w = _mapped_gl(cuts, N_PSI)
    d = np.sqrt(np.maximum(
        offset[:, None] ** 2 + radius[:, None] ** 2
        + 2.0 * offset[:, None] * radius[:, None] * np.cos(psi), 0.0))
    vals = profile.f(np.minimum(d, profile.radius))
    return 2.0 * radius * np.sum(w * vals, axis=1)


def _center_density_integral(theta, s, centers):
    """Integral of 1 + omega around the ring of center offsets s (array).

    The center separation on that ring is |theta e - s e(phi)|; by
    symmetry only half the ring is integrated and doubled.  Panels are
    cut where the separation crosses a breakpoint of omega.
    """
    cut_cols = [_crossing_angle(b, theta, s) for b in centers.breakpoints]
    cuts = np.sort(
        np.stack([np.zeros_like(s)] + cut_cols + [np.full_like(s, math.pi)], axis=1),
        axis=1,
    )
    phi, w = _mapped_gl(cuts, N_PHI)
    sep = np.sqrt(np.maximum(
        theta**2 + s[:, None] ** 2 + 2.0 * theta * s[:, None] * np.cos(phi), 0.0))
    dens = 1.0 + np.asarray(centers.omega(sep), dtype=float)
    np.maximum(dens, 0.0, out=dens)  # omega >= -1 up to roundoff
    return 2.0 * np.sum(w * dens, axis=1)


def _check_angles(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise ValueError("theta must be nonnegative")
    return theta


def same_disk_integral(theta, profile):
    """Overlap A(theta) of two disk profiles whose centers sit theta apart.

    A(theta) = Integral d^2x f(|x|) f(|x + theta e|): the lens area for a
    top hat, zero from theta = 2R on; the same-disk term of the
    correlation is n A(theta).  Vectorised over ``theta``.  Radius panels
    are cut where the circles about one center start or stop crossing
    the other disk's edge or profile kinks.
    """
    theta = _check_angles(theta)
    s = theta.reshape(-1)
    cut_cols = [np.zeros_like(s), np.full_like(s, profile.radius)]
    cut_cols += [np.abs(s - lv) for lv in (profile.radius, *profile.breakpoints)]
    for b in profile.breakpoints:
        cut_cols += [s + b, np.full_like(s, b)]
    cuts = np.sort(np.clip(np.stack(cut_cols, axis=1), 0.0, profile.radius), axis=1)
    rho, w = _mapped_gl(cuts, N_RHO)
    offset = np.broadcast_to(s[:, None], rho.shape)
    ring = _ring_profile_integral(rho.reshape(-1), offset.reshape(-1), profile)
    out = np.sum(w * profile.f(rho) * ring.reshape(rho.shape), axis=1)
    return out.reshape(theta.shape)[()]


def other_disk_integral(theta, profile, centers, n_disks):
    """Other-disk term of the correlation at separations theta.

    n^2 Integral_0^2R ds s A(s) Integral_0^2pi dphi [1 + omega], with the
    center pair density averaged around the ring of center offsets s.
    Offset panels are cut where A kinks (sums and differences of R and the
    profile kinks) and where an omega breakpoint b sweeps past the ring
    (|theta - b| and theta + b).  Vectorised over ``theta``; one angle at
    a time, which bounds memory.
    """
    if not 0 < n_disks < math.inf:
        raise ValueError(f"n_disks must be finite and positive, got {n_disks}")
    theta = _check_angles(theta)
    reach = 2.0 * profile.radius
    levels = (profile.radius, *profile.breakpoints)
    fixed = [0.0, reach] + [c for a in levels for b in levels for c in (a + b, abs(a - b))]
    out = np.empty(theta.size)
    for k, t in enumerate(theta.reshape(-1)):
        cuts = fixed + [c for b in centers.breakpoints for c in (abs(t - b), t + b)]
        cuts = np.unique(np.clip(cuts, 0.0, reach))
        s, w = _mapped_gl(cuts[None, :], N_S)
        s, w = s[0], w[0]
        density = _center_density_integral(t, s, centers)
        out[k] = np.sum(w * s * same_disk_integral(s, profile) * density)
    rate = n_disks / (4.0 * math.pi)
    return (rate**2 * out).reshape(theta.shape)[()]


def correlation_toy1(theta_grid, profile, omega, n_disks=DEFAULT_N_DISKS):
    """Correlation function of the disk field on a positive theta grid.

    Parameters
    ----------
    theta_grid : array
        Separations in radians, strictly positive and increasing.  The
        flat-sky formula is meaningful for theta well below a radian.
    profile : DiskProfile
    omega : CenterCorrelation or None
        None drops the other-disk term entirely (isolated-disk field);
        an omega of constant -1 reaches the same result the long way.
    n_disks : float
        Number of disks on the sphere; sets both the other-disk density
        and the overall amplitude.

    Returns
    -------
    TabulatedCorrelation on theta_grid.
    """
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if np.any(theta_grid <= 0) or np.any(np.diff(theta_grid) <= 0):
        raise ValueError("theta grid must be positive and strictly increasing")
    if not 0 < n_disks < math.inf:
        raise ValueError(f"n_disks must be finite and positive, got {n_disks}")

    values = n_disks / (4.0 * math.pi) * same_disk_integral(theta_grid, profile)
    if omega is not None:
        values = values + other_disk_integral(theta_grid, profile, omega, n_disks)
    return TabulatedCorrelation(theta_grid, values)


def preset_case(label, radius=math.radians(1.0)):
    """Profile/center-process pairs for the four standard field variants.

    a: uniform disks, uncorrelated centers
    b: uniform disks, hard-core centers (no overlapping disks)
    c: uniform disks, short-range clustered centers
    d: exponential-profile disks, short-range clustered centers
    """
    key = str(label).strip().lower()
    if key == "a":
        return top_hat_disk(radius), poisson_centers()
    if key == "b":
        return top_hat_disk(radius), hard_core_centers(radius)
    if key == "c":
        return top_hat_disk(radius), clustered_centers(radius)
    if key == "d":
        return exponential_disk(radius), clustered_centers(radius)
    raise ValueError(f"unknown case {label!r}; choose from a, b, c, d")
