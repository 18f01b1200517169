"""Exact correlation function of a field of randomly placed disks.

The sky is a superposition of disks of angular radius R with radial
brightness profile f, centers laid down by a point process of mean
density n = N_c / (4 pi) and two-point correlation omega.  A pair of
field points lies in one disk or in two, which splits the correlation
into a same-disk and an other-disk term (the one- and two-halo terms of
halo models, Cooray & Sheth, Phys. Rep. 372, 1, 2002):

    C = n A + n^2 A * (1 + omega),    A = f * f,

in the flat-sky limit (all angles well below a radian), where * is the
convolution of radial functions,

    (g * h)(theta) = Integral d^2x g(|x|) h(|x + theta e|).

A(s) is the overlap of two profiles whose centers sit s apart (the lens
area for a top hat); the other-disk term weights it with the center pair
density 1 + omega.  A profile is a unit-radius shape g stretched to
radius R, f(r) = g(r/R), so A_R(s) = R^2 A_1(s/R).  A_1 is tabulated
once per shape per process, on Gauss-Legendre panels between its kinks,
and both terms read A from that table at s/R (barycentric Lagrange
interpolation, Berrut & Trefethen, SIAM Rev. 46, 501, 2004).

Both convolutions run through one routine: an integral over circle radii
r about g's center of r g(r) times the integral of h around that circle.
Parametrising every circle by its central angle keeps all integrands
bounded, so plain panelised Gauss-Legendre quadrature converges fast.
Panels are cut at g's kinks and wherever a circle starts or stops
crossing h's edge or kinks (a disk edge, a profile kink, a breakpoint of
omega), which is where the integrands kink.  The routine works through
the separations and rings in chunks of about ``BLOCK_BYTES``, so its
working memory does not grow with the number of angles: a case-d
correlation peaks at 2.8 MB of allocations on 1024 angles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .transforms import (BLOCK_BYTES, TabulatedCorrelation, _check_angles, _require_positive,
                         gauss_nodes)

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
# (phi), and of the overlap table (A).  With them the equal-radius Poisson
# case matches its closed form to ~1e-6, far below MC error bars.
N_PSI = 64
N_RHO = 48
N_S = 32
N_PHI = 48
N_A = 16

# The overlap table's panels shrink by this ratio, this many times, toward
# each end of every interval between A's kinks, where A is least smooth
# (a top hat has A ~ (2R - s)^(3/2) at the reach).
A_GRADING = 0.3
A_LEVELS = 4

DEFAULT_N_DISKS = 1000


@dataclass(frozen=True)
class DiskProfile:
    """Radial brightness profile of one disk, given by its unit-radius shape.

    ``shape`` maps u = r/R on [0, 1] (array-valued) to brightness and is
    treated as zero outside.  ``breakpoints`` lists the fractions of R in
    [0, 1) where the shape itself kinks, for quadrature splitting; 0 marks
    a cone at the center, as for ``CenterCorrelation``.  All profiles of
    one shape callable share one overlap table; every other callable gets
    a table of its own.
    """

    shape: callable
    radius: float
    breakpoints: tuple = ()

    def __post_init__(self):
        _require_positive(radius=self.radius)
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        bad = [b for b in self.breakpoints if not 0 <= b < 1]
        if bad:
            raise ValueError(f"profile breakpoints must lie in [0, 1) of R: {bad}")
        probe = self.shape(np.linspace(0.0, 1.0, 17))
        if not np.all(np.isfinite(probe)) or np.any(probe < 0):
            raise ValueError("profile must be finite and nonnegative on [0, R]")

    def f(self, r):
        """Brightness at radii ``r`` in radians: shape(r / R)."""
        return self.shape(np.asarray(r, dtype=float) / self.radius)

    @property
    def kinks(self):
        """The breakpoints in radians."""
        return tuple(b * self.radius for b in self.breakpoints)


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

    def __post_init__(self):
        probe_at = np.linspace(0.0, math.pi, 33)
        probe = np.asarray(self.omega(probe_at), dtype=float)
        if not np.all(np.isfinite(probe)) or np.any(probe < -1.0 - 1e-12):
            raise ValueError("omega must be finite and >= -1")


def _top_hat_shape(u):
    return np.ones_like(u)


def _exponential_shape(u):
    return np.exp(-u)


def top_hat_disk(radius):
    """Uniform disk: f = 1 inside."""
    return DiskProfile(_top_hat_shape, float(radius))


def exponential_disk(radius):
    """Disk with f = exp(-r/R), R the radius.

    Its cone at the center is declared as breakpoint 0.
    """
    return DiskProfile(_exponential_shape, float(radius), (0.0,))


def poisson_centers():
    """Uncorrelated centers: omega = 0."""
    return CenterCorrelation(np.zeros_like)


def hard_core_centers(radius):
    """Centers forbidden within 2 radius of each other, uncorrelated beyond."""
    d = 2.0 * float(radius)
    _require_positive(radius=radius, diameter=d)
    return CenterCorrelation(lambda th: np.where(th < d, -1.0, 0.0), (d,))


def clustered_centers(scale):
    """Short-range clustered centers: omega = 2 exp(-theta/scale) - 1."""
    _require_positive(scale=scale)
    s = float(scale)
    return CenterCorrelation(lambda th: 2.0 * np.exp(-th / s) - 1.0, (0.0,))


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
    ``level`` is [result, pi]; an infinite level gives 0.  Degenerate
    geometry (d0 d1 = 0) has a constant distance; the clip then parks the
    cut at 0 or pi, leaving one empty interval, which the quadrature
    ignores.
    """
    den = np.maximum(2.0 * d0 * d1, 1e-300)
    return np.arccos(np.clip((level**2 - d0**2 - d1**2) / den, -1.0, 1.0))


def _ring_integral(h, d, r, n):
    """Integral over psi in [0, 2 pi] of h(|d e + r e(psi)|).

    ``h`` is a radial function ``(fn, kinks, support)``, zero beyond its
    support; ``d`` and ``r`` are 1-D arrays of the same length.  By symmetry
    only [0, pi] is integrated and doubled, in panels that start where the
    circle enters the support and are cut where it crosses a kink.
    """
    fn, kinks, support = h
    # A circle meets a level 0 (a cone) only at psi = pi, already a panel end.
    cut_cols = [_crossing_angle(b, d, r) for b in (support, *kinks) if b > 0]
    cuts = np.sort(np.stack(cut_cols + [np.full_like(r, math.pi)], axis=1), axis=1)
    psi, w = _mapped_gl(cuts, n)
    dist = np.sqrt(np.maximum(
        d[:, None] ** 2 + r[:, None] ** 2 + 2.0 * d[:, None] * r[:, None] * np.cos(psi), 0.0))
    return 2.0 * np.sum(w * fn(np.minimum(dist, support)), axis=1)


def _radial_convolution(d, g, h, n_r, n_psi):
    """Integral d^2x g(|x|) h(|x + d e|) for each separation in ``d`` (1-D).

    ``g`` and ``h`` are radial functions ``(fn, kinks, support)``.  Polar
    coordinates about g's center: radius panels are cut at 0, at g's
    support and kinks, and at |d - b| and d + b for every level b of h,
    where the circles start or stop crossing it.

    Separations are integrated a chunk at a time, sized so that the
    chunk's (separation, radius) arrays, each reading ``N_A`` overlap
    table values, fill about ``BLOCK_BYTES``; rings a batch at a time,
    sized so that about four (ring, psi) arrays do.  Every separation and
    ring is integrated on its own, so these sizes change no bit.
    """
    if d.size == 0:  # no angles, no panel cuts
        return d
    g_fn, g_kinks, g_support = g
    _, h_kinks, h_support = h
    cut_cols = [np.full_like(d, c) for c in (0.0, g_support, *g_kinks)]
    for b in (h_support, *h_kinks):
        cut_cols += [np.abs(d - b), d + b]
    cuts = np.sort(np.clip(np.stack(cut_cols, axis=1), 0.0, g_support), axis=1)
    # A column equal in every row is a repeated cut: drop it.
    cuts = np.unique(cuts, axis=1)
    n_nodes = (cuts.shape[1] - 1) * n_r
    chunk = max(1, BLOCK_BYTES // (8 * N_A * n_nodes))
    # psi nodes per ring: n_psi on each panel of _ring_integral.
    width = n_psi * sum(b > 0 for b in (h_support, *h_kinks))
    batch = max(1, BLOCK_BYTES // (32 * width))
    out = np.empty(d.size)
    for lo in range(0, d.size, chunk):
        r, w = _mapped_gl(cuts[lo:lo + chunk], n_r)
        offset = np.broadcast_to(d[lo:lo + chunk, None], r.shape).reshape(-1)
        flat = r.reshape(-1)
        ring = np.concatenate([_ring_integral(h, offset[i:i + batch], flat[i:i + batch], n_psi)
                               for i in range(0, flat.size, batch)])
        out[lo:lo + chunk] = np.sum(w * r * g_fn(r) * ring.reshape(r.shape), axis=1)
    return out


def same_disk_integral(theta, profile):
    """Overlap A(theta) of two disk profiles whose centers sit theta apart.

    A(theta) = Integral d^2x f(|x|) f(|x + theta e|): the lens area for a
    top hat, zero from theta = 2R on; the same-disk term of the
    correlation is n A(theta).  Vectorised over ``theta``.  This is the
    direct route, which fills the overlap tables; ``correlation_toy1``
    reads A from them.
    """
    theta = _check_angles(theta)
    disk = (profile.f, profile.kinks, profile.radius)
    out = _radial_convolution(theta.reshape(-1), disk, disk, N_RHO, N_PSI)
    return out.reshape(theta.shape)[()]


# Unit-radius overlap tables (kinks, panel edges, nodes, values), keyed on
# (shape, breakpoints) and built on first use.
_OVERLAP_CACHE = {}


def _unit_overlap(profile):
    """The overlap table of ``profile``'s shape at unit radius.

    A kinks at sums and differences of the radius 1 and the profile
    kinks.  Between consecutive kinks on [0, 2] the offsets are split into
    panels graded toward both ends; a declared cone (kink 0) makes 1 such a
    kink, since A is weakly singular where a cone meets an edge.  The
    panels are also cut, ungraded, at 1 and at the profile kinks
    themselves.  A is evaluated once at each panel's ``N_A`` Gauss-Legendre
    nodes, one panel per call of the module's ``same_disk_integral``.
    Working memory is bounded inside that function either way; the
    per-panel calls keep the table's bits, since one call over all nodes
    builds its cut columns over all of them and moves 59 of the
    exponential table's 288 values by up to 2.2e-16 (the top hat's 160
    stay identical).
    """
    key = (profile.shape, profile.breakpoints)
    if key in _OVERLAP_CACHE:
        return _OVERLAP_CACHE[key]
    unit = DiskProfile(profile.shape, 1.0, profile.breakpoints)
    levels = (1.0, *profile.breakpoints)
    kinks = [c for a in levels for b in levels for c in (a + b, abs(a - b))]
    cuts = np.unique(np.clip([0.0, *kinks], 0.0, 2.0))
    steps = A_GRADING ** np.arange(1, A_LEVELS + 1)
    edges = [*cuts, *levels]
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges += [*(a + 0.5 * (b - a) * steps), *(b - 0.5 * (b - a) * steps)]
    edges = np.unique(edges)
    nodes, _ = _mapped_gl(edges[None, :], N_A)
    nodes = nodes.reshape(-1, N_A)
    # Looked up at call time, so a wrapped same_disk_integral sees every call.
    values = np.array([same_disk_integral(s, unit) for s in nodes])
    table = _OVERLAP_CACHE[key] = (kinks, edges, nodes, values)
    return table


def _tabulated_overlap(profile):
    """The overlap A as a radial function ``(fn, kinks, support)``, tabulated.

    Profiles of one shape differ only in scale, A_R(s) = R^2 A_1(s/R), so
    ``fn`` reads the shape's unit-radius table at s/R.  Within each panel
    it interpolates in barycentric form, with the Legendre-point weights
    (-1)^j sqrt((1 - x_j^2) w_j) (Wang & Xiang, Math. Comp. 81, 861,
    2012); a node returns its tabulated value, and offsets from 2R on give
    zero.
    """
    kinks, edges, nodes, values = _unit_overlap(profile)
    radius = profile.radius
    x, w = gauss_nodes(N_A)
    bary = (-1.0) ** np.arange(N_A) * np.sqrt((1.0 - x**2) * w)

    def fn(s):
        s = np.asarray(s, dtype=float)
        # Offsets past the reach are zero; clipped, they stay near a panel.
        flat = np.minimum(s.reshape(-1) / radius, 2.0)
        panel = np.searchsorted(edges[1:-1], flat, side="right")
        diff = flat[:, None] - nodes[panel]
        hit = diff == 0.0
        terms = bary / np.where(hit, 1.0, diff)
        smooth = np.sum(terms * values[panel], axis=1) / np.sum(terms, axis=1)
        exact = np.sum(np.where(hit, values[panel], 0.0), axis=1)
        out = np.where(hit.any(axis=1), exact, smooth)
        return radius**2 * np.where(flat < 2.0, out, 0.0).reshape(s.shape)

    return fn, [k * radius for k in kinks], 2.0 * radius


def other_disk_integral(theta, profile, centers, n_disks):
    """Other-disk term of the correlation at separations theta.

    n^2 Integral d^2x A(|x|) [1 + omega(|x + theta e|)]: the overlap
    convolved with the center pair density.  A is read from the profile
    shape's table on every angle's offsets.  Vectorised over ``theta``.
    """
    _require_positive(n_disks=n_disks)
    theta = _check_angles(theta)
    overlap = _tabulated_overlap(profile)
    # The clip absorbs roundoff below omega = -1.
    density = (lambda u: np.maximum(1.0 + np.asarray(centers.omega(u), dtype=float), 0.0),
               centers.breakpoints, math.inf)
    out = _radial_convolution(theta.reshape(-1), overlap, density, N_S, N_PHI)
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
        Its same-disk term n A is read from the overlap table of its shape.
    omega : CenterCorrelation
        Center process of the other-disk term; an omega of constant -1
        drops that term (isolated-disk field).
    n_disks : float
        Number of disks on the sphere; sets both the other-disk density
        and the overall amplitude.

    Returns
    -------
    TabulatedCorrelation on theta_grid.
    """
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if (not np.all((theta_grid > 0) & (theta_grid < math.inf))
            or np.any(np.diff(theta_grid) <= 0)):
        raise ValueError("theta grid must be finite, positive and strictly increasing")
    _require_positive(n_disks=n_disks)

    overlap, _, _ = _tabulated_overlap(profile)
    values = (n_disks / (4.0 * math.pi) * overlap(theta_grid)
              + other_disk_integral(theta_grid, profile, omega, n_disks))
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
