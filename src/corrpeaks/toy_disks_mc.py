"""Seeded Monte Carlo disk fields on a flat square patch.

Each realization draws disk centers (uniform, optionally with a hard-core
minimum separation), sprinkles points uniformly over each disk's area,
and estimates the two-point correlation with the pair-count estimator
DD/RR - 1.  RR comes from the closed form for a uniform process on a
square rather than from random catalogs, so the estimator carries no
randoms noise and realizations stay cheap.

Determinism contract: every realization i derives its generator from
(seed, i), so ensembles are reproducible bit for bit regardless of how
many worker threads run them.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .transforms import TabulatedCorrelation

__all__ = [
    "DiskEnsembleConfig",
    "RealizationStats",
    "PackingError",
    "sample_centers",
    "sample_disk_points",
    "pair_count_baseline",
    "estimate_correlation",
    "run_ensemble",
]

# Hard-core feasibility bound: N pi (2R)^2 must stay below this fraction
# of the patch area.  Sequential rejection saturates near 2.2 (the jamming
# coverage in these units); beyond ~half of that, acceptance rates crater.
PACKING_LIMIT = 1.1

# Total rejection budget scales with the disk count.
MAX_ATTEMPTS_PER_DISK = 1_000_000


class PackingError(RuntimeError):
    """Raised when a hard-core configuration cannot be packed."""


@dataclass(frozen=True)
class DiskEnsembleConfig:
    """Complete description of one MC ensemble.

    ``radius`` is a single angular radius or an (r_min, r_max) pair for
    radii drawn uniformly per disk.  ``theta_max`` defaults to four times
    the largest radius; together with ``n_bins`` it fixes the linear
    binning of the estimator.  All lengths are radians on the flat patch.
    """

    n_disks: int = 80
    radius: object = math.radians(1.0)
    points_per_disk: int = 32
    patch_size: float = 1.0
    hard_core: bool = False
    n_realizations: int = 50
    seed: int = 0
    n_bins: int = 64
    theta_max: float | None = None

    def __post_init__(self):
        if self.n_disks < 1 or self.points_per_disk < 1:
            raise ValueError("n_disks and points_per_disk must be >= 1")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if not self.patch_size > 0:
            raise ValueError("patch_size must be positive")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        lo, hi = self.radius_range
        if not 0 < lo <= hi:
            raise ValueError("radius must be positive (and r_min <= r_max)")
        if hi >= self.patch_size / 2:
            raise ValueError("disks must be small against the patch")
        if self.theta_max is not None and not 0 < self.theta_max <= self.patch_size / 2:
            raise ValueError("theta_max must lie in (0, patch_size/2]")
        if self.hard_core:
            coverage = self.n_disks * math.pi * (2.0 * hi) ** 2
            if coverage >= PACKING_LIMIT * self.patch_size**2:
                raise PackingError(
                    f"hard-core packing infeasible: N pi (2R)^2 = {coverage:.3g} "
                    f"vs limit {PACKING_LIMIT} L^2 = {PACKING_LIMIT * self.patch_size ** 2:.3g}"
                )

    @property
    def radius_range(self):
        if np.ndim(self.radius) == 0:
            r = float(self.radius)
            return r, r
        lo, hi = (float(v) for v in self.radius)
        return lo, hi

    @property
    def bin_edges(self):
        hi = self.theta_max
        if hi is None:
            hi = 4.0 * self.radius_range[1]
            hi = min(hi, self.patch_size / 2)
        return np.linspace(0.0, hi, self.n_bins + 1)


@dataclass(frozen=True)
class RealizationStats:
    """Ensemble summary: per-bin mean, scatter, and pair counts.

    ``rms`` is the across-realization standard deviation (ddof=1), the
    error-bar convention for ensemble plots; it is NaN when only one
    realization was run.  A bin that some realizations left empty counts
    as -1 (DD = 0) in those; ``mean`` and ``rms`` are NaN only for bins
    that caught no pair in the whole ensemble.  ``per_realization`` keeps
    the full (n_realizations, n_bins) estimate matrix for further
    analysis, with NaN for each realization's empty bins.
    """

    theta_edges: np.ndarray
    mean: np.ndarray
    rms: np.ndarray
    n_pairs: np.ndarray
    per_realization: np.ndarray
    config: DiskEnsembleConfig

    def __post_init__(self):
        if np.any(self.n_pairs < 0):
            raise ValueError("pair counts cannot be negative")
        with np.errstate(invalid="ignore"):
            if np.any(self.rms < 0):
                raise ValueError("rms cannot be negative")
        if self.mean.shape != (self.theta_edges.size - 1,):
            raise ValueError("bin mismatch between edges and mean")

    @property
    def theta(self):
        return 0.5 * (self.theta_edges[:-1] + self.theta_edges[1:])


def realization_rng(seed, index):
    """Generator for one realization; distinct and stable per (seed, index)."""
    return np.random.default_rng((int(seed), int(index)))


def sample_centers(config, rng):
    """Draw disk centers uniformly in the patch square.

    With hard_core, centers are accepted one at a time only when farther
    than twice the largest radius from every earlier center (sequential
    rejection).  Runs out of attempts only for near-jamming requests that
    slipped past the coverage bound, and then raises PackingError.
    """
    n = config.n_disks
    size = config.patch_size
    if not config.hard_core:
        return rng.uniform(0.0, size, (n, 2))

    d_min2 = (2.0 * config.radius_range[1]) ** 2
    out = np.empty((n, 2))
    placed = 0
    attempts = 0
    budget = MAX_ATTEMPTS_PER_DISK * n
    while placed < n:
        if attempts >= budget:
            raise PackingError(
                f"gave up after {attempts} attempts with {placed}/{n} centers placed"
            )
        attempts += 1
        cand = rng.uniform(0.0, size, 2)
        if placed:
            d2 = np.sum((out[:placed] - cand) ** 2, axis=1)
            if d2.min() <= d_min2:
                continue
        out[placed] = cand
        placed += 1
    return out


def sample_disk_points(centers, config, rng):
    """Sprinkle points uniformly over each disk's area.

    Radius scaling r = R sqrt(u) makes the density area-uniform.  Points
    may land slightly outside the patch when a disk hugs the boundary;
    they are kept, so every realization has exactly N_c N_p points.
    """
    n_disks = centers.shape[0]
    n_p = config.points_per_disk
    lo, hi = config.radius_range
    if lo == hi:
        radii = np.full(n_disks, hi)
    else:
        radii = rng.uniform(lo, hi, n_disks)
    u = rng.random((n_disks, n_p))
    phi = rng.uniform(0.0, 2.0 * math.pi, (n_disks, n_p))
    r = radii[:, None] * np.sqrt(u)
    offsets = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    return (centers[:, None, :] + offsets).reshape(-1, 2)


def pair_count_baseline(n_points, edges, patch_size):
    """Expected pair counts per bin for a uniform process on the square.

    Uses the isotropised set covariance of a square of side L,
    gamma(t) = L^2 - 4 L t / pi + t^2 / pi (valid for t <= L), whose
    radial integral gives the probability of a pair landing at distance
    inside each bin; exact, so no random catalogs are needed.
    """
    edges = np.asarray(edges, dtype=float)
    size = float(patch_size)
    if edges[0] < 0 or edges[-1] > size / 2 + 1e-12:
        raise ValueError("bins must lie within (0, patch_size/2)")

    def cumulative(t):
        return 2.0 * math.pi * (
            size**2 * t**2 / 2.0 - 4.0 * size * t**3 / (3.0 * math.pi)
            + t**4 / (4.0 * math.pi)
        )

    prob = (cumulative(edges[1:]) - cumulative(edges[:-1])) / size**4
    n_pairs = n_points * (n_points - 1) / 2.0
    return n_pairs * prob


def _binned_estimate(points, edges, patch_size):
    """Core of the estimator: (DD/RR - 1 with NaN for empty bins, DD)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] != 2:
        raise ValueError("need at least two 2-D points")
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be increasing with at least one bin")

    rr = pair_count_baseline(points.shape[0], edges, patch_size)
    tree = cKDTree(points)
    pairs = tree.query_pairs(r=float(edges[-1]), output_type="ndarray")
    if pairs.size:
        dist = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
        dd, _ = np.histogram(dist, bins=edges)
    else:
        dd = np.zeros(edges.size - 1, dtype=int)

    with np.errstate(invalid="ignore", divide="ignore"):
        xi = np.where(dd > 0, dd / rr - 1.0, np.nan)
    return xi, dd


def estimate_correlation(points, edges, patch_size):
    """Pair-count correlation estimate DD/RR - 1 on the given bins.

    RR is the analytic uniform baseline, so a uniform point set scatters
    around zero.  Bins that caught no pairs yield NaN (missing), never a
    fake zero.  Requires at least two points and bins inside
    (0, patch_size/2), where the square set covariance holds.
    """
    edges = np.asarray(edges, dtype=float)
    xi, _ = _binned_estimate(points, edges, patch_size)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return TabulatedCorrelation(centers, xi)


def _one_realization(config, index):
    rng = realization_rng(config.seed, index)
    centers = sample_centers(config, rng)
    points = sample_disk_points(centers, config, rng)
    return _binned_estimate(points, config.bin_edges, config.patch_size)


def run_ensemble(config, threads=1):
    """Run the configured ensemble and reduce it to per-bin statistics.

    Realizations are independent; with threads > 1 they run on a thread
    pool, and because each one seeds its own generator from (seed, index)
    the result is identical to the serial order.
    """
    indices = range(config.n_realizations)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: _one_realization(config, i), indices))
    else:
        results = [_one_realization(config, i) for i in indices]

    xi = np.array([r[0] for r in results])
    dd = np.array([r[1] for r in results])
    n_pairs = dd.sum(axis=0)
    # A bin that one realization left empty is a measured DD = 0, and RR is
    # the same in every realization, so its estimate there is -1.  Averaging
    # only the realizations that caught pairs would bias sparse bins upward.
    measured = np.where(dd > 0, xi, -1.0)
    mean = measured.mean(axis=0)
    if config.n_realizations > 1:
        rms = measured.std(axis=0, ddof=1)
    else:
        rms = np.full(xi.shape[1], np.nan)
    mean[n_pairs == 0] = np.nan
    rms[n_pairs == 0] = np.nan
    return RealizationStats(
        theta_edges=config.bin_edges,
        mean=mean,
        rms=rms,
        n_pairs=n_pairs,
        per_realization=xi,
        config=config,
    )
