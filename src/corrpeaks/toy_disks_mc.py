"""Seeded Monte Carlo disk fields on a flat periodic patch.

The patch is a torus of side L, so coordinates lie in [0, L) and every
distance is to the nearest periodic image.  Each realization draws disk
centers (uniform, optionally hard-core), sprinkles points uniformly over
each disk's area, and estimates the correlation as DD/RR - 1.  With no
edge to lose pairs at, RR up to L/2 is exactly the annulus area, so the
estimator needs neither random catalogs nor an edge correction.

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
            hi = min(4.0 * self.radius_range[1], self.patch_size / 2)
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


def _min_image(d, size):
    """Turn coordinate differences d into nearest-image distances, in place."""
    np.abs(d, out=d)
    return np.minimum(d, size - d, out=d)


def sample_centers(config, rng):
    """Draw disk centers uniformly in the periodic patch.

    With hard_core, a center is kept only when farther than twice the
    largest radius from every earlier one (sequential rejection).  Runs
    out of attempts only for near-jamming requests that slipped past the
    coverage bound, and then raises PackingError.
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
            d = _min_image(out[:placed] - cand, size)
            if np.sum(d**2, axis=1).min() <= d_min2:
                continue
        out[placed] = cand
        placed += 1
    return out


def sample_disk_points(centers, config, rng):
    """Sprinkle points uniformly over each disk's area, wrapped into the patch.

    Radius scaling r = R sqrt(u) makes the density area-uniform.  A disk
    that crosses the boundary continues on the opposite side, so every
    realization has exactly N_c N_p points, all in [0, L).
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
    points = np.mod((centers[:, None, :] + offsets).reshape(-1, 2), config.patch_size)
    # A tiny negative coordinate rounds up to exactly L under mod.
    points[points == config.patch_size] = 0.0
    return points


def pair_count_baseline(n_points, edges, patch_size):
    """Expected pair counts per bin for a uniform process on the periodic patch.

    A pair lands at nearest-image distance in [t1, t2] with probability
    pi (t2^2 - t1^2) / L^2, exactly for t2 <= L/2: no random catalogs needed.
    """
    edges = np.asarray(edges, dtype=float)
    if edges[0] < 0 or edges[-1] > patch_size / 2 + 1e-12:
        raise ValueError("bins must lie within (0, patch_size/2)")
    n_pairs = n_points * (n_points - 1) / 2.0
    return n_pairs * math.pi * np.diff(edges**2) / patch_size**2


def _binned_estimate(points, edges, patch_size):
    """Estimator core on an edges array: (DD/RR - 1 with NaN for empty bins, DD)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] != 2:
        raise ValueError("need at least two 2-D points")
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be increasing with at least one bin")
    if np.any(points < 0) or np.any(points >= patch_size):
        raise ValueError(f"points must lie in the periodic patch [0, {patch_size:g})")

    rr = pair_count_baseline(points.shape[0], edges, patch_size)
    tree = cKDTree(points, boxsize=patch_size)
    pairs = tree.query_pairs(r=float(edges[-1]), output_type="ndarray")
    d = _min_image(points.take(pairs[:, 0], axis=0) - points.take(pairs[:, 1], axis=0), patch_size)
    dd, _ = np.histogram(np.sqrt(np.einsum("ij,ij->i", d, d)), bins=edges)

    xi = np.where(dd > 0, dd / rr - 1.0, np.nan)
    return xi, dd


def estimate_correlation(points, edges, patch_size):
    """Pair-count correlation estimate DD/RR - 1 on the given bins.

    Pairs are counted at nearest-image separation against the exact
    uniform RR, so a uniform point set scatters around zero.  Bins that
    caught no pairs yield NaN (missing), never a fake zero.  Requires at
    least two points in [0, patch_size) and bins inside (0, patch_size/2).
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
