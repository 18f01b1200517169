"""Seeded Monte Carlo disk fields on a flat periodic patch.

The patch is a torus of side L, so coordinates lie in [0, L) and every
distance is to the nearest periodic image.  Each realization draws disk
centers (uniform, optionally hard-core), sprinkles points uniformly over
each disk's area, and estimates the correlation as DD/RR - 1.  With no
edge to lose pairs at, RR up to L/2 is exactly the annulus area, so the
estimator needs neither random catalogs nor an edge correction.

Pairs are counted on a cell list ("gridlink", Sinha & Garrison, MNRAS
491, 3022, 2020).  The points are sorted into mx periodic columns, mx =
floor(L / theta_max) (less a 1e-9 relative slack, and at most sqrt(N)),
so a column is wider than theta_max, and each column into rows of
1/``ROWS_PER_REACH`` of its width; every pair within theta_max then lies
in one column or in two neighbouring ones, at most ``ROWS_PER_REACH``
rows apart.  A point's partners are two runs of consecutive sorted
points: the later points of its own column in rows cy..cy+8, and the
points of the next column cx+1 (mod mx) in rows cy-8..cy+8.  A run that
crosses the patch edge continues at the other side as a second run.
The pairs with the previous column are met from that column, so every
pair is met once.  With mx < 3 the next column would also be the
previous one, and when all pairs fit in one block a grid does not pay,
so then there is one run per point: all pairs i < j.  The candidates
are cut into blocks of at most ``PAIR_BLOCK`` pairs; a block repeats
each run's point and partner offset (np.repeat) over the part of the run
that lies in it, so memory is O(N + PAIR_BLOCK), not O(pairs): a 1.6 MB
allocation peak for a 2,560-point realization with 0.93M pairs within
theta_max.  An ensemble keeps only each realization's DD and turns the
stacked counts into estimates once, against the RR they all share.
Distances are to the nearest image per axis, but only a block with a
run that may cross the patch edge (a wrapped part, the last column's
next column, or any run of the one-run-per-point case) is folded to it:
on the other runs a raw |dx| or |dy| of at most L/2 is already the
nearest-image one, and a larger one puts the pair beyond reach either
way.  The squared distances dx^2 + dy^2 are binned against squared
edges, with no sqrt: entry k is the smallest double t with sqrt(t) >=
e_k, and the last the smallest with sqrt(t) > e_n.  A correctly rounded
sqrt is monotone, so this bins every pair exactly as np.histogram bins
sqrt(dx^2 + dy^2): [e_k, e_k+1), the last bin closed.

Determinism contract: every realization i derives its generator from
(seed, i), so ensembles are reproducible bit for bit regardless of how
many threads run them.  ``run_ensemble`` splits the realizations into
one contiguous chunk per thread, counted with one set of buffers, and
the calling thread counts the first chunk.
"""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .transforms import BLOCK_BYTES, TabulatedCorrelation, _require_positive

__all__ = [
    "DiskEnsembleConfig",
    "RealizationStats",
    "PackingError",
    "realization_rng",
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

# Hard-core center candidates drawn and tested together.
CENTER_BLOCK = 64

# Candidate pairs counted together; the counter's arrays are this long, and
# its two coordinate arrays, 32 bytes a candidate, fill BLOCK_BYTES.
PAIR_BLOCK = BLOCK_BYTES // 32

# Rows per column width: a pair within theta_max is at most this many rows apart.
ROWS_PER_REACH = 8


class PackingError(RuntimeError):
    """Raised when a hard-core configuration cannot be packed."""


def _require_count(**kwargs):
    """Raise ValueError naming the first keyword whose value is not an integer >= 1."""
    for name, value in kwargs.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
        _require_count(n_disks=self.n_disks, points_per_disk=self.points_per_disk,
                       n_realizations=self.n_realizations, n_bins=self.n_bins)
        _require_positive(patch_size=self.patch_size)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        lo, hi = self.radius_range
        for r in (lo, hi):
            _require_positive(radius=r)
        if lo > hi:
            raise ValueError("radius range must have r_min <= r_max")
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


def _min_image(d, size, scratch=None):
    """Turn coordinate differences d into nearest-image distances, in place.

    ``scratch``, an array of d's shape, saves allocating size - d.
    """
    np.abs(d, out=d)
    return np.minimum(d, np.subtract(size, d, out=scratch), out=d)


def _clashes(a, b, size, d_min2):
    """Whether a[p] and b[q] sit at most sqrt(d_min2) apart, as a (p, q) matrix."""
    d = _min_image(a[:, None, :] - b[None, :, :], size)
    d *= d
    return d[..., 0] + d[..., 1] <= d_min2


def sample_centers(config, rng):
    """Draw disk centers uniformly in the periodic patch.

    With hard_core, a center is kept only when farther than twice the
    largest radius from every earlier one (sequential rejection).  Runs
    out of attempts only for near-jamming requests that slipped past the
    coverage bound, and then raises PackingError.

    Candidates are drawn ``CENTER_BLOCK`` at a time, which is the same
    stream as drawing them one by one, and tested against the placed
    centers at once and against each other through a clash matrix.  A
    block cut short by the last placement is redrawn up to its last used
    candidate, so the generator ends where a one-at-a-time loop leaves it.
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
        k = min(CENTER_BLOCK, budget - attempts)
        state = rng.bit_generator.state
        cand = rng.uniform(0.0, size, (k, 2))
        free = ~_clashes(out[:placed], cand, size, d_min2).any(axis=0)
        # Bit a of earlier[c] says candidate c clashes with earlier candidate a.
        earlier = np.tril(_clashes(cand, cand, size, d_min2), -1)
        earlier = (earlier * (np.uint64(1) << np.arange(k, dtype=np.uint64))).sum(axis=1).tolist()
        taken = 0
        used = k
        for c in np.flatnonzero(free).tolist():
            if earlier[c] & taken:
                continue
            taken |= 1 << c
            out[placed] = cand[c]
            placed += 1
            if placed == n:
                used = c + 1
                break
        attempts += used
        if used < k:
            rng.bit_generator.state = state
            rng.uniform(0.0, size, (used, 2))
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


def _candidate_segments(points, size, reach):
    """The candidate pairs of a column grid, as runs of consecutive partners.

    Returns the points sorted by column and row and, for every nonempty
    run, one segment: the coordinates of the point whose run it is,
    ``shift``, ``bounds`` and ``wraps``.  The candidates form one stream;
    segment s holds stream positions [bounds[s], bounds[s+1]), and
    position p pairs the segment's point with sorted point p + shift[s].
    ``wraps[s]`` marks a run that may cross the patch edge.  On any other
    run a raw |dx| or |dy| of at most L/2 is already the nearest-image
    one, and a larger one puts the pair beyond reach either way.
    """
    n = points.shape[0]
    # The slack keeps a column wider than reach through rounding; the grid
    # never has more columns than sqrt(n).
    mx = min(int(size / (reach * (1.0 + 1e-9))), math.isqrt(n))
    if mx < 3 or n * (n - 1) // 2 <= PAIR_BLOCK:
        lo, hi = np.arange(1, n + 1), n  # one run per point: all later points
        wraps = np.ones(n, dtype=bool)
    else:
        my = ROWS_PER_REACH * mx
        cells = (points * (np.array([mx, my]) / size)).astype(np.intp)
        np.minimum(cells, [mx - 1, my - 1], out=cells)
        key = cells[:, 0] * my + cells[:, 1]
        order = key.argsort(kind="stable")
        points = points.take(order, axis=0)
        key = key.take(order)
        start = key.searchsorted(np.arange(mx * my + 1))
        row = key % my
        own = key - row  # the first key of each point's column
        last = row + ROWS_PER_REACH + 1
        # Rows [first, last) of the own column and of the next one, as the
        # part inside the patch and the part that crosses its top or bottom
        # edge, which continues my rows away at the other side.
        other_side = np.where(last > my, my, -my)
        runs = []
        for col, first in ((own, row), ((own + my) % (mx * my), row - ROWS_PER_REACH)):
            rows = np.array([first, last])
            runs += [col + np.clip(rows, 0, my), col + np.clip(rows - other_side, 0, my)]
        lo, hi = start.take(np.array(runs).transpose(1, 0, 2))
        lo[0] = np.arange(1, n + 1)  # own column: later points only
        # The parts that cross the top or bottom edge, and the last
        # column's next column, which is the first.
        wraps = np.zeros((4, n), dtype=bool)
        wraps[1::2] = True
        wraps[2] = own == (mx - 1) * my
    length = (hi - lo).reshape(-1)
    visit = np.flatnonzero(length > 0)
    bounds = np.zeros(visit.size + 1, dtype=np.intp)
    np.add.accumulate(length.take(visit), out=bounds[1:])
    # A segment's partners start at stream position bounds[s].
    shift = lo.reshape(-1).take(visit) - bounds[:-1]
    return points, points.take(visit % n, axis=0), shift, bounds, wraps.reshape(-1).take(visit)


def _squared_edges(edges):
    """Thresholds on d2 that bin it as np.histogram bins sqrt(d2) on ``edges``.

    Entry k is the smallest double t with sqrt(t) >= e_k, and the last
    entry the smallest with sqrt(t) > e_n, for the closed last bin.  A
    correctly rounded sqrt is monotone, so sqrt(d2) >= e_k exactly when
    d2 >= t_k.
    """
    goal = edges.astype(float)
    goal[-1] = math.nextafter(goal[-1], math.inf)  # sqrt(t) > e_n, in doubles
    t = goal * goal
    # sqrt(t) >= goal exactly when t exceeds the square of the midpoint
    # between goal and the double below it, 0.7 to 1.5 ulps under goal^2:
    # so the answer is goal*goal or the double below it, or, where goal^2
    # is subnormal or underflows, the double above it.
    below = np.nextafter(t, 0.0)
    np.copyto(t, below, where=np.sqrt(below) >= goal)
    np.copyto(t, np.nextafter(t, np.inf), where=np.sqrt(t) < goal)
    return t


def _pair_counts(point_sets, edges, size):
    """DD of each point set in turn, one row per set: pairs per bin of ``edges``
    at nearest-image distance, counted on a cell list a block at a time."""
    table = _squared_edges(edges)
    step = np.arange(PAIR_BLOCK)
    buffers = (np.empty((step.size, 2)), np.empty(step.size))
    rows = []
    for points in point_sets:
        points, visitors, shift, bounds, wraps = _candidate_segments(points, size, edges[-1])
        dd = np.zeros(edges.size - 1, dtype=np.intp)
        total = int(bounds[-1])
        for b0 in range(0, total, step.size):
            k = min(step.size, total - b0)
            s0 = int(bounds.searchsorted(b0, side="right")) - 1
            s1 = int(bounds.searchsorted(b0 + k, side="left"))
            tmp, d2 = (buf[:k] for buf in buffers)
            # Each segment's run, clipped to the block, gives its candidates.
            cut = bounds[s0:s1 + 1].copy()
            cut[0], cut[-1] = b0, b0 + k
            count = cut[1:] - cut[:-1]
            j = (shift[s0:s1] + b0).repeat(count)
            j += step[:k]
            d = visitors[s0:s1].repeat(count, axis=0)
            points.take(j, axis=0, out=tmp, mode="clip")
            d -= tmp
            if np.count_nonzero(wraps[s0:s1]):
                _min_image(d, size, tmp)
            d *= d
            np.add(d[:, 0], d[:, 1], out=d2)
            near_d2 = d2[d2 < table[-1]]
            # np.histogram's own binning: sort, then count up to each squared edge.
            near_d2.sort()
            below = near_d2.searchsorted(table)
            dd += below[1:]
            dd -= below[:-1]
        rows.append(dd)
    return rows


def estimate_correlation(points, edges, patch_size):
    """Pair-count correlation estimate DD/RR - 1 on the given bins.

    Pairs are counted at nearest-image separation against the exact
    uniform RR, so a uniform point set scatters around zero.  Bins that
    caught no pairs yield NaN (missing), never a fake zero.  Requires at
    least two finite points in [0, patch_size) and finite bins inside
    (0, patch_size/2); anything else is rejected before counting.
    """
    _require_positive(patch_size=patch_size)
    points = np.asarray(points, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] != 2:
        raise ValueError("need at least two 2-D points")
    if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
            or (edges[1:] <= edges[:-1]).any()):
        raise ValueError("edges must be finite and increasing with at least one bin")
    # A NaN fails both comparisons, so it is rejected with the strays.
    if not ((points >= 0) & (points < patch_size)).all():
        raise ValueError(f"points must be finite and lie in the periodic patch [0, {patch_size:g})")
    rr = pair_count_baseline(len(points), edges, patch_size)
    dd = _pair_counts([points], edges, patch_size)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    return TabulatedCorrelation(centers, np.where(dd > 0, dd / rr - 1.0, np.nan))


def run_ensemble(config, threads=1):
    """Run the configured ensemble and reduce it to per-bin statistics.

    The realizations are split into ``threads`` contiguous chunks, each
    drawn lazily and counted in one set of buffers; the caller counts the
    first and threads - 1 workers the rest, so at threads=1 no thread
    starts.  Each realization seeds its own generator from (seed, index),
    so the split never shows in the result.  The estimates are derived from
    the stacked pair counts DD and the one RR that every realization shares.
    """
    _require_count(threads=threads)
    edges = config.bin_edges

    def pair_counts(chunk):
        rngs = (realization_rng(config.seed, index) for index in chunk)
        points = (sample_disk_points(sample_centers(config, rng), config, rng) for rng in rngs)
        return _pair_counts(points, edges, config.patch_size)

    first, *rest = np.array_split(np.arange(config.n_realizations), threads)
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        others = [pool.submit(pair_counts, chunk) for chunk in rest]
        dd = np.array(pair_counts(first) + [row for f in others for row in f.result()])

    rr = pair_count_baseline(config.n_disks * config.points_per_disk, edges, config.patch_size)
    # A bin that one realization left empty is a measured DD = 0, so its
    # estimate there is exactly -1.  Averaging only the realizations that
    # caught pairs would bias sparse bins upward.
    measured = dd / rr - 1.0
    n_pairs = dd.sum(axis=0)
    mean = measured.mean(axis=0)
    if config.n_realizations > 1:
        rms = measured.std(axis=0, ddof=1)
    else:
        rms = np.full(edges.size - 1, np.nan)
    mean[n_pairs == 0] = np.nan
    rms[n_pairs == 0] = np.nan
    return RealizationStats(
        theta_edges=edges,
        mean=mean,
        rms=rms,
        n_pairs=n_pairs,
        per_realization=np.where(dd > 0, measured, np.nan),
    )
