"""Monte Carlo disk fields: determinism, sampling laws, estimator checks."""

import math
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist
from scipy.stats import kstest

from corrpeaks import toy_disks_mc
from corrpeaks import (
    DiskEnsembleConfig,
    PackingError,
    correlation_toy1,
    estimate_correlation,
    pair_count_baseline,
    preset_case,
    realization_rng,
    run_ensemble,
    sample_centers,
    sample_disk_points,
)

R = math.radians(1.0)


# Distances are sqrt(dx^2 + dy^2), the estimator's own arithmetic, not
# hypot: the two can differ in the last bit, which moves a distance that
# lands on a bin edge into the next bin.


def torus_norm(diff, size):
    """Length of each row of coordinate differences on a torus of side size."""
    d = np.abs(diff)
    dx, dy = np.minimum(d, size - d).T
    return np.sqrt(dx * dx + dy * dy)


def torus_pdist(points, size):
    """Condensed pairwise nearest-image distances, in pdist's pair order."""
    dx, dy = (pdist(points[:, [axis]]) for axis in (0, 1))
    for d in (dx, dy):
        np.minimum(d, size - d, out=d)
    return np.sqrt(dx * dx + dy * dy)


def small_config(**kw):
    base = dict(
        n_disks=40,
        radius=R,
        points_per_disk=16,
        patch_size=0.5,
        n_realizations=8,
        seed=123,
        n_bins=24,
    )
    base.update(kw)
    return DiskEnsembleConfig(**base)


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_bit_identical():
    cfg = small_config()
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    npt.assert_array_equal(a.mean, b.mean)
    npt.assert_array_equal(a.rms, b.rms)
    npt.assert_array_equal(a.per_realization, b.per_realization)
    npt.assert_array_equal(a.n_pairs, b.n_pairs)


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_thread_count_never_shows_in_results(threads):
    # 5 realizations: chunks of 3 and 2, of 2, 2 and 1, or five of one
    cfg = small_config(n_realizations=5)
    serial = run_ensemble(cfg, threads=1)
    parallel = run_ensemble(cfg, threads=threads)
    for field in ("theta_edges", "mean", "rms", "n_pairs", "per_realization"):
        npt.assert_array_equal(getattr(serial, field), getattr(parallel, field), err_msg=field)


def test_one_thread_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("run_ensemble started a thread at threads=1")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    stats = run_ensemble(small_config(n_realizations=3), threads=1)
    assert stats.per_realization.shape == (3, 24)


def test_no_thread_starts_for_an_empty_chunk(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    stats = run_ensemble(small_config(n_realizations=2), threads=8)
    assert stats.per_realization.shape == (2, 24)
    assert len(started) <= 1


def test_an_ensemble_without_a_pair_is_refused_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a realization was drawn")

    monkeypatch.setattr(toy_disks_mc, "sample_centers", no_draw)
    cfg = small_config(n_disks=1, points_per_disk=1, n_realizations=2)
    with pytest.raises(ValueError, match="n_disks \\* points_per_disk must be at least 2"):
        run_ensemble(cfg)


@pytest.mark.parametrize("threads", [0, -2, 2.5, True, None])
def test_run_ensemble_rejects_a_thread_count_that_is_not_a_positive_integer(threads):
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        run_ensemble(small_config(n_realizations=2), threads=threads)


def test_seed_changes_results():
    a = run_ensemble(small_config(seed=1))
    b = run_ensemble(small_config(seed=2))
    assert not np.array_equal(a.mean, b.mean)


def test_realization_streams_are_distinct():
    r0 = realization_rng(7, 0).uniform(size=4)
    r1 = realization_rng(7, 1).uniform(size=4)
    again = realization_rng(7, 0).uniform(size=4)
    npt.assert_array_equal(r0, again)
    assert not np.array_equal(r0, r1)


# ---------------------------------------------------------------------------
# sampling laws


def reference_centers(config, rng):
    """The one-at-a-time rejection loop that the block sampler reproduces."""
    n, size = config.n_disks, config.patch_size
    d_min2 = (2.0 * config.radius_range[1]) ** 2
    out = np.empty((n, 2))
    placed = attempts = 0
    budget = toy_disks_mc.MAX_ATTEMPTS_PER_DISK * n
    while placed < n:
        if attempts >= budget:
            raise PackingError(
                f"gave up after {attempts} attempts with {placed}/{n} centers placed")
        attempts += 1
        cand = rng.uniform(0.0, size, 2)
        if placed:
            d = np.abs(out[:placed] - cand)
            d = np.minimum(d, size - d)
            if np.sum(d**2, axis=1).min() <= d_min2:
                continue
        out[placed] = cand
        placed += 1
    return out


# 190 disks of radius 0.02 cover N pi (2R)^2 = 0.955 of the unit patch,
# near PACKING_LIMIT (1.1); most candidates are rejected there.
NEAR_JAMMING = dict(n_disks=190, radius=0.02)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("disks", [dict(n_disks=80, radius=R), NEAR_JAMMING])
def test_block_sampler_matches_the_one_at_a_time_loop(seed, disks):
    # same centers, and the generator left in the same state, so the
    # points drawn next are the same too
    cfg = small_config(patch_size=1.0, hard_core=True, **disks)
    rng, ref_rng = realization_rng(seed, 0), realization_rng(seed, 0)
    npt.assert_array_equal(sample_centers(cfg, rng), reference_centers(cfg, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_packing_error_counts_attempts_per_candidate(monkeypatch):
    monkeypatch.setattr(toy_disks_mc, "MAX_ATTEMPTS_PER_DISK", 1)
    cfg = small_config(patch_size=1.0, hard_core=True, **NEAR_JAMMING)
    with pytest.raises(PackingError) as ref:
        reference_centers(cfg, realization_rng(1, 0))
    with pytest.raises(PackingError, match="gave up after 190 attempts") as err:
        sample_centers(cfg, realization_rng(1, 0))
    assert str(err.value) == str(ref.value)


def test_centers_fill_the_square():
    cfg = small_config(n_disks=2000)
    pts = sample_centers(cfg, realization_rng(0, 0))
    assert pts.shape == (2000, 2)
    assert pts.min() >= 0.0 and pts.max() < cfg.patch_size
    # both coordinates uniform
    for axis in (0, 1):
        stat = kstest(pts[:, axis] / cfg.patch_size, "uniform").statistic
        assert stat < 0.035


def test_single_center_trivial():
    cfg = small_config(n_disks=1, points_per_disk=1, n_realizations=1)
    pts = sample_centers(cfg, realization_rng(5, 0))
    assert pts.shape == (1, 2)


def test_hard_core_separation_is_exact():
    cfg = small_config(n_disks=60, patch_size=1.0, hard_core=True)
    for index in range(3):
        centers = sample_centers(cfg, realization_rng(cfg.seed, index))
        assert torus_pdist(centers, cfg.patch_size).min() > 2.0 * R


def test_infeasible_packing_raises_before_sampling():
    with pytest.raises(PackingError):
        DiskEnsembleConfig(
            n_disks=4000, radius=0.05, patch_size=1.0, hard_core=True
        )


def test_disk_points_stay_in_their_disk_and_follow_area_law():
    cfg = small_config(n_disks=100, points_per_disk=1000, patch_size=4.0)
    rng = realization_rng(3, 0)
    centers = sample_centers(cfg, rng)
    pts = sample_disk_points(centers, cfg, rng)
    assert pts.shape == (100 * 1000, 2)
    assert pts.min() >= 0.0 and pts.max() < cfg.patch_size

    owner = np.repeat(centers, cfg.points_per_disk, axis=0)
    dist = torus_norm(pts - owner, cfg.patch_size)
    assert dist.max() <= R * (1 + 1e-12)
    # area-uniform: (r/R)^2 is uniform on [0, 1]
    assert kstest((dist / R) ** 2, "uniform").statistic < 0.02


def test_wrapped_points_never_land_on_the_patch_side():
    # A point a hair left of x = 0 wraps to L - 1e-17, which rounds to L.
    class Draws:
        def random(self, shape):
            return np.full(shape, 1e-30)

        def uniform(self, lo, hi, shape):
            return np.full(shape, math.pi)

    cfg = small_config(n_disks=1, points_per_disk=1)
    pts = sample_disk_points(np.array([[0.0, 0.25]]), cfg, Draws())
    assert 0.0 <= pts[0, 0] < cfg.patch_size


def test_one_point_per_disk():
    cfg = small_config(n_disks=17, points_per_disk=1)
    rng = realization_rng(0, 0)
    pts = sample_disk_points(sample_centers(cfg, rng), cfg, rng)
    assert pts.shape == (17, 2)


def test_variable_radius_draws_span_the_range():
    cfg = small_config(n_disks=400, points_per_disk=4, radius=(0.5 * R, 2.0 * R), patch_size=2.0)
    rng = realization_rng(1, 0)
    centers = sample_centers(cfg, rng)
    pts = sample_disk_points(centers, cfg, rng)
    owner = np.repeat(centers, cfg.points_per_disk, axis=0)
    dist = torus_norm(pts - owner, cfg.patch_size)
    assert dist.max() <= 2.0 * R * (1 + 1e-12)
    per_disk_max = dist.reshape(400, 4).max(axis=1)
    assert per_disk_max.max() > 1.2 * R  # some large disks in play
    assert (per_disk_max < 0.6 * R).sum() > 20  # and some small ones


# ---------------------------------------------------------------------------
# estimator


def test_pair_baseline_matches_brute_force_on_uniform_points():
    # with DD from an actual uniform sample, DD/RR ~ 1 in every bin
    rng = np.random.default_rng(7)
    n, patch = 3000, 0.7
    pts = rng.uniform(0.0, patch, size=(n, 2))
    edges = np.linspace(0.0, 0.3, 13)
    dd, _ = np.histogram(torus_pdist(pts, patch), bins=edges)
    rr = pair_count_baseline(n, edges, patch)
    assert rr.shape == (12,)
    npt.assert_allclose(dd / rr, 1.0, atol=0.04)
    # the estimator counts exactly these nearest-image pairs
    tab = estimate_correlation(pts, edges, patch)
    npt.assert_allclose((1.0 + tab.values) * rr, dd, rtol=1e-9)


def pair_counts(points, edges, size):
    """DD as the estimator counts it."""
    return toy_disks_mc._pair_counts([points], np.asarray(edges, dtype=float), size)[0]


def kdtree_counts(points, edges, size):
    # The tree's reach has a hair of slack, so that a pair its own distance
    # arithmetic puts just past the last edge is still binned here.
    pairs = cKDTree(points, boxsize=size).query_pairs(edges[-1] * (1 + 1e-9),
                                                      output_type="ndarray")
    dist = torus_norm(points[pairs[:, 0]] - points[pairs[:, 1]], size)
    return np.histogram(dist, bins=edges)[0]


ORACLE_PATCH = 0.7


def oracle_points(kind, n, reach, rng):
    """n points of one kind in the patch [0, ORACLE_PATCH)."""
    size = ORACLE_PATCH
    if kind == "uniform":
        return rng.uniform(0.0, size, (n, 2))
    if kind == "clustered":
        n_disks = 1 if n < 20 else 20
        cfg = small_config(n_disks=n_disks, points_per_disk=n // n_disks,
                           radius=0.3 * reach, patch_size=size)
        return sample_disk_points(sample_centers(cfg, rng), cfg, rng)
    if kind == "hard-core":
        cfg = small_config(n_disks=n, radius=min(0.25 * reach, 0.01), patch_size=size,
                           hard_core=True)
        return sample_centers(cfg, rng)
    if kind == "corner":
        # Within reach of the corner on both axes, so that runs cross both
        # patch edges and a point's own column continues past the edge.
        pts = rng.uniform(-reach, reach, (n, 2)) % size
        pts[pts == size] = 0.0
        return pts
    # Coordinates on the lines of the grids the counter may pick: multiples
    # of L/(8 mx) for mx columns as wide as reach or a hair wider, or capped
    # at sqrt(n), and of reach/8; at 0 and at the last float below L.
    lines = [np.arange(1, 8 * m) * (size / (8 * m))
             for m in sorted({int(size / reach), int(size / reach) - 1, math.isqrt(n)}) if m > 0]
    coords = np.concatenate([
        [0.0, np.nextafter(size, 0.0)],
        np.arange(1, 8 * int(size / reach) + 1) * (reach / 8) % size,
        *lines,
    ])
    corners = [[0.0, 0.0], [coords[1], coords[1]], [0.0, coords[1]], [coords[1], 0.0]]
    return np.concatenate([corners, rng.choice(coords, (n, 2))])[:n]


@pytest.mark.parametrize("reach", [1e-4 * ORACLE_PATCH, ORACLE_PATCH / 5, ORACLE_PATCH / 3.5,
                                   2 * ORACLE_PATCH / 5, ORACLE_PATCH / 2])
@pytest.mark.parametrize("kind", ["uniform", "clustered", "hard-core", "lattice", "corner"])
def test_pair_counts_match_brute_force_and_a_kd_tree(kind, reach):
    # every pair at nearest-image distance in [e_k, e_k+1), the last bin
    # closed, exactly as np.histogram bins the full pair list
    rng = np.random.default_rng([7, int(reach * 1e6)])
    for n in (2, 3, 6, 400):
        pts = oracle_points(kind, n, reach, rng)
        assert pts.shape == (n, 2) and pts.min() >= 0.0 and pts.max() < ORACLE_PATCH
        for n_bins in (1, 7, 64):
            edges = np.linspace(0.0, reach, n_bins + 1)
            dd = pair_counts(pts, edges, ORACLE_PATCH)
            npt.assert_array_equal(
                dd, np.histogram(torus_pdist(pts, ORACLE_PATCH), bins=edges)[0],
                err_msg=f"{kind}, n={n}, {n_bins} bins")
            npt.assert_array_equal(dd, kdtree_counts(pts, edges, ORACLE_PATCH))


def test_a_pair_at_the_last_edge_counts_even_if_its_square_rounds_past_it():
    # sqrt(dx^2 + dy^2) == reach although dx^2 + dy^2 > reach^2 in floats:
    # the last bin is closed, so the pair is in it
    reach = 0.14
    angle = np.linspace(0.1, 1.4, 2001)
    dx, dy = reach * np.cos(angle), reach * np.sin(angle)
    d2 = dx * dx + dy * dy
    on_edge = np.flatnonzero((np.sqrt(d2) == reach) & (d2 > reach * reach))
    assert on_edge.size > 0
    pts = np.array([[0.0, 0.0], [dx[on_edge[0]], dy[on_edge[0]]]])
    npt.assert_array_equal(pair_counts(pts, np.linspace(0.0, reach, 4), 1.0), [0, 0, 1])


EDGE_SETS = [
    np.linspace(0.0, 0.3, 65),
    np.linspace(0.0, ORACLE_PATCH / 2, 8),
    np.concatenate([[0.0], np.sort(np.random.default_rng(4).uniform(0.0, 0.5, 60))]),
    np.concatenate([[0.0], np.geomspace(1e-7, 0.4, 40)]),
    # squares that are subnormal or underflow to zero
    np.array([0.0, 1e-170, 2e-160, 3e-155, 0.1]),
]


@pytest.mark.parametrize("edges", EDGE_SETS,
                         ids=["linear", "half-patch", "random", "geometric", "tiny"])
def test_squared_edges_are_the_smallest_doubles_that_reach_each_edge(edges):
    table = toy_disks_mc._squared_edges(edges)
    below = np.nextafter(table, 0.0)
    inner, last = slice(None, -1), -1
    # [e_k, e_k+1): sqrt(t_k) >= e_k, and no smaller double gets there
    assert (np.sqrt(table[inner]) >= edges[inner]).all()
    assert ((np.sqrt(below[inner]) < edges[inner]) | (table[inner] == 0.0)).all()
    # the last bin is closed: t_n is the first double past it
    assert np.sqrt(table[last]) > edges[last] >= np.sqrt(below[last])


def test_pairs_on_interior_edges_bin_as_np_histogram_bins_their_distance():
    # dx within 4 ulps of an interior edge e_k and dy from 0 to a few ulps
    # of e_k**2 in dy*dy, so that dx*dx + dy*dy takes every double next to
    # the squared edge: below and above e_k**2, at sqrt == e_k and short of it
    for edges in (np.linspace(0.0, 0.3, 7), np.array([0.0, 0.07, 0.1, 0.23, 0.3])):
        inner = edges[1:-1]
        table = toy_disks_mc._squared_edges(edges)[1:-1]
        # where e*e itself would bin sqrt == e_k one bin low
        assert (table != inner * inner).any() and (table == inner * inner).any()
        grids = [np.meshgrid(e * (1.0 + np.arange(-4, 5) * 2.0**-52),
                             np.sqrt(np.arange(7) * np.spacing(e * e))) for e in inner]
        dx, dy = (np.concatenate([g[axis].reshape(-1) for g in grids]) for axis in (0, 1))
        d2 = dx * dx + dy * dy
        assert np.isin(table, d2).all() and np.isin(np.nextafter(table, 0.0), d2).all()
        sets = [np.array([[0.0, 0.0], [x, y]]) for x, y in zip(dx, dy)]
        rows = toy_disks_mc._pair_counts(sets, edges, 1.0)
        npt.assert_array_equal(rows, [np.histogram(r, bins=edges)[0] for r in np.sqrt(d2)])


@pytest.mark.parametrize("reach", [ORACLE_PATCH / 5, ORACLE_PATCH / 3.5, 0.05])
@pytest.mark.parametrize("kind", ["uniform", "lattice", "corner"])
def test_a_run_not_marked_as_wrapping_needs_no_nearest_image(kind, reach):
    # On a run that is not marked, every candidate's raw difference is the
    # nearest-image one on both axes, or the pair is out of reach either way.
    size = ORACLE_PATCH
    limit = toy_disks_mc._squared_edges(np.array([0.0, reach]))[-1]
    rng = np.random.default_rng([9, int(reach * 1e6)])
    pts = oracle_points(kind, 400, reach, rng)
    points, visitors, shift, bounds, wraps = toy_disks_mc._candidate_segments(pts, size, reach)
    assert not wraps.all()  # the grid was used
    count = np.diff(bounds)
    keep = np.repeat(~wraps, count)
    partner = np.arange(bounds[-1])[keep] + np.repeat(shift, count)[keep]
    raw = np.abs(np.repeat(visitors, count, axis=0)[keep] - points[partner])
    near = np.minimum(raw, size - raw)
    same = (raw == near).all(axis=1)
    out_of_reach = ((raw * raw).sum(axis=1) >= limit) & ((near * near).sum(axis=1) >= limit)
    assert (same | out_of_reach).all()
    if kind == "uniform" and reach > size / 4:
        assert not same.all()  # with mx = 3, some raw |dx| exceed L/2


@pytest.mark.parametrize("reach", [0.05, 0.45])
def test_pair_counts_hold_when_blocks_cut_every_run_of_partners(monkeypatch, reach):
    # blocks of 97 candidates, far shorter than the runs of partners in
    # a single run per point (reach 0.45) or a grid of 19 columns (0.05)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (1500, 2))
    edges = np.linspace(0.0, reach, 9)
    expected = np.histogram(torus_pdist(pts, 1.0), bins=edges)[0]
    monkeypatch.setattr(toy_disks_mc, "PAIR_BLOCK", 97)
    npt.assert_array_equal(pair_counts(pts, edges, 1.0), expected)


def test_reused_buffers_carry_nothing_from_one_point_set_to_the_next(monkeypatch):
    # blocks of 97 candidates: the sets below end mid-block, and a large set
    # is followed by smaller ones, so a stale tail would show
    monkeypatch.setattr(toy_disks_mc, "PAIR_BLOCK", 97)
    rng = np.random.default_rng(11)
    sets = [rng.uniform(0.0, 1.0, (n, 2)) for n in (300, 2, 40, 7, 300, 13)]
    edges = np.linspace(0.0, 0.2, 11)
    rows = toy_disks_mc._pair_counts(sets, edges, 1.0)
    assert len(rows) == len(sets)
    for pts, row in zip(sets, rows):
        npt.assert_array_equal(row, toy_disks_mc._pair_counts([pts], edges, 1.0)[0])
    assert toy_disks_mc._pair_counts([], edges, 1.0) == []


def test_pair_counter_memory_does_not_grow_with_the_pair_count():
    # about 10^6 pairs: listed as two int64 indices each, they alone would
    # take 16 MB; blocks of 2^15 candidates peak at 3.0 MB
    cfg = small_config(n_disks=80, points_per_disk=32, patch_size=1.0, theta_max=0.3)
    rng = realization_rng(2, 0)
    pts = sample_disk_points(sample_centers(cfg, rng), cfg, rng)
    tracemalloc.start()
    try:
        estimate_correlation(pts, cfg.bin_edges, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair_counts(pts, cfg.bin_edges, 1.0).sum() > 900_000
    assert peak < 2.6e6


def test_pair_baseline_rejects_bins_beyond_half_patch():
    with pytest.raises(ValueError):
        pair_count_baseline(100, np.linspace(0.0, 0.6, 5), 1.0)


@pytest.mark.parametrize("stray", [-1e-3, 1.0, math.nan, math.inf, -math.inf])
def test_estimator_rejects_points_outside_the_patch(stray):
    # a NaN coordinate fails both bounds; let through, it would lose its
    # pairs from DD while RR still counts them
    pts = np.array([[0.1, 0.1], [0.2, 0.2], [stray, 0.5]])
    with pytest.raises(ValueError, match="periodic patch"):
        estimate_correlation(pts, np.linspace(0.0, 0.2, 5), 1.0)


def test_estimator_rejects_a_non_finite_edge_before_counting(monkeypatch):
    def refuse(*args):
        raise AssertionError("counted pairs on invalid edges")

    monkeypatch.setattr(toy_disks_mc, "_pair_counts", refuse)
    pts = np.array([[0.1, 0.1], [0.2, 0.2]])
    for edges in ([0.0, math.nan, 0.2], [0.0, 0.1, math.inf]):
        with pytest.raises(ValueError, match="edges must be finite"):
            estimate_correlation(pts, edges, 1.0)


@pytest.mark.parametrize("patch_size", [math.inf, math.nan, 0.0])
def test_estimator_rejects_a_patch_size_that_is_not_finite_and_positive(patch_size):
    pts = np.array([[0.1, 0.1], [0.2, 0.2]])
    with pytest.raises(ValueError, match="patch_size must be finite and positive"):
        estimate_correlation(pts, np.linspace(0.0, 0.2, 5), patch_size)


def test_uniform_field_estimates_to_zero():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.0, 1.0, size=(4000, 2))
    edges = np.linspace(0.0, 0.25, 20)
    tab = estimate_correlation(pts, edges, 1.0)
    assert np.nanmax(np.abs(tab.values)) < 0.1
    npt.assert_allclose(tab.theta, 0.5 * (edges[1:] + edges[:-1]))


def test_empty_bins_are_missing_not_zero():
    pts = np.array([[0.1, 0.1], [0.1, 0.14], [0.6, 0.6]])
    edges = np.array([0.0, 0.02, 0.06, 0.2, 0.4])
    tab = estimate_correlation(pts, edges, 1.0)
    assert np.isnan(tab.values[0])  # nothing that close
    assert np.isfinite(tab.values[1])


def test_case_b_criterion_6_holds_across_seeds():
    # The acceptance criterion-6 statistic for hard-core disks (case b) on
    # seeds where a bounded patch, losing pairs at its edges that the
    # infinite-plane curve keeps, put only 74-87% of bins in band.
    n_eff = 80.0 * 4.0 * math.pi
    fractions = {}
    analytic = None
    for seed in (4, 5, 7, 32):
        cfg = DiskEnsembleConfig(n_disks=80, radius=R, points_per_disk=32, patch_size=1.0,
                                 hard_core=True, n_realizations=50, seed=seed, n_bins=64)
        stats = run_ensemble(cfg)
        window = (stats.theta >= math.radians(0.1)) & (stats.theta <= math.radians(3.0))
        if analytic is None:
            analytic = correlation_toy1(stats.theta[window], *preset_case("b"), n_eff).values
        one_plus = 1.0 + stats.mean[window]
        alpha = analytic[0] / one_plus[0]
        inside = np.abs(analytic - alpha * one_plus) <= alpha * stats.rms[window]
        fractions[seed] = float(np.mean(inside))
    assert min(fractions.values()) >= 0.90, fractions


def test_doubling_points_leaves_the_estimate_consistent():
    # same centers, more points per disk: estimates agree within the
    # shot-noise scale of the sparser one
    edges = np.linspace(0.0, 4 * R, 25)
    cfgs = [small_config(points_per_disk=n, n_realizations=30, seed=9) for n in (16, 32)]
    stats = [run_ensemble(c) for c in cfgs]
    band = np.nan_to_num(stats[0].rms, nan=np.inf) / math.sqrt(30)
    diff = np.abs(stats[0].mean - stats[1].mean)
    ok = np.isnan(diff) | (diff < 4 * band + 1e-12)
    assert ok.mean() > 0.9


def test_rms_is_missing_for_a_single_realization():
    stats = run_ensemble(small_config(n_realizations=1))
    assert np.all(np.isnan(stats.rms))
    assert stats.per_realization.shape == (1, 24)


def test_sparse_ensemble_has_a_mean_wherever_pairs_were_caught():
    # Every realization leaves bins empty.  An empty bin is a measured
    # DD = 0, so xi = -1 there; it must neither poison the bin's ensemble
    # mean with NaN nor be skipped, which would bias sparse bins upward.
    cfg = DiskEnsembleConfig(n_disks=3, points_per_disk=2, n_realizations=20, n_bins=64)
    stats = run_ensemble(cfg)
    caught = stats.n_pairs > 0
    assert 0 < caught.sum() < caught.size
    per = np.where(np.isnan(stats.per_realization), -1.0, stats.per_realization)
    npt.assert_array_equal(stats.mean[caught], per.mean(axis=0)[caught])
    npt.assert_array_equal(stats.rms[caught], per.std(axis=0, ddof=1)[caught])
    assert np.all(np.isnan(stats.mean[~caught])) and np.all(np.isnan(stats.rms[~caught]))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("cfg", [
    DiskEnsembleConfig(n_disks=3, points_per_disk=2, n_realizations=20, n_bins=64),
    DiskEnsembleConfig(n_realizations=6),
], ids=["sparse", "default"])
def test_each_realization_row_is_the_estimate_of_its_points(cfg, threads):
    # the ensemble derives every row from its stacked pair counts and one
    # RR; each row must still be that realization's own estimate, bit for
    # bit, with NaN in the same bins
    stats = run_ensemble(cfg, threads=threads)
    assert stats.per_realization.shape == (cfg.n_realizations, cfg.n_bins)
    for index, row in enumerate(stats.per_realization):
        rng = realization_rng(cfg.seed, index)
        points = sample_disk_points(sample_centers(cfg, rng), cfg, rng)
        expected = estimate_correlation(points, cfg.bin_edges, cfg.patch_size).values
        npt.assert_array_equal(row, expected, err_msg=f"realization {index}")
    if cfg.n_disks == 3:
        assert np.isnan(stats.per_realization).any()


def test_rms_shrinks_like_root_n_realizations():
    # the ensemble spread is a property of one realization; the error of
    # the MEAN scales as 1/sqrt(n). Check the mean of two disjoint
    # 12-realization blocks scatters ~2x more than 48-realization blocks.
    big = run_ensemble(small_config(n_realizations=48, seed=31))
    per = big.per_realization
    m12 = np.nanmean(per[:12], axis=0)
    m48 = np.nanmean(per, axis=0)
    s12 = np.nanstd(per[:12], axis=0, ddof=1)
    s48 = np.nanstd(per, axis=0, ddof=1)
    # rms itself is n-independent (both estimate the same spread)
    ratio = np.nanmedian(s12 / s48)
    assert 0.6 < ratio < 1.6
    del m12, m48


def test_ensemble_bins_and_counts_are_consistent():
    cfg = small_config()
    stats = run_ensemble(cfg)
    assert stats.theta_edges.size == cfg.n_bins + 1
    assert stats.theta.size == cfg.n_bins
    assert stats.n_pairs.dtype.kind in "iu"
    assert np.all(stats.n_pairs >= 0)
    # defaults bin out to 4 R
    assert stats.theta_edges[-1] == pytest.approx(4 * R)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_disks=0)
    with pytest.raises(ValueError):
        small_config(points_per_disk=0)
    with pytest.raises(ValueError):
        small_config(patch_size=-1.0)
    with pytest.raises(ValueError):
        small_config(n_realizations=0)
    with pytest.raises(ValueError):
        small_config(radius=(2.0 * R, 0.5 * R))


@pytest.mark.parametrize("field", ["n_disks", "points_per_disk", "n_realizations", "n_bins"])
@pytest.mark.parametrize("value", [2.5, 3.0, "4", True])
def test_config_rejects_a_count_that_is_not_an_integer_by_name(field, value):
    # the ensemble splits np.arange(n_realizations), which would run 3
    # realizations for 2.5
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        small_config(**{field: value})


@pytest.mark.parametrize("seed", [math.nan, math.inf, True, -1, 2.5])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer_by_name(seed):
    # NaN and inf failed converting to int, with messages that did not
    # name the seed, and True was taken as seed 1
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        small_config(seed=seed)


def test_config_takes_numpy_integer_counts():
    cfg = small_config(n_disks=np.int64(40), n_realizations=np.int32(2), n_bins=np.int64(24))
    assert run_ensemble(cfg).per_realization.shape == (2, 24)


@pytest.mark.parametrize("hard_core", [False, True])
def test_config_rejects_an_infinite_patch_by_name(hard_core):
    # an infinite patch would only fail later, inside the sampler
    with pytest.raises(ValueError, match="patch_size must be finite and positive"):
        small_config(patch_size=math.inf, hard_core=hard_core)


@pytest.mark.parametrize("radius", [math.inf, math.nan, (0.5 * R, math.inf), (math.nan, R)],
                         ids=["inf", "nan", "range-inf", "range-nan"])
def test_config_rejects_a_non_finite_radius_by_name(radius):
    # an infinite radius failed as "disks must be small against the patch"
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        small_config(radius=radius)


@pytest.mark.parametrize("radius", [(0.5 * R, R, 2 * R), (R,), "abc", None,
                                    np.array([[0.5 * R, R], [R, 2 * R]])],
                         ids=["triple", "one-tuple", "text", "none", "2d-array"])
def test_config_rejects_a_radius_that_is_not_a_number_or_a_pair_by_name(radius):
    # each failed unpacking or converting, with a message naming no field
    with pytest.raises(ValueError, match="radius must be one number or an"):
        small_config(radius=radius)
