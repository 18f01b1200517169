"""Analytic disk-field correlation: profile overlaps, other-disk term, presets.

The reference values are geometry (lens areas, uniform baselines),
brute-force Monte Carlo estimates and ``scipy.integrate.quad`` evaluations
of the defining plane integrals, all computed in the tests themselves.
"""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate
from scipy.special import j0, j1

from corrpeaks import (
    CenterCorrelation,
    DiskProfile,
    PowerSpectrum,
    analyze_spectrum,
    clustered_centers,
    correlation_toy1,
    exponential_disk,
    hard_core_centers,
    other_disk_integral,
    poisson_centers,
    preset_case,
    same_disk_integral,
    top_hat_disk,
)
from corrpeaks import toy_disks_analytic
from corrpeaks.toy_disks_analytic import (
    N_A,
    N_PHI,
    N_PSI,
    N_S,
    _radial_convolution,
    _ring_integral,
    _tabulated_overlap,
)

R = math.radians(1.0)
N_C = 1000.0
RATE = N_C / (4 * math.pi)


def lens_area(theta, radius):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    m = theta < 2 * radius
    t = theta[m]
    out[m] = 2 * radius**2 * np.arccos(t / (2 * radius)) - 0.5 * t * np.sqrt(
        4 * radius**2 - t * t
    )
    return out


def case_a_closed_form(theta):
    # top-hat disks, uncorrelated centers: same-disk lens term plus the
    # constant uncorrelated-pair baseline N_c^2 R^4 / 16
    return N_C * lens_area(theta, R) / (4 * math.pi) + N_C**2 * R**4 / 16.0


def _quad(f, a, b, points=(), epsrel=1e-9):
    inner = [p for p in points if a < p < b]
    return integrate.quad(f, a, b, points=inner or None, epsabs=0.0, epsrel=epsrel,
                          limit=200)[0]


def _exp_overlap(s):
    """Integral of f(|x|) f(|x + s e|) over the plane for f = exp(-r/R), r <= R.

    Polar coordinates (r, psi) about one center; the circle of radius r
    starts crossing the other disk's edge at r = |R - s| with a square-root
    onset, which r = |R - s| + t^2 makes smooth.
    """
    if s >= 2 * R:
        return 0.0
    f = lambda r: math.exp(-r / R)  # noqa: E731

    def arc(r):
        if r * s == 0:
            lo = 0.0 if r + s < R else math.pi
        else:
            lo = math.acos(min(max((R * R - r * r - s * s) / (2 * r * s), -1.0), 1.0))
        dist = lambda psi: math.sqrt(max(r * r + s * s + 2 * r * s * math.cos(psi), 0.0))  # noqa: E731
        return 2.0 * r * f(r) * _quad(lambda psi: f(dist(psi)), lo, math.pi)

    edge = abs(R - s)
    inside = _quad(arc, 0.0, edge, points=(s,)) if s < R else 0.0
    crossing = _quad(lambda t: 2 * t * arc(edge + t * t), 0.0, math.sqrt(R - edge),
                     points=(math.sqrt(abs(s - edge)),))
    return inside + crossing


def plane_integral_reference(case, theta):
    """C(theta) = n A(theta) + n^2 Integral d^2c (1 + omega(|c|)) A(|c - theta e|).

    The plane integral runs in polar coordinates (s, phi) about theta e.
    A is the closed-form lens area for the top-hat cases b and c and
    ``_exp_overlap`` for d.  For b, 1 + omega is 1 on the arc whose
    centers keep 2R apart and 0 elsewhere; for c and d it is
    2 exp(-|c|/R), integrated over phi by ``quad``.  The outer tolerance
    is loose for speed: tightening it to 1e-8 moves the result by about
    2e-11 of the peak.
    """
    if case == "d":
        overlap = _exp_overlap
    else:
        overlap = lambda s: float(lens_area(np.array([s]), R)[0])  # noqa: E731

    def ring(s):
        if case == "b":
            cos_lo = (4 * R * R - theta * theta - s * s) / (2 * theta * s)
            return 2.0 * math.acos(min(max(cos_lo, -1.0), 1.0))
        sep = lambda b: math.sqrt(max(theta * theta + s * s + 2 * theta * s * math.cos(b), 0.0))  # noqa: E731
        return 2.0 * _quad(lambda b: 2.0 * math.exp(-sep(b) / R), 0.0, math.pi)

    other = _quad(lambda s: s * overlap(s) * ring(s), 0.0, 2 * R,
                  points=(theta, abs(2 * R - theta)), epsrel=1e-6)
    return RATE * overlap(theta) + RATE**2 * other


# ---------------------------------------------------------------------------
# profile overlap and its ring integrals


def test_same_disk_integral_is_the_lens_area_for_a_top_hat():
    theta = np.linspace(0.0, 2.5 * R, 51)
    area = same_disk_integral(theta, top_hat_disk(R))
    assert np.max(np.abs(area - lens_area(theta, R))) <= 1e-6 * math.pi * R**2
    npt.assert_array_equal(area[theta > 2 * R], 0.0)


def radial(profile):
    return (profile.f, profile.kinks, profile.radius)


def test_ring_integral_from_disk_center():
    # from the center, the whole ring of radius theta <= R stays inside:
    # the top-hat integrand is 1 over the full 2 pi of central angle
    radii = np.array([0.1 * R, 0.5 * R, 0.999 * R])
    disk = radial(top_hat_disk(R))
    npt.assert_allclose(_ring_integral(disk, np.zeros(3), radii, N_PSI),
                        2 * math.pi, rtol=1e-12)
    # circles that never come within R of the center
    beyond = _ring_integral(disk, np.array([0.5 * R, 3.0 * R]),
                            np.array([2.0 * R + 1e-9, 0.5 * R]), N_PSI)
    npt.assert_array_equal(beyond, 0.0)


def test_ring_integral_against_angular_monte_carlo():
    # ring(theta; u) = Integral_0^{2 pi} f(|x_u + theta e(psi)|) dpsi
    # restricted to the disk; estimate the angular average by plain MC
    prof = exponential_disk(R)
    rng = np.random.default_rng(12)
    psi = rng.uniform(0.0, 2 * math.pi, 2_000_000)
    for theta, u in ((0.6 * R, 0.5 * R), (1.3 * R, 0.8 * R)):
        d = np.sqrt(u**2 + theta**2 + 2 * u * theta * np.cos(psi))
        inside = d <= R
        mc = 2 * math.pi * np.mean(prof.f(np.where(inside, d, R)) * inside)
        exact = _ring_integral(radial(prof), np.array([u]), np.array([theta]), N_PSI)[0]
        assert exact == pytest.approx(mc, rel=7e-3), (theta, u)


def lens_area_unequal(s, r1, r2):
    """Overlap area of circles of radii r1 and r2 whose centers sit s apart."""
    s = np.asarray(s, dtype=float)
    out = np.where(s <= abs(r1 - r2), math.pi * min(r1, r2) ** 2, 0.0)
    m = (s > abs(r1 - r2)) & (s < r1 + r2)
    t = s[m]
    out[m] = (
        r1**2 * np.arccos((t * t + r1**2 - r2**2) / (2 * t * r1))
        + r2**2 * np.arccos((t * t + r2**2 - r1**2) / (2 * t * r2))
        - 0.5 * np.sqrt((r1 + r2 - t) * (t + r1 - r2) * (t - r1 + r2) * (t + r1 + r2))
    )
    return out


def test_profile_with_an_interior_kink():
    # f = 2 on [0, b] and 1 on (b, R] is the sum of two top hats, so its
    # overlap is a sum of lens areas and its mass is pi R^2 + pi b^2
    b = 0.4 * R
    prof = DiskProfile(lambda u: np.where(u <= 0.4, 2.0, 1.0), R, (0.4,))
    theta = np.linspace(0.0, 2.2 * R, 67)
    ref = (lens_area_unequal(theta, R, R) + 2 * lens_area_unequal(theta, R, b)
           + lens_area_unequal(theta, b, b))
    area = same_disk_integral(theta, prof)
    assert np.max(np.abs(area - ref)) <= 1e-6 * np.max(ref)
    # the same through the table, as correlation_toy1 reads it
    tabulated = _tabulated_overlap(prof)[0](theta[1:])
    assert np.max(np.abs(tabulated - ref[1:])) <= 1e-6 * np.max(ref)
    far = np.array([0.3 * R, 1.7 * R, 3.1 * R])
    npt.assert_allclose(other_disk_integral(far, prof, poisson_centers(), N_C),
                        RATE**2 * (math.pi * R**2 + math.pi * b**2) ** 2, rtol=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_disk_integrals_reject_non_finite_angles(bad, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a non-finite angle")

    monkeypatch.setattr(toy_disks_analytic, "_radial_convolution", no_quadrature)
    theta = np.array([0.5 * R, bad])
    with pytest.raises(ValueError, match="finite"):
        same_disk_integral(theta, top_hat_disk(R))
    with pytest.raises(ValueError, match="finite"):
        other_disk_integral(theta, top_hat_disk(R), poisson_centers(), N_C)
    with pytest.raises(ValueError, match="finite"):
        correlation_toy1(np.array([0.1 * R, 0.5 * R, bad]), *preset_case("b"), N_C)


def test_disk_integrals_reject_negative_angles():
    with pytest.raises(ValueError):
        same_disk_integral(np.array([0.5 * R, -0.1 * R]), top_hat_disk(R))
    with pytest.raises(ValueError):
        other_disk_integral(-0.1 * R, top_hat_disk(R), poisson_centers(), N_C)
    with pytest.raises(ValueError):
        other_disk_integral(0.5 * R, top_hat_disk(R), poisson_centers(), 0.0)


# ---------------------------------------------------------------------------
# other-disk term


def test_other_disk_term_of_no_angles_is_empty():
    prof, centers = preset_case("c")
    assert other_disk_integral(np.array([]), prof, centers, N_C).shape == (0,)
    assert same_disk_integral(np.array([]), prof).shape == (0,)


def test_fully_anticorrelated_centers_kill_the_cross_term():
    dead = CenterCorrelation(lambda t: np.full_like(t, -1.0))
    theta = np.linspace(0.0, 4.0 * R, 9)
    npt.assert_array_equal(other_disk_integral(theta, top_hat_disk(R), dead, N_C), 0.0)


def test_hard_core_exclusion_zone():
    # centers at least 2R apart: at zero separation no two distinct disks
    # overlap, and from theta = 4R on every contributing center pair is
    # at least 2R apart, so the exclusion no longer bites
    prof = top_hat_disk(R)
    hard = hard_core_centers(R)
    assert other_disk_integral(0.0, prof, hard, N_C) == 0.0
    far = np.array([4.0 * R, 4.5 * R, 6.0 * R])
    npt.assert_allclose(other_disk_integral(far, prof, hard, N_C),
                        other_disk_integral(far, prof, poisson_centers(), N_C), rtol=1e-12)
    near = np.linspace(0.1 * R, 3.9 * R, 14)
    assert np.all(other_disk_integral(near, prof, hard, N_C)
                  < other_disk_integral(near, prof, poisson_centers(), N_C))


def test_cross_term_positive_for_poisson():
    # uncorrelated centers: the other-disk term is the flat baseline
    # n^2 (Integral f d^2x)^2 at every separation
    theta = np.linspace(0.05 * R, 4.0 * R, 12)
    mass = {"a": math.pi * R**2, "d": 2 * math.pi * R**2 * (1 - 2 / math.e)}
    for case, integral in mass.items():
        prof, _ = preset_case(case)
        cross = other_disk_integral(theta, prof, poisson_centers(), N_C)
        npt.assert_allclose(cross, RATE**2 * integral**2, rtol=1e-6)


# ---------------------------------------------------------------------------
# assembled correlation


def test_case_a_matches_closed_form():
    prof, centers = preset_case("a")
    theta = np.linspace(0.05 * R, 4.0 * R, 36)
    tab = correlation_toy1(theta, prof, centers, N_C)
    ref = case_a_closed_form(theta)
    npt.assert_allclose(tab.values, ref, rtol=5e-6)


@pytest.mark.parametrize("case", ["b", "c", "d"])
def test_preset_cases_match_the_plane_integral(case):
    # angles on both sides of theta = 2R, where the overlap ends; near
    # 0.8R, c and d also need the offset cut at the cone of omega (b = 0)
    theta = np.array([0.3 * R, 0.8 * R, 2.6 * R])
    tab = correlation_toy1(theta, *preset_case(case), N_C)
    ref = np.array([plane_integral_reference(case, t) for t in theta])
    assert np.max(np.abs(tab.values - ref)) <= 1e-6 * np.max(np.abs(ref))


def hankel_transform_of_excess(case, k, n_panels):
    """2 pi Integral theta J0(k theta) [C(theta) - n^2 (pi R^2)^2] dtheta.

    Past 4R the correlation minus its constant vanishes in cases a and b,
    so the transform ends there.  It runs on ``n_panels`` (even) equal
    32-node Gauss-Legendre panels, which meet at 2R, where the overlap
    ends.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    half = 2 * R / n_panels
    theta = np.concatenate([2 * half * i + half * (x + 1) for i in range(n_panels)])
    weight = np.tile(half * w, n_panels)
    baseline = RATE**2 * (math.pi * R**2) ** 2
    excess = correlation_toy1(theta, *preset_case(case), N_C).values - baseline
    return 2 * math.pi * j0(np.outer(k, theta)) @ (weight * theta * excess)


@pytest.mark.parametrize("case", ["a", "b"])
def test_hankel_transform_matches_the_halo_model_spectrum(case):
    # Fourier side of C = n A + n^2 A * (1 + omega): for k > 0 the flat-sky
    # spectrum is n f~^2 (1 + n omega~), with f~ = 2 pi R J1(kR)/k for a
    # top hat and omega~ = -2 pi d J1(kd)/k for a hard core of diameter
    # d = 2R.
    k = np.linspace(50.0, 1500.0, 30)
    spectrum = hankel_transform_of_excess(case, k, 2)
    profile_ft = 2 * math.pi * R * j1(k * R) / k
    omega_ft = -4 * math.pi * R * j1(2 * k * R) / k if case == "b" else 0.0
    ref = RATE * profile_ft**2 * (1 + RATE * omega_ft)
    assert np.max(np.abs(spectrum - ref)) <= 5e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["a", "b"])
def test_disk_field_spectrum_oscillates_with_period_pi_over_r(case):
    # the paper's claim on the spectrum side: equal-radius disks give
    # peaks placed by J1(kR)^2, pi/R apart.  On this grid the halo-model
    # formula gives 15 peaks and a period of 181.3 against pi/R = 180.
    k = np.linspace(1.0, 3000.0, 600)
    report = analyze_spectrum(PowerSpectrum(k, hankel_transform_of_excess(case, k, 4)))
    assert report.detected, report.failed_threshold
    assert report.quasi_period == pytest.approx(math.pi / R, rel=0.03)


def test_case_a_baseline_is_flat_beyond_the_disk_diameter():
    prof, centers = preset_case("a")
    theta = np.array([2.2 * R, 3.0 * R, 3.7 * R])
    tab = correlation_toy1(theta, prof, centers, N_C)
    npt.assert_allclose(tab.values, N_C**2 * R**4 / 16.0, rtol=1e-4)


def test_same_disk_term_only_dies_beyond_2r():
    prof, _ = preset_case("a")
    theta = np.array([0.5 * R, 1.9 * R, 2.1 * R, 3.0 * R])
    same_disk = _tabulated_overlap(prof)[0](theta)
    assert np.all(same_disk[:2] > 0)
    npt.assert_array_equal(same_disk[2:], 0.0)


def test_hard_core_case_sits_below_poisson_case():
    prof_a, cent_a = preset_case("a")
    prof_b, cent_b = preset_case("b")
    theta = np.linspace(0.1 * R, 3.5 * R, 18)
    a = correlation_toy1(theta, prof_a, cent_a, N_C).values
    b = correlation_toy1(theta, prof_b, cent_b, N_C).values
    assert np.all(b <= a + 1e-9 * np.abs(a))
    # the deficit concentrates around theta ~ 2R where exclusion bites
    mid = (theta > 1.2 * R) & (theta < 2.8 * R)
    assert np.max((a - b)[mid]) > np.max(a - b) * 0.5


def test_clustering_enhances_the_cross_term_when_its_range_dominates():
    # with a clustering scale much larger than everything else, every
    # contributing center separation sees density ~ 2 exp(-u/s) > 1
    prof = top_hat_disk(R)
    theta = np.array([0.7 * R, 1.5 * R])
    enhanced = other_disk_integral(theta, prof, clustered_centers(10.0 * R), N_C)
    plain = other_disk_integral(theta, prof, poisson_centers(), N_C)
    assert np.all((plain < enhanced) & (enhanced < 2.0 * plain))


def test_scale_r_clustering_drains_the_large_angle_baseline():
    # omega = 2 exp(-theta/R) - 1 anticorrelates centers beyond R ln 2,
    # so unlike the uncorrelated case there is no flat plateau: the
    # curve undershoots the Poisson one and decays toward zero
    prof_a, cent_a = preset_case("a")
    prof_c, cent_c = preset_case("c")
    assert cent_c.omega(np.array([0.0]))[0] == pytest.approx(1.0)
    theta = np.array([0.5 * R, 1.0 * R, 2.0 * R, 3.5 * R])
    a = correlation_toy1(theta, prof_a, cent_a, N_C).values
    c = correlation_toy1(theta, prof_c, cent_c, N_C).values
    assert np.all(c < a)
    baseline = N_C**2 * R**4 / 16.0
    assert c[-1] < 0.5 * baseline


def test_exponential_profile_case_differs_from_top_hat():
    prof_d, cent_d = preset_case("d")
    assert prof_d.f(np.array([0.0]))[0] == pytest.approx(1.0)
    # same centers as case c, softer profile: less weight everywhere
    theta = np.array([0.5 * R, 1.5 * R])
    d = correlation_toy1(theta, prof_d, cent_d, N_C).values
    c = correlation_toy1(theta, *preset_case("c"), N_C).values
    assert np.all(d < c)


def test_other_disk_term_goes_through_the_module_overlap(monkeypatch):
    # tracing wraps same_disk_integral on the module, so the table fill
    # must look it up there rather than hold its own reference
    monkeypatch.setattr(toy_disks_analytic, "_OVERLAP_CACHE", {})
    plain = toy_disks_analytic.same_disk_integral
    calls = []

    def counting(s, profile):
        calls.append(np.size(s))
        return plain(s, profile)

    monkeypatch.setattr(toy_disks_analytic, "same_disk_integral", counting)
    theta = np.array([0.5 * R, 2.5 * R])
    value = other_disk_integral(theta, top_hat_disk(R), hard_core_centers(R), N_C)
    assert calls
    monkeypatch.setattr(toy_disks_analytic, "same_disk_integral", plain)
    npt.assert_array_equal(
        value, other_disk_integral(theta, top_hat_disk(R), hard_core_centers(R), N_C))


def test_overlap_table_matches_the_lens_area():
    # a top hat has A ~ (2R - s)^(3/2) at the reach, the hardest stretch
    # for the interpolant; the graded panels hold it to the direct route's
    # own error there too, at every radius the one unit table serves
    for radius in np.radians([0.1, 1.0, 5.0]):
        fn, _, reach = _tabulated_overlap(top_hat_disk(radius))
        s = np.concatenate([np.linspace(0.0, reach, 401)[:-1],
                            reach * (1.0 - np.logspace(-8, -4, 9))])
        err = np.max(np.abs(fn(s) - lens_area(s, radius)))
        assert err <= 5e-7 * math.pi * radius**2, radius
        npt.assert_array_equal(fn(np.array([reach, 1.5 * reach])), 0.0)


def test_profiles_of_one_shape_share_a_table(monkeypatch):
    cache = {}
    monkeypatch.setattr(toy_disks_analytic, "_OVERLAP_CACHE", cache)
    _tabulated_overlap(exponential_disk(R))
    _tabulated_overlap(exponential_disk(3.0 * R))
    assert len(cache) == 1
    _tabulated_overlap(top_hat_disk(0.5 * R))
    assert len(cache) == 2
    # every other callable is a shape of its own
    _tabulated_overlap(DiskProfile(lambda u: np.exp(-u), R))
    assert len(cache) == 3


@pytest.mark.parametrize("case", ["a", "d"])
def test_same_disk_term_is_read_from_the_table(case):
    # correlation_toy1 reads n A off the table; it is no farther from the
    # exact overlap than the direct route, up to the top-hat table's
    # interpolation error (2e-9 of A's peak on this grid).  Cases b and c
    # share a's top hat, so their same-disk term is a's.
    prof, _ = preset_case(case)
    theta = np.linspace(math.radians(0.05), math.radians(4.0), 64)
    if case == "d":
        exact = np.array([_exp_overlap(t) for t in theta])
    else:
        exact = lens_area(theta, R)
    tabulated = _tabulated_overlap(prof)[0](theta)
    direct = same_disk_integral(theta, prof)
    peak = np.max(exact)
    assert (np.max(np.abs(tabulated - exact))
            <= np.max(np.abs(direct - exact)) + 1e-9 * peak)


def test_ring_batches_leave_the_overlap_unchanged(monkeypatch):
    # every separation and every ring is integrated on its own, so the
    # chunk and batch sizes bound memory and nothing else
    prof, omega = preset_case("d")
    theta = np.linspace(0.0, 2.2 * R, 33)
    whole = same_disk_integral(theta, prof)
    field = correlation_toy1(theta[1:], prof, omega).values  # builds the table
    # one separation a chunk; three rings a batch same-disk (64 psi
    # nodes a ring), four other-disk (48)
    monkeypatch.setattr(toy_disks_analytic, "BLOCK_BYTES", 32 * N_PSI * 3)
    npt.assert_array_equal(same_disk_integral(theta, prof), whole)
    npt.assert_array_equal(correlation_toy1(theta[1:], prof, omega).values, field)


def test_toy1_memory_does_not_grow_with_the_angle_count():
    # the (separation, radius) arrays of all 1024 angles, read 16 table
    # values each, would take 78 MB at once
    prof, omega = preset_case("d")
    theta = np.linspace(math.radians(0.05), math.radians(4.0), 1024)
    correlation_toy1(theta[:2], prof, omega)  # builds the table
    tracemalloc.start()
    try:
        correlation_toy1(theta, prof, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_exponential_overlap_is_cut_at_the_central_cone():
    # The exponential profile declares its cone at u = 0, so the radius
    # panels are cut at r = theta, where the circles cross it.  Uncut,
    # the error jittered up to 5e-7 of A's peak for theta < R.
    prof, _ = preset_case("d")
    assert prof.breakpoints == (0.0,)
    theta = np.linspace(math.radians(0.05), R, 64)
    exact = np.array([_exp_overlap(t) for t in theta])
    peak = _exp_overlap(0.0)
    tabulated = _tabulated_overlap(prof)[0](theta)
    for route in (same_disk_integral(theta, prof), tabulated):
        assert np.max(np.abs(route - exact)) <= 3e-7 * peak


@pytest.mark.parametrize("case", ["a", "b", "c", "d"])
def test_overlap_table_matches_the_untabulated_convolution(case):
    # the other-disk term with A evaluated afresh on every angle's offsets;
    # the scale is the correlation's peak, as for every toy1 tolerance
    prof, centers = preset_case(case)
    theta = np.linspace(math.radians(0.05), math.radians(4.0), 64)
    _, kinks, reach = _tabulated_overlap(prof)
    overlap = (lambda s: same_disk_integral(s, prof), kinks, reach)
    density = (lambda u: np.maximum(1.0 + centers.omega(u), 0.0), centers.breakpoints, math.inf)
    direct = RATE**2 * np.array([
        _radial_convolution(np.array([t]), overlap, density, N_S, N_PHI)[0] for t in theta])
    tabulated = other_disk_integral(theta, prof, centers, N_C)
    peak = np.max(RATE * same_disk_integral(theta, prof) + direct)
    assert np.max(np.abs(tabulated - direct)) <= 1e-7 * peak


def test_overlap_is_tabulated_once_per_call(monkeypatch):
    # once per profile shape in the process, in fact: calls at two radii
    # and two grid sizes share one unit-radius table
    monkeypatch.setattr(toy_disks_analytic, "_OVERLAP_CACHE", {})
    plain = toy_disks_analytic.same_disk_integral
    calls = []

    def recording(s, profile):
        out = plain(s, profile)
        calls.append((np.copy(s), out, profile.radius))
        return out

    monkeypatch.setattr(toy_disks_analytic, "same_disk_integral", recording)
    _, centers = preset_case("b")
    for radius in (R, 3.0 * R):
        for n in (2, 64):
            theta = np.linspace(0.05 * radius, 4.0 * radius, n)
            correlation_toy1(theta, top_hat_disk(radius), centers, N_C)
    # one fill, one panel per call, all at unit radius
    assert {(s.size, radius) for s, _, radius in calls} == {(N_A, 1.0)}
    (_, _, table_nodes, _), = toy_disks_analytic._OVERLAP_CACHE.values()
    assert len(calls) == len(table_nodes)
    # at unit radius a table node interpolates to its value exactly
    fn, _, _ = _tabulated_overlap(top_hat_disk(1.0))
    nodes = np.concatenate([s for s, _, _ in calls])
    npt.assert_array_equal(fn(nodes), np.concatenate([v for _, v, _ in calls]))


def test_correlation_toy1_input_validation():
    prof, centers = preset_case("a")
    with pytest.raises(ValueError):
        correlation_toy1(np.array([0.0, 0.1]), prof, centers, N_C)  # zero angle
    with pytest.raises(ValueError):
        correlation_toy1(np.array([0.2, 0.1]), prof, centers, N_C)  # not increasing
    with pytest.raises(ValueError):
        correlation_toy1(np.array([0.1, 0.2]), prof, centers, -5.0)


@pytest.mark.parametrize("n_disks", [math.nan, math.inf, 0.0, -5.0])
def test_disk_count_must_be_finite_and_positive(n_disks, monkeypatch):
    # NaN slips past a plain "<= 0" test and used to give an all-NaN table.
    def no_quadrature(*args):
        raise AssertionError("quadrature ran on an invalid disk count")

    monkeypatch.setattr(toy_disks_analytic, "same_disk_integral", no_quadrature)
    prof, centers = preset_case("b")
    theta = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match="n_disks must be finite and positive"):
        correlation_toy1(theta, prof, centers, n_disks)
    with pytest.raises(ValueError, match="n_disks must be finite and positive"):
        other_disk_integral(theta, prof, centers, n_disks)


def test_profile_and_center_factories_validate():
    with pytest.raises(ValueError):
        top_hat_disk(-1.0)
    with pytest.raises(ValueError):
        DiskProfile(lambda t: -np.ones_like(t), R)  # negative
    with pytest.raises(ValueError):
        DiskProfile(lambda t: np.ones_like(t), R, (1.5,))  # kink past the edge
    with pytest.raises(ValueError):
        DiskProfile(lambda t: np.ones_like(t), R, (-0.1,))  # kink before the center
    with pytest.raises(ValueError):
        CenterCorrelation(lambda t: np.full_like(t, -2.0))  # below -1
    assert clustered_centers(R).omega(np.array([0.0]))[0] == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_factories_reject_non_finite_sizes_by_name(bad):
    # an infinite radius would tabulate the correlation as empty values
    for make, name in ((top_hat_disk, "radius"), (exponential_disk, "radius"),
                       (hard_core_centers, "radius"), (clustered_centers, "scale")):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            make(bad)
    for case in "abcd":
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            preset_case(case, bad)
