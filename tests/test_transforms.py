"""Transform-pair and 1-D Fourier machinery checks.

Expected values are either closed forms (orthogonality, box transforms,
Bessel zeros) or dense-quadrature references computed here with scipy;
none are copied from the implementation under test.
"""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval
from scipy.optimize import brentq
from scipy.special import eval_legendre, j0, roots_legendre

from corrpeaks import (
    ExtrapolationError,
    PowerSpectrum,
    TabulatedCorrelation,
    box_profile,
    correlation_from_spectrum,
    ft_1d,
    legendre_coefficients,
    quadratic_spline_profile,
    small_angle_spectrum,
    spherical_box_ft,
    triangle_profile,
)
from corrpeaks import cli, transforms
from corrpeaks.corr_models import default_model
from corrpeaks.transforms import panel_nodes

FOUR_PI = 4.0 * math.pi

# First positive zero of J_1 and of tan x = x, to 10 digits (standard
# tables; also recomputed below by bracketing scipy's special functions).
J1_FIRST_ZERO = 3.8317059702
TANX_EQ_X_ROOT = 4.4934094579


def tabulate_on_nodes(fn, breakpoints=(), n_nodes=4096):
    theta, _ = panel_nodes(breakpoints, n_nodes)
    return TabulatedCorrelation(theta, fn(theta))


# ---------------------------------------------------------------------------
# Legendre pair


def test_constant_correlation_is_pure_monopole():
    tab = tabulate_on_nodes(np.ones_like)
    spec = legendre_coefficients(tab, ell_max=2, n_nodes=4096)
    npt.assert_allclose(spec.values[0], FOUR_PI, rtol=1e-12)
    npt.assert_allclose(spec.values[1:], 0.0, atol=FOUR_PI * 1e-12)


def test_single_legendre_mode_projects_cleanly():
    # C(theta) = P_3(cos theta) has coefficient 2*pi * 2/(2l+1) = 4*pi/7
    # at l = 3 and zero elsewhere.
    tab = tabulate_on_nodes(lambda t: legval(np.cos(t), [0, 0, 0, 1]))
    spec = legendre_coefficients(tab, ell_max=5, n_nodes=4096)
    expect = np.zeros(6)
    expect[3] = FOUR_PI / 7.0
    npt.assert_allclose(spec.values, expect, atol=1e-12)


def test_monopole_spectrum_resums_to_constant():
    spec = PowerSpectrum(np.arange(4.0), [FOUR_PI, 0.0, 0.0, 0.0])
    theta = np.array([0.0, 0.3, 1.1, 2.2, math.pi])
    tab = correlation_from_spectrum(spec, theta)
    npt.assert_allclose(tab.values, 1.0, rtol=1e-14)


def test_round_trip_band_limited_spectrum():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 1.5, 33) * rng.choice([-1.0, 1.0], 33)
    spec = PowerSpectrum(np.arange(33.0), values)

    theta, _ = panel_nodes((), 4096)
    tab = correlation_from_spectrum(spec, theta)
    back = legendre_coefficients(tab, ell_max=32, n_nodes=4096)

    err = np.max(np.abs(back.values - values) / np.abs(values))
    assert err < 1e-8, f"round trip error {err:.3e}"


def test_round_trip_through_a_model_spectrum():
    # Resumming the c1 spectrum on the quadrature grid and transforming
    # back has to reproduce the coefficients, not just random ones.
    spec = legendre_coefficients(default_model("c1"), ell_max=48)
    theta, _ = panel_nodes((), 4096)
    back = legendre_coefficients(
        correlation_from_spectrum(spec, theta), ell_max=48, n_nodes=4096
    )
    scale = np.max(np.abs(spec.values))
    npt.assert_allclose(back.values, spec.values, atol=1e-8 * scale)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    ell_max=st.integers(1, 64),
    cuts_deg=st.lists(st.integers(1, 179), unique=True, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_at_random_band_limits_and_breakpoints(ell_max, cuts_deg, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, ell_max + 1) * rng.choice([-1.0, 1.0], ell_max + 1)
    spec = PowerSpectrum(np.arange(ell_max + 1.0), values)
    breakpoints = np.radians(cuts_deg)

    theta, _ = panel_nodes(breakpoints, 4096)
    tab = correlation_from_spectrum(spec, theta)
    back = legendre_coefficients(tab, ell_max=ell_max, breakpoints=breakpoints, n_nodes=4096)

    err = np.max(np.abs(back.values - values) / np.abs(values))
    assert err < 1e-8, f"round trip error {err:.3e}"


# ---------------------------------------------------------------------------
# Gauss-Legendre rules


@pytest.mark.parametrize("n", [*range(1, 101), 256, 1024, 4096])
def test_gauss_nodes_match_scipy_and_are_symmetric(n):
    x, w = transforms._newton_gauss_rule(n)
    x_ref, w_ref = roots_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.max(np.abs(x - x_ref)) <= 4.5e-16
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(w > 0)


def test_gauss_rules_integrate_polynomials_of_degree_below_2n():
    # A fixed number of Newton steps leaves order 2 off by 1.9e-12: only a
    # step loop run to convergence passes at every order.
    for n in range(1, 41):
        x, w = transforms._newton_gauss_rule(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) <= 1e-14, f"n={n}, x^{k}"


@pytest.mark.parametrize("n", [1024, 4096, 8192])
def test_gauss_rules_integrate_cosines_up_to_half_the_order(n):
    # The end weights decide the high frequencies; scipy's rules miss by
    # 4.1e-13 at 4096 and 3.2e-13 at 8192 from their 1 - x^2 form.
    x, w = transforms.gauss_nodes(n)
    a = np.linspace(1.0, n / 2, 400)
    got = np.array([w @ np.cos(ai * x) for ai in a])
    npt.assert_allclose(got, 2.0 * np.sin(a) / a, rtol=0.0, atol=5e-14)


def test_gauss_nodes_are_cached_and_reject_empty_rules():
    assert transforms.gauss_nodes(64)[0] is transforms.gauss_nodes(64)[0]
    with pytest.raises(ValueError, match="at least 1"):
        transforms._newton_gauss_rule(0)


def test_newton_failure_raises_instead_of_returning_a_bad_rule(monkeypatch):
    monkeypatch.setattr(transforms, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        transforms._newton_gauss_rule(2)


def _nodes_used(ell_max, monkeypatch):
    """Quadrature order legendre_coefficients picks for one full-range panel
    (counted on placeholder nodes, so no large order is built)."""
    sizes = []
    with monkeypatch.context() as m:
        m.setattr(transforms, "gauss_nodes", lambda n: (np.zeros(n), np.ones(n)))
        legendre_coefficients(lambda t: sizes.append(t.size) or np.zeros_like(t),
                              ell_max=ell_max, breakpoints=())
    return sizes[0]


def _margin(order):
    """The room the order rule promises an order-``order`` panel beyond its
    band share, as documented: ceil(4.5 order^(1/3))."""
    return math.ceil(4.5 * order ** (1.0 / 3.0))


def _is_rung(order):
    """True for an order k 2^e with 8 < k <= 16: eight orders per octave."""
    shift = max(0, (order - 1).bit_length() - 4)
    return order % (1 << shift) == 0


@pytest.mark.parametrize("order", [256, 512, 896, 1024, 2048, 2304, 3328, 4096, 7680,
                                   8192, 15360, 16384])
def test_round_trip_just_below_each_order_switch(order, monkeypatch):
    # The largest ell that still gets ``order`` nodes is where the derived
    # order has the least room, so the margin of the rule is tested there.
    lo, hi = 1, 2 * order
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _nodes_used(mid, monkeypatch) <= order else (lo, mid)
    ell_max = lo
    assert _nodes_used(ell_max, monkeypatch) == order
    # The next ell gets the next of eight orders per octave.
    assert _nodes_used(ell_max + 1, monkeypatch) == order + (1 << (order.bit_length() - 4))
    room = order - math.ceil((ell_max + 0.5) * math.pi / 2)
    assert _margin(order) <= room < _margin(order) + 3

    rng = np.random.default_rng(order)
    values = rng.uniform(0.5, 1.5, ell_max + 1) * rng.choice([-1.0, 1.0], ell_max + 1)
    spec = PowerSpectrum(np.arange(ell_max + 1.0), values)

    def resummed(theta):
        out = np.empty_like(theta)
        out[np.argsort(theta)] = correlation_from_spectrum(spec, theta).values
        return out

    back = legendre_coefficients(resummed, ell_max=ell_max, breakpoints=())
    err = np.max(np.abs(back.values - values) / np.abs(values))
    assert err < 1e-8, f"round trip error {err:.3e} at ell {ell_max}"


def test_c1_at_ell_2000_samples_at_most_3456_nodes():
    sizes = []
    legendre_coefficients(lambda t: sizes.append(t.size) or np.exp(-t), ell_max=2000,
                          breakpoints=default_model("c1").breakpoints())
    assert sizes == [transforms._band_order(2000.5, math.pi)]
    assert sizes[0] <= 3456


def _legendre_reference(model, ells, order=128, max_width=math.radians(2.0)):
    """C_ell by a composite Gauss rule on the model's panels, each split
    into sub-panels of at most ``max_width``, with scipy's P_ell."""
    cuts = sorted({0.0, math.pi, *(b for b in model.breakpoints() if 0.0 < b < math.pi)})
    x, w = roots_legendre(order)
    theta, weight = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(a, b, math.ceil((b - a) / max_width) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            theta.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
            weight.append(0.5 * (hi - lo) * w)
    theta, weight = np.concatenate(theta), np.concatenate(weight)
    f = 2.0 * math.pi * weight * np.sin(theta) * model(theta)
    inside = f != 0.0
    return np.array([f[inside] @ eval_legendre(ell, np.cos(theta[inside])) for ell in ells])


@pytest.mark.parametrize("name", ["c1", "c2", "toy2-uniform", "toy2-distance"])
def test_default_order_resolves_the_ell_6000_tail(name):
    # The ell of the tail's largest |C_ell| is always sampled, so a tail
    # that is wrong by a large factor cannot set its own scale.
    model = default_model(name)
    tail = legendre_coefficients(model, ell_max=6000).values[4000:]
    ells = np.r_[np.linspace(4000, 6000, 7).astype(int), 4000 + int(np.argmax(np.abs(tail)))]
    expect = _legendre_reference(model, ells)
    err = np.max(np.abs(tail[ells - 4000] - expect)) / np.max(np.abs(expect))
    assert err <= 1e-5, f"{name}: ell 4000-6000 error {err:.2e} of the largest |C_ell|"


@pytest.mark.parametrize("n_nodes", [4096, 8192, 1000, 100, 10])
@pytest.mark.parametrize("cuts_deg", [(), (1.03,), (2.0, 4.0), (2.29, 38.2), (0.01, 90.0, 179.9)])
def test_panel_orders_keep_the_full_range_density(n_nodes, cuts_deg):
    # A full-range panel of n_nodes holds a band share of n_nodes - margin;
    # every panel holds its length share of that band plus its own margin,
    # in the fewest nodes of the eight orders per octave that do so.
    breakpoints = np.radians(cuts_deg)
    cuts = sorted({0.0, math.pi, *breakpoints, *(math.pi - breakpoints)})
    theta, w = panel_nodes(breakpoints, n_nodes)
    band = n_nodes - _margin(n_nodes)
    for a, b in zip(cuts[:-1], cuts[1:]):
        inside = (theta > a) & (theta < b)
        order = int(inside.sum())
        share = math.ceil(band * (b - a) / math.pi)
        assert min(64, n_nodes) <= order <= n_nodes
        assert order - _margin(order) >= share
        if order not in (64, n_nodes):
            assert _is_rung(order)
            below = order - (1 << ((order - 1).bit_length() - 4))
            assert below - _margin(below) < share
        npt.assert_allclose(w[inside].sum(), b - a, rtol=1e-13)
    assert theta.size == w.size


@pytest.mark.parametrize("seed", range(8))
def test_panel_nodes_are_mirror_symmetric(seed):
    rng = np.random.default_rng(seed)
    lo, hi = (0.0, math.pi) if seed < 4 else np.sort(rng.uniform(-2.0, 5.0, 2))
    breakpoints = rng.uniform(lo, hi, rng.integers(0, 5))
    n_nodes = int(rng.choice([10, 33, 64, 100, 1000, 4096]))
    theta, w = panel_nodes(breakpoints, n_nodes, lo=lo, hi=hi)
    half = theta.size // 2
    # Node N-1-i is built as lo + hi - theta_i, and a centre node (odd N)
    # sits on the midpoint.
    npt.assert_array_equal(theta[::-1][:half], (lo + hi) - theta[:half])
    npt.assert_allclose(theta + theta[::-1], lo + hi, rtol=0.0, atol=2 * np.spacing(abs(lo) + hi))
    npt.assert_array_equal(w, w[::-1])
    if theta.size % 2:
        assert theta[half] == 0.5 * (lo + hi)
    assert np.all(np.diff(theta) > 0) and lo < theta[0] and theta[-1] < hi
    npt.assert_allclose(w.sum(), hi - lo, rtol=1e-13)


def _plain_rows(x, ell_max):
    """P_0(x) .. P_ell_max(x) by the textbook recurrence, one row at a time."""
    p_prev, p = np.ones_like(x), x.copy()
    yield p_prev
    yield p
    for ell in range(1, ell_max):
        p_prev, p = p, ((2 * ell + 1) * x * p - ell * p_prev) / (ell + 1)
        yield p


def _rows_of(x, ell_max):
    """All rows of the package's recurrence: (unscaled rows, P_ell rows)."""
    rows, scaled = [], []
    for ell, scale, block in transforms._legendre_rows(x, ell_max):
        assert ell == sum(r.shape[0] for r in rows)
        rows.append(block.copy())
        scaled.append(scale[:, None] * block)
    # The Gauss builder reads P_n-1 and P_n from the last block.
    assert rows[-1].shape[0] >= 2
    return np.concatenate(rows), np.concatenate(scaled)


@pytest.mark.parametrize("block_bytes", [transforms.BLOCK_BYTES, 8 * 4 * 37, 1])
def test_legendre_rows_are_odd_or_even_bit_for_bit(block_bytes, monkeypatch):
    # Blocks of 2, 146 or thousands of rows: the carry between blocks and
    # the last block's two rows are exercised.
    monkeypatch.setattr(transforms, "BLOCK_BYTES", block_bytes)
    x = np.cos(np.linspace(0.0, math.pi / 2, 37))
    for ell_max in (1, 2, 3, 300):
        rows, scaled = _rows_of(x, ell_max)
        mirror, mirror_scaled = _rows_of(-x, ell_max)
        sign = (-1.0) ** np.arange(ell_max + 1)[:, None]
        assert rows.shape == (ell_max + 1, x.size)
        npt.assert_array_equal(mirror, sign * rows)
        npt.assert_array_equal(mirror_scaled, sign * scaled)
        # Near x = 1 both recurrences drift by some ulp per step.
        npt.assert_allclose(scaled, np.array(list(_plain_rows(x, ell_max))), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("block_bytes", [transforms.BLOCK_BYTES, 8 * 4 * 37, 1])
@pytest.mark.parametrize("n", [1, 7, 37, 1728, 3601])
def test_legendre_rows_start_on_cache_lines(n, block_bytes, monkeypatch):
    # A row that starts mid-line splits the recurrence's vector loads
    # across two cache lines; node counts off and on whole lines.
    monkeypatch.setattr(transforms, "BLOCK_BYTES", block_bytes)
    x = np.cos(np.linspace(0.0, math.pi / 2, n))
    for _, _, block in transforms._legendre_rows(x, 300):
        assert block.shape[1] == n
        assert all(row.ctypes.data % 64 == 0 for row in block)


@pytest.mark.parametrize("block_bytes", [8 * 4 * 37, 1])
def test_gauss_rules_do_not_depend_on_the_block_size(block_bytes, monkeypatch):
    expect = {n: transforms._newton_gauss_rule(n) for n in (1, 2, 3, 74, 75, 256)}
    monkeypatch.setattr(transforms, "BLOCK_BYTES", block_bytes)
    for n, (x, w) in expect.items():
        got_x, got_w = transforms._newton_gauss_rule(n)
        npt.assert_array_equal(got_x, x)
        npt.assert_array_equal(got_w, w)


def _plain_transform(corr, breakpoints, ell_max, n_nodes):
    """C_ell contracted over every node, one multipole at a time."""
    theta, w = panel_nodes(breakpoints, n_nodes)
    base = 2.0 * math.pi * w * np.sin(theta) * corr(theta)
    return np.array([base @ p for p in _plain_rows(np.cos(theta), ell_max)])


@pytest.mark.parametrize("name, ell_max, n_nodes", [
    ("c1", 2000, None), ("c2", 2000, None), ("toy2-uniform", 2000, None),
    ("toy2-distance", 2000, None), ("cap", 2000, None), ("c2", 6000, 8192)])
def test_folded_transform_matches_a_contraction_over_all_nodes(name, ell_max, n_nodes):
    theta0 = math.radians(3.0)
    if name == "cap":
        corr, breakpoints = (lambda t: (t <= theta0).astype(float)), (theta0,)
    else:
        corr = default_model(name)
        breakpoints = corr.breakpoints()
    order = n_nodes or transforms._band_order(ell_max + 0.5, math.pi)
    expect = _plain_transform(corr, breakpoints, ell_max, order)
    got = legendre_coefficients(corr, ell_max=ell_max, breakpoints=breakpoints, n_nodes=n_nodes)
    npt.assert_allclose(got.values, expect, rtol=0.0, atol=1e-12 * np.max(np.abs(expect)))


@pytest.mark.parametrize("breakpoints", [(), (math.radians(50.0),)])
@pytest.mark.parametrize("n_nodes", [33, 63])
def test_a_centre_node_counts_once(n_nodes, breakpoints):
    # An odd order puts a node on pi/2, which is its own mirror image.
    theta, _ = panel_nodes(breakpoints, n_nodes)
    assert theta.size % 2 == 1 and theta[theta.size // 2] == math.pi / 2
    monopole = legendre_coefficients(np.ones_like, ell_max=4, breakpoints=breakpoints,
                                     n_nodes=n_nodes).values
    npt.assert_allclose(monopole, [FOUR_PI, 0.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-13)
    p3 = legendre_coefficients(lambda t: legval(np.cos(t), [0, 0, 0, 1]), ell_max=5,
                               breakpoints=breakpoints, n_nodes=n_nodes).values
    npt.assert_allclose(p3, [0.0, 0.0, 0.0, FOUR_PI / 7.0, 0.0, 0.0], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("ell_max, n_nodes", [(2000, 4096), (6000, 8192)])
def test_cap_spectrum_matches_closed_form(ell_max, n_nodes):
    # C = 1 inside a cap of radius theta0 and exactly 0 outside, so the
    # whole outer panel is dropped.  Its transform is
    # 2 pi (P_{l-1} - P_{l+1})(cos theta0) / (2l + 1), and 2 pi (1 - cos theta0) at l = 0.
    theta0 = math.radians(3.0)
    spec = legendre_coefficients(
        lambda t: (t <= theta0).astype(float), ell_max=ell_max,
        breakpoints=(theta0,), n_nodes=n_nodes,
    )
    ell = np.arange(1, ell_max + 1)
    x0 = math.cos(theta0)
    expect = np.r_[
        2.0 * math.pi * (1.0 - x0),
        2.0 * math.pi * (eval_legendre(ell - 1, x0) - eval_legendre(ell + 1, x0)) / (2 * ell + 1),
    ]
    scale = np.max(np.abs(expect))
    npt.assert_allclose(spec.values, expect, rtol=0.0, atol=1e-10 * scale)


def test_dropping_zero_weight_nodes_changes_nothing():
    # toy2-uniform vanishes exactly beyond 2 R_max = 4 deg.  A copy that is
    # 1e-200 there keeps every node; its extra terms are far below 1e-12.
    model = default_model("toy2-uniform")

    def floored(theta):
        values = model(theta)
        return np.where(values == 0.0, 1e-200, values)

    floored.breakpoints = model.breakpoints
    pruned = legendre_coefficients(model, ell_max=2000).values
    full = legendre_coefficients(floored, ell_max=2000).values
    npt.assert_allclose(pruned, full, rtol=0.0, atol=1e-12 * np.max(np.abs(full)))

    k = np.arange(0, 2000, 7) + 0.5
    pruned = small_angle_spectrum(model, k).values
    full = small_angle_spectrum(floored, k).values
    npt.assert_allclose(pruned, full, rtol=0.0, atol=1e-12 * np.max(np.abs(full)))


def test_empty_and_nonpositive_sizes_are_rejected():
    with pytest.raises(ValueError, match="empty"):
        small_angle_spectrum(default_model("c2"), np.array([]))
    for n_nodes in (0, -4):
        with pytest.raises(ValueError, match="n_nodes"):
            panel_nodes((), n_nodes)
        with pytest.raises(ValueError, match="n_nodes"):
            legendre_coefficients(default_model("c1"), ell_max=4, n_nodes=n_nodes)


def test_spectra_too_short_to_exist_are_rejected_before_any_work():
    calls = []

    def corr(theta):
        calls.append(theta.size)
        return np.ones_like(theta)

    with pytest.raises(ValueError, match="ell_max must be at least 1"):
        legendre_coefficients(corr, ell_max=0)
    with pytest.raises(ValueError, match="single wavenumber"):
        small_angle_spectrum(corr, [5.0])
    assert calls == []


def test_derived_order_is_capped(monkeypatch, tmp_path):
    # No rule above the cap may even be started: fail instead of hanging.
    original = transforms._newton_gauss_rule

    def guarded(n):
        if n > 32768:
            raise AssertionError(f"order {n} requested")
        return original(n)

    monkeypatch.setattr(transforms, "_newton_gauss_rule", guarded)
    assert transforms._band_order(20769.0, math.pi) == transforms.MAX_ORDER == 32768
    with pytest.raises(ValueError, match="MAX_ORDER"):
        transforms._band_order(20770.0, math.pi)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        legendre_coefficients(default_model("c2"), ell_max=30000)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        small_angle_spectrum(default_model("c2"), [1.0, 1e6])
    with pytest.raises(ValueError, match="MAX_ORDER"):
        ft_1d(box_profile(1.0), [1e6])
    assert cli.main(["--out-dir", str(tmp_path), "transform", "--model", "c2",
                     "--mode", "smallangle", "--k-max", "1e6"]) == 1


def _mirrored(half, centre):
    """Angles in [0, pi/2) and their exact images pi - theta, with pi/2 once."""
    return np.r_[half, [math.pi / 2] * centre, math.pi - half[::-1]]


_FOLD_HALF = np.sort(np.random.default_rng(7).uniform(0.0, math.pi / 2, 40))
_FOLD_GRIDS = {
    "mirrored-odd": _mirrored(_FOLD_HALF, 1),
    "mirrored-even": _mirrored(_FOLD_HALF, 0),
    "linspace-721": np.linspace(0.0, math.pi, 721),
    "linspace-64": np.linspace(0.0, math.pi, 64),
    "asymmetric": np.sort(np.random.default_rng(8).uniform(0.0, math.pi, 57)),
    "below-pi/2": np.linspace(0.01, 1.5, 50),
    "both-ends": np.r_[0.0, 0.2, 1.0, 2.5, math.pi],
}


@pytest.mark.parametrize("grid", _FOLD_GRIDS)
def test_folded_resummation_matches_a_per_angle_sum(grid):
    # Odd multipoles carry the sign between theta and pi - theta, so the
    # spectrum mixes signs.  A linspace matches its mirror image only to 1
    # ulp of pi, the angle's own rounding, and C moves by |C'| ulp over
    # that; a spectrum falling like 1/ell^2 keeps this below the tolerance.
    theta = _FOLD_GRIDS[grid]
    rng = np.random.default_rng(3)
    ell = np.arange(301)
    values = rng.uniform(0.5, 1.5, ell.size) * rng.choice([-1.0, 1.0], ell.size) / (1.0 + ell) ** 2
    got = correlation_from_spectrum(PowerSpectrum(ell, values), rng.permutation(theta))
    # Beyond pi/2, cos(theta) rounds next to -1 (an angle error of up to
    # ulp / sin(theta)) and eval_legendre loses digits there, so the
    # reference reads P_ell(cos theta) = (-1)^ell P_ell(cos(pi - theta)).
    coeff = (2 * ell + 1) * values / FOUR_PI
    expect = np.array([coeff @ eval_legendre(ell, math.cos(t)) if t <= math.pi / 2 else
                       (coeff * (-1.0) ** ell) @ eval_legendre(ell, math.cos(math.pi - t))
                       for t in np.sort(theta)])
    npt.assert_array_equal(got.theta, np.sort(theta))
    npt.assert_allclose(got.values, expect, rtol=0.0, atol=1e-13 * np.max(np.abs(expect)))


@pytest.mark.parametrize("grid", ["mirrored-odd", "mirrored-even", "linspace-721",
                                  "linspace-64", "asymmetric"])
def test_symmetric_grids_run_the_recurrence_on_half_the_angles(grid, monkeypatch):
    sizes = []
    original = transforms._legendre_rows

    def recording(x, ell_max):
        sizes.append(x.size)
        return original(x, ell_max)

    monkeypatch.setattr(transforms, "_legendre_rows", recording)
    theta = _FOLD_GRIDS[grid]
    correlation_from_spectrum(PowerSpectrum(np.arange(5.0), np.ones(5)), theta)
    # An asymmetric grid has no mirror pairs and keeps one row per angle.
    assert sizes == [theta.size if grid == "asymmetric" else (theta.size + 1) // 2]


def test_resum_rejects_non_multipole_grids():
    spec = PowerSpectrum([0.5, 1.5, 2.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        correlation_from_spectrum(spec, [0.1, 0.2])


def test_resum_rejects_duplicate_angles_before_any_work(monkeypatch):
    def no_rows(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(transforms, "_legendre_rows", no_rows)
    spec = PowerSpectrum(np.arange(3.0), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="duplicates"):
        correlation_from_spectrum(spec, [0.3, 0.1, 0.3])


def test_tabulated_input_must_cover_the_sphere():
    theta = np.linspace(0.1, 1.0, 200)
    tab = TabulatedCorrelation(theta, np.exp(-theta))
    with pytest.raises(ExtrapolationError):
        legendre_coefficients(tab, ell_max=4)


def test_table_builds_its_spline_once(monkeypatch):
    built = []
    original = transforms.CubicSpline

    def counting_spline(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(transforms, "CubicSpline", counting_spline)
    theta = np.linspace(0.0, math.pi, 400)
    tab = TabulatedCorrelation(theta, np.exp(-theta))
    first = tab(np.array([0.1, 0.2]))
    spec = legendre_coefficients(tab, ell_max=8)
    npt.assert_array_equal(tab(np.array([0.1, 0.2])), first)
    npt.assert_allclose(spec.values, legendre_coefficients(lambda t: np.exp(-t), ell_max=8).values,
                        rtol=1e-6)
    assert len(built) == 1


def test_missing_values_are_rejected_at_transform_time():
    theta, _ = panel_nodes((), 64)
    vals = np.ones_like(theta)
    vals[3] = np.nan
    tab = TabulatedCorrelation(theta, vals)  # construction is fine
    with pytest.raises(ValueError, match="missing"):
        legendre_coefficients(tab, ell_max=2)


def test_validation_of_grids():
    with pytest.raises(ValueError):
        TabulatedCorrelation([0.2, 0.1], [1.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedCorrelation([0.1, 3.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        PowerSpectrum([0.0], [1.0])
    with pytest.raises(ValueError):
        PowerSpectrum([1.0, 1.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# Small-angle spectrum


def test_zero_correlation_gives_zero_spectrum():
    theta = np.linspace(0.0, math.pi, 300)
    tab = TabulatedCorrelation(theta, np.zeros_like(theta))
    spec = small_angle_spectrum(tab, np.linspace(1.0, 50.0, 20))
    npt.assert_array_equal(spec.values, 0.0)


def test_small_angle_agrees_with_legendre_on_c2():
    model = default_model("c2")
    ells = np.arange(2, 1201)
    exact = legendre_coefficients(model, ell_max=1200).values[2:]
    with pytest.warns(UserWarning, match="beyond 10 deg"):
        flat = small_angle_spectrum(model, ells + 0.5).values
    rel = np.max(np.abs(flat - exact) / np.abs(exact))
    assert rel < 0.02, f"flat-sky vs Legendre disagree by {rel:.3%}"


class _DiskOverlap:
    """Autocorrelation of a uniform disk of radius R: the lens-shaped
    overlap area of two such disks at center separation theta."""

    def __init__(self, radius):
        self.radius = radius

    def breakpoints(self):
        return (2.0 * self.radius,)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = self.radius
        out = np.zeros_like(theta)
        m = theta < 2.0 * r
        t = theta[m]
        out[m] = 2.0 * r * r * np.arccos(t / (2 * r)) - 0.5 * t * np.sqrt(
            4.0 * r * r - t * t
        )
        return out


def test_disk_autocorrelation_spectrum_touches_zero_at_j1_zero():
    # The flat-sky transform of the overlap area is |2 J_1(kR)/(kR)|^2
    # (squared aperture), a tangential zero at the first J_1 zero.
    radius = math.radians(1.0)
    corr = _DiskOverlap(radius)
    k = np.linspace(3.4, 4.2, 1601) / radius
    spec = small_angle_spectrum(corr, k)
    k_zero = k[np.argmin(np.abs(spec.values))] * radius
    assert abs(k_zero - J1_FIRST_ZERO) < 2e-3
    # squared modulus: nonnegative up to quadrature noise
    assert spec.values.min() > -1e-9 * spec.values.max()


def test_narrow_support_raises_no_warning():
    radius = math.radians(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small_angle_spectrum(_DiskOverlap(radius), np.array([10.0, 50.0]))


# ---------------------------------------------------------------------------
# 1-D transforms and the decay law


def test_box_transform_closed_form():
    prof = box_profile(1.0)
    k = np.linspace(0.0, 40.0, 400)
    ft = ft_1d(prof, k)
    expect = np.where(k > 0, 2.0 * np.sin(np.maximum(k, 1e-300)) / np.maximum(k, 1e-300), 2.0)
    npt.assert_allclose(ft, expect, atol=1e-12)
    # zeros at multiples of pi
    zeros = ft_1d(prof, np.pi * np.arange(1.0, 9.0))
    npt.assert_allclose(zeros, 0.0, atol=1e-12)


def test_box_transform_at_high_k():
    # Needs an order that follows max k, far above what k <= 250 needs.
    k = np.linspace(9000.0, 10000.0, 2001)
    npt.assert_allclose(ft_1d(box_profile(1.0), k), 2.0 * np.sin(k) / k, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("make", [box_profile, triangle_profile, quadratic_spline_profile])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_profiles_reject_a_non_finite_support_by_name(make, bad):
    # an infinite box passed, and ft_1d then failed converting inf to an order
    with pytest.raises(ValueError, match="x_max must be finite and positive"):
        make(bad)


def test_triangle_transform_closed_form():
    prof = triangle_profile(1.0)
    k = np.linspace(0.5, 60.0, 300)
    expect = 2.0 * (1.0 - np.cos(k)) / k**2
    npt.assert_allclose(ft_1d(prof, k), expect, atol=1e-12)


def _envelope_slope(profile, k_lo=20.0, k_hi=200.0):
    """Log-log slope of |ft| over its local maxima inside [k_lo, k_hi]."""
    k = np.linspace(1.0, k_hi * 1.25, 20000)
    mag = np.abs(ft_1d(profile, k))
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    idx = np.flatnonzero(interior) + 1
    keep = (k[idx] >= k_lo) & (k[idx] <= k_hi)
    idx = idx[keep]
    assert idx.size >= 5, "not enough envelope maxima in the fit window"
    slope = np.polyfit(np.log(k[idx]), np.log(mag[idx]), 1)[0]
    return slope


@pytest.mark.parametrize(
    "maker, expect",
    [
        (box_profile, -1.0),
        (triangle_profile, -2.0),
        (quadratic_spline_profile, -3.0),
    ],
)
def test_envelope_decay_tracks_discontinuity_order(maker, expect):
    slope = _envelope_slope(maker(1.0))
    assert abs(slope - expect) < 0.15, f"slope {slope:.4f} vs {expect}"


def test_quadratic_spline_profile_is_c1():
    profile = quadratic_spline_profile(1.0)
    h = 1e-6
    # continuous with continuous first derivative at the interior knot
    for x0 in profile.breakpoints:
        below, at, above = profile.fn(np.array([x0 - h, x0, x0 + h]))
        assert abs(above - below) < 1e-5
        assert abs((at - below) / h - (above - at) / h) < 1e-4
    peak, outside = profile.fn(np.array([0.0, 1.5]))
    assert peak == pytest.approx(1.0)  # normalized peak
    assert outside == 0.0


# ---------------------------------------------------------------------------
# Spherical box functions


def test_spherical_box_unit_at_origin_and_bounded():
    k = np.linspace(0.0, 200.0, 5000)
    for dim in (1, 2, 3):
        vals = spherical_box_ft(k, 1.0, dim)
        assert vals[0] == 1.0
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        # decays: the tail stays well below the center
        assert np.max(np.abs(vals[k > 100])) < 0.05


def test_spherical_box_rejects_bad_arguments():
    with pytest.raises(ValueError):
        spherical_box_ft(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        spherical_box_ft(1.0, -2.0, 2)
    with pytest.raises(ValueError):
        spherical_box_ft(-1.0, 1.0, 2)
    for bad in (math.inf, math.nan):  # an infinite radius returned NaN
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            spherical_box_ft(1.0, bad, 2)


def test_spherical_box_first_zeros():
    assert spherical_box_ft(math.pi, 1.0, 1) == pytest.approx(0.0, abs=1e-15)

    root2 = brentq(lambda k: spherical_box_ft(k, 1.0, 2), 3.0, 4.5, xtol=1e-12)
    assert root2 == pytest.approx(J1_FIRST_ZERO, abs=1e-9)

    root3 = brentq(lambda k: spherical_box_ft(k, 1.0, 3), 4.0, 5.0, xtol=1e-12)
    assert root3 == pytest.approx(TANX_EQ_X_ROOT, abs=1e-9)


def test_spherical_box_small_argument_branch_is_seamless():
    # Around the series/direct switchover the exact value is given by the
    # Taylor expansion to way past double precision; the naive closed form
    # itself loses ~1e-9 to cancellation there, so it is not the reference.
    def series(t):
        return 1.0 - t**2 / 10.0 + t**4 / 280.0 - t**6 / 15120.0

    for k in (9.9e-4, 1e-3, 1.01e-3, 1e-5, 1e-8):
        assert spherical_box_ft(k, 1.0, 3) == pytest.approx(series(k), rel=5e-9)


def _dense_ball_ft(k, radius, dim, n=3000):
    """Reference transform of the unit-integral ball density by raw quadrature."""
    x, w = roots_legendre(n)
    r = 0.5 * radius * (x + 1.0)
    w = 0.5 * radius * w
    if dim == 1:
        dens = 1.0 / (2.0 * radius)
        return 2.0 * dens * np.sum(w * np.cos(k * r))
    if dim == 2:
        dens = 1.0 / (math.pi * radius**2)
        return 2.0 * math.pi * dens * np.sum(w * r * j0(k * r))
    dens = 1.0 / (4.0 / 3.0 * math.pi * radius**3)
    kr = np.maximum(k * r, 1e-300)
    return 4.0 * math.pi * dens * np.sum(w * r * r * np.sin(kr) / kr)


def test_spherical_box_matches_dense_quadrature_spot_checks():
    rng = np.random.default_rng(42)
    for _ in range(12):
        dim = rng.integers(1, 4)
        radius = rng.uniform(0.1, 3.0)
        k = rng.uniform(0.0, 40.0 / radius)
        ref = _dense_ball_ft(k, radius, int(dim))
        got = spherical_box_ft(k, radius, int(dim))
        assert got == pytest.approx(ref, abs=1e-9), (dim, radius, k)
