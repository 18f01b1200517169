"""Closed-form correlation models: branch values, joins, validation."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from corrpeaks import (
    BrokenExp,
    DoubleExp,
    Toy2Distance,
    Toy2Uniform,
    default_model,
)


def test_double_exp_is_the_sum_of_its_parts():
    m = default_model("c1")
    assert m(0.0) == pytest.approx(12744.0)  # 9744 + 3000
    theta = np.radians([0.1, 0.45, 2.0, 20.0])
    expect = 9744.0 * np.exp(-theta / math.radians(0.45)) + 3000.0 * np.exp(
        -theta / math.radians(13.0)
    )
    npt.assert_allclose(m(theta), expect, rtol=1e-14)
    assert m.breakpoints() == ()


def test_double_exp_is_smooth_and_decreasing():
    m = default_model("c1")
    theta = np.linspace(1e-4, math.radians(60.0), 4000)
    vals = m(theta)
    assert np.all(np.diff(vals) < 0)
    # convex, and adjacent curvature samples drift by at most ~h/scale1:
    # a kink anywhere would spike a single second difference by orders
    # of magnitude instead
    dd2 = np.diff(vals, 2)
    assert np.all(dd2 > 0)
    ratio = dd2[1:] / dd2[:-1]
    assert np.all((ratio > 0.9) & (ratio < 1.0 + 1e-12))


def test_broken_exp_branches_and_jump():
    m = default_model("c2")
    ts = m.theta_star
    assert math.degrees(ts) == pytest.approx(1.03)
    assert m.breakpoints() == (ts,)

    s1, s2 = math.radians(0.79), math.radians(11.45)
    below = 12000.0 * math.exp(-ts / s1)
    above = 3600.0 * math.exp(-ts / s2)
    eps = 1e-9
    assert m(ts) == pytest.approx(below, rel=1e-12)
    assert m(ts + eps) == pytest.approx(above, rel=1e-6)
    # the defaults leave a genuine value jump at the break
    assert abs(above - below) > 10.0

    # each branch is a plain exponential
    npt.assert_allclose(
        m(np.array([0.2 * ts, 0.9 * ts])),
        12000.0 * np.exp(-np.array([0.2 * ts, 0.9 * ts]) / s1),
        rtol=1e-14,
    )
    theta_hi = np.array([2 * ts, 10 * ts])
    npt.assert_allclose(m(theta_hi), 3600.0 * np.exp(-theta_hi / s2), rtol=1e-14)


def test_broken_exp_slope_jump_closed_form():
    m = default_model("c2")
    ts = m.theta_star
    # right minus left first derivative at theta_star, branch by branch
    s1, s2 = math.radians(0.79), math.radians(11.45)
    expect = -3600.0 / s2 * math.exp(-ts / s2) + 12000.0 / s1 * math.exp(-ts / s1)

    # the branches really carry those one-sided slopes
    h = 1e-7
    left = (m(ts) - m(ts - h)) / h
    right = (m(ts + 2 * h) - m(ts + h)) / h
    assert (right - left) == pytest.approx(expect, rel=1e-4)


def test_toy2_uniform_branch_values():
    rmn, rmx = math.radians(1.0), math.radians(2.0)
    m = Toy2Uniform(rmn, rmx)
    assert m.breakpoints() == (2 * rmn, 2 * rmx)

    # inner branch: linear with slope -ln(r_max/r_min)/2
    t = 0.5 * rmn
    assert m(t) == pytest.approx((rmx - rmn) - 0.5 * t * math.log(rmx / rmn))
    # middle branch
    t = 3.0 * rmn
    expect = rmx - 0.5 * (1 + math.log(2.0)) * t + 0.5 * t * math.log(t / rmx)
    assert m(t) == pytest.approx(expect, rel=1e-13)
    # gone beyond twice the largest radius
    assert m(2 * rmx) == 0.0
    assert m(math.radians(10.0)) == 0.0


@pytest.mark.parametrize("r_min_deg, r_max_deg", [(1.0, 2.0), (0.3, 2.5)])
def test_toy2_uniform_matches_defining_integral(r_min_deg, r_max_deg):
    # the closed form is int (1 - theta/(2R)) dR over
    # R in [max(r_min, theta/2), r_max]; integrate that directly
    rmn, rmx = math.radians(r_min_deg), math.radians(r_max_deg)
    m = Toy2Uniform(rmn, rmx)

    def defining_integral(t):
        lo = max(rmn, 0.5 * t)
        if lo >= rmx:
            return 0.0
        value, _ = quad(
            lambda r: 1.0 - t / (2.0 * r), lo, rmx, epsabs=0.0, epsrel=1e-13
        )
        return value

    theta = np.linspace(0.0, 2.2 * rmx, 301)
    expect = np.array([defining_integral(t) for t in theta])
    npt.assert_allclose(m(theta), expect, rtol=0.0, atol=1e-12 * m(0.0))


@pytest.mark.parametrize("model", [default_model("toy2-distance"),
                                   Toy2Distance(0.5, 2.0, 1.0, 8.0)])
def test_toy2_distance_matches_defining_integral(model):
    # the closed form is int (a0^2/L) (1 - theta r/(2L)) dr over
    # r in [r_min, min(r_max, 2L/theta)]; integrate that directly
    a0, L, rmn = model.a0, model.length, model.r_min

    def defining_integral(t):
        hi = model.r_max if t == 0.0 else min(model.r_max, 2.0 * L / t)
        if hi <= rmn:
            return 0.0
        value, _ = quad(
            lambda r: a0**2 / L * (1.0 - t * r / (2.0 * L)), rmn, hi, epsabs=0.0, epsrel=1e-13
        )
        return value

    theta = np.linspace(0.0, 1.2 * model.theta_2, 301)
    assert np.any(theta < model.theta_1) and np.any(theta > model.theta_2)
    expect = np.array([defining_integral(t) for t in theta])
    npt.assert_allclose(model(theta), expect, rtol=0.0, atol=1e-12 * model(0.0))


def test_toy2_uniform_is_continuous_and_c1_at_joins():
    m = Toy2Uniform(math.radians(1.0), math.radians(2.0))
    # reference slope scale: the inner branch carries ln(r_max/r_min)/2
    slope_scale = 0.5 * math.log(2.0)
    for b in m.breakpoints():
        eps = b * 1e-9
        lo, hi = m(b - eps), m(b + eps)
        scale = max(abs(lo), abs(hi), m(0.0) * 1e-3)
        assert abs(hi - lo) / scale < 1e-6
        # one-sided slopes agree up to the O(h * C'') stencil bias; an
        # actual kink would differ by O(slope_scale)
        h = b * 1e-6
        left = (m(b) - m(b - h)) / h
        right = (m(b + h) - m(b)) / h
        assert abs(right - left) < 1e-4 * slope_scale


def test_toy2_uniform_curvature_jumps():
    rmn, rmx = math.radians(1.0), math.radians(2.0)
    m = Toy2Uniform(rmn, rmx)
    h = 1e-6

    def second(t):
        return (m(t + h) - 2 * m(t) + m(t - h)) / h**2

    # inner branch is linear, middle has d2C/dt2 = 1/(2 theta)
    assert second(2 * rmn + 5 * h) - second(2 * rmn - 5 * h) == pytest.approx(
        1.0 / (4.0 * rmn), rel=1e-2
    )
    assert second(2 * rmx + 5 * h) - second(2 * rmx - 5 * h) == pytest.approx(
        -1.0 / (4.0 * rmx), rel=1e-2
    )


def test_toy2_distance_branch_values_and_joins():
    m = default_model("toy2-distance")
    a0, L, rmn, rmx = 0.02, 1.0, 3.0, 50.0
    t1, t2 = 2 * L / rmx, 2 * L / rmn
    assert m.theta_1 == pytest.approx(t1)
    assert m.theta_2 == pytest.approx(t2)
    assert m.breakpoints() == (m.theta_1, m.theta_2)

    t = 0.5 * t1
    expect = a0**2 * ((rmx - rmn) / L - (rmx**2 - rmn**2) * t / (4 * L**2))
    assert m(t) == pytest.approx(expect, rel=1e-13)
    t = 3.0 * t1
    expect = a0**2 * (-rmn / L + 1.0 / t + rmn**2 * t / (4 * L**2))
    assert m(t) == pytest.approx(expect, rel=1e-13)
    assert m(t2) == 0.0

    # continuous with matching slopes at both joins; value at the first
    # join is a0^2 (r_max - r_min)^2 / (2 L r_max)
    assert m(t1) == pytest.approx(a0**2 * (rmx - rmn) ** 2 / (2 * L * rmx))
    slope_scale = a0**2 * (rmx**2 - rmn**2) / (4 * L**2)  # inner branch slope
    for b in (t1, t2):
        h = b * 1e-7
        assert m(b + h) - m(b - h) == pytest.approx(0.0, abs=m(0.0) * 1e-5)
        left = (m(b) - m(b - h)) / h
        right = (m(b + h) - m(b)) / h
        assert abs(right - left) < 1e-4 * slope_scale


def test_models_decay_monotonically_within_branches():
    for name in ("c1", "c2", "toy2-uniform", "toy2-distance"):
        m = default_model(name)
        cuts = [0.0, *m.breakpoints(), math.pi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            t = np.linspace(a + 1e-9, b - 1e-9, 500)
            assert np.all(np.diff(m(t)) <= 1e-15), name


def test_negative_angles_rejected():
    for name in ("c1", "c2", "toy2-uniform", "toy2-distance"):
        with pytest.raises(ValueError):
            default_model(name)(-0.1)
        with pytest.raises(ValueError):
            default_model(name)(np.array([0.1, -0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", ["c1", "c2", "toy2-uniform", "toy2-distance"])
def test_non_finite_angles_rejected(name, bad):
    # NaN fails every comparison, so a "theta < 0" test let it through;
    # the toy2 models returned 0 there, and every model 0 at inf
    model = default_model(name)
    with pytest.raises(ValueError, match="theta must be finite and nonnegative"):
        model(bad)
    with pytest.raises(ValueError, match="theta must be finite and nonnegative"):
        model(np.array([0.1, bad]))


def test_degenerate_parameters_rejected():
    with pytest.raises(ValueError):
        Toy2Uniform(math.radians(2.0), math.radians(1.0))
    with pytest.raises(ValueError):
        Toy2Uniform(math.radians(2.0), math.radians(2.0))
    with pytest.raises(ValueError):
        Toy2Distance(0.02, 1.0, 50.0, 3.0)
    with pytest.raises(ValueError):
        DoubleExp(1.0, 1.0, -0.1, 0.2)
    with pytest.raises(ValueError):
        BrokenExp(1.0, 1.0, 0.1, 0.2, 0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name, field", [
    ("c1", "scale1"), ("c1", "scale2"), ("c2", "scale1"), ("c2", "scale2"),
    ("c2", "theta_star"), ("toy2-uniform", "r_min"), ("toy2-uniform", "r_max"),
    ("toy2-distance", "a0"), ("toy2-distance", "length"), ("toy2-distance", "r_min"),
    ("toy2-distance", "r_max"),
])
def test_non_finite_parameters_are_rejected_by_name(name, field, bad):
    # a positive parameter must also be finite: an infinite scale or radius
    # would tabulate as inf or nan without a word
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        dataclasses.replace(default_model(name), **{field: bad})


def test_unknown_model_names_are_rejected():
    # a model has one name; its config kind (double_exp, ...) is not one
    for name in ("c3", "double_exp", "broken_exp", "uniform", "toy2_distance"):
        with pytest.raises(ValueError, match="unknown model"):
            default_model(name)
