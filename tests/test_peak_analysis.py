"""Peak detection and oscillation scoring on spectra with known structure."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import j1, jn_zeros

from corrpeaks import (
    InsufficientPeaksError,
    peak_analysis,
    PowerSpectrum,
    analyze_spectrum,
    envelope_decay_exponent,
    find_peaks,
    quasi_period,
)


def airy_squared_spectrum(k_max=60.0, n=6000):
    """|2 J_1(k)/k|^2: maxima at the zeros of J_2, envelope k^-3."""
    k = np.linspace(0.5, k_max, n)
    return PowerSpectrum(k, (2.0 * j1(k) / k) ** 2)


def test_airy_pattern_peaks_sit_at_j2_zeros():
    spec = airy_squared_spectrum()
    locations, heights = find_peaks(spec)
    expect = jn_zeros(2, 6)
    assert locations.size >= 6
    dk = spec.grid[1] - spec.grid[0]
    npt.assert_allclose(locations[:6], expect, atol=3 * dk)
    assert np.all(np.diff(heights[:6]) < 0)


def test_airy_pattern_quasi_period_and_envelope():
    spec = airy_squared_spectrum(k_max=120.0, n=12000)
    locations, heights = find_peaks(spec)
    period, spread = quasi_period(locations)
    # Bessel zeros approach pi spacing from above
    assert period == pytest.approx(np.pi, rel=0.02)
    assert spread < 0.1 * period

    exponent, stderr = envelope_decay_exponent(locations, heights)
    assert exponent == pytest.approx(-3.0, abs=0.1)
    assert stderr < 0.05

    report = analyze_spectrum(spec)
    assert report.detected
    assert report.score > 3.0


def test_analysis_runs_the_peak_finder_once_and_explains_its_verdict(monkeypatch):
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return find_peaks(*args, **kw)

    monkeypatch.setattr(peak_analysis, "find_peaks", counting)
    airy = airy_squared_spectrum()
    report = analyze_spectrum(airy)
    assert len(calls) == 1
    assert report.detected
    assert report.failed_threshold is None
    assert report.regularity == pytest.approx(report.score / report.n_peaks)

    k = np.linspace(1.0, 100.0, 500)
    report = analyze_spectrum(PowerSpectrum(k, 100.0 / k**2))
    assert not report.detected
    assert report.failed_threshold == "min_peaks"
    assert np.isnan(report.regularity)

    # Peaks at 10, 11, 30 and 31: gaps of 1, 19 and 1 are far from even.
    k = np.linspace(1.0, 40.0, 2000)
    bumps = np.exp(-0.5 * ((k[:, None] - [10.0, 11.0, 30.0, 31.0]) / 0.15) ** 2)
    report = analyze_spectrum(PowerSpectrum(k, 1e-3 + bumps.sum(axis=1)))
    npt.assert_array_equal(report.locations.round(), [10, 11, 30, 31])
    assert report.regularity < 0.5
    assert not report.detected
    assert report.failed_threshold == "regularity_min"


def test_pure_sinusoid_period():
    x0 = 25.0
    k = np.linspace(0.2, 40.0, 30000)
    spec = PowerSpectrum(k, np.sin(k * x0) ** 2 + 1e-6)
    locations, _ = find_peaks(spec)
    period, _ = quasi_period(locations)
    assert period == pytest.approx(np.pi / x0, rel=0.01)


def test_monotone_spectrum_has_no_peaks():
    k = np.linspace(1.0, 100.0, 500)
    spec = PowerSpectrum(k, 100.0 / k**2)
    locations, heights = find_peaks(spec)
    assert locations.size == 0
    assert heights.size == 0
    report = analyze_spectrum(spec)
    assert not report.detected
    assert report.score == 0.0


def test_constant_spectrum_has_no_peaks():
    k = np.linspace(1.0, 10.0, 64)
    locations, _ = find_peaks(PowerSpectrum(k, np.full(64, 3.7)))
    assert locations.size == 0


def test_quasi_period_needs_three_peaks():
    with pytest.raises(InsufficientPeaksError):
        quasi_period(np.array([1.0, 2.0]))
    period, spread = quasi_period(np.array([1.0, 2.0, 3.0]))
    assert period == pytest.approx(1.0)
    assert spread == pytest.approx(0.0)


def test_envelope_fit_needs_four_peaks():
    with pytest.raises(InsufficientPeaksError):
        envelope_decay_exponent(np.array([1.0, 2.0, 3.0]), np.ones(3))


def test_scale_equivariance():
    # detection works on log magnitude, so a global rescale must not
    # move peaks or change the verdict
    spec = airy_squared_spectrum()
    big = PowerSpectrum(spec.grid, spec.values * 1e3)
    loc_a, _ = find_peaks(spec)
    loc_b, _ = find_peaks(big)
    npt.assert_array_equal(loc_a, loc_b)
    a, b = analyze_spectrum(spec), analyze_spectrum(big)
    assert (a.detected, a.score) == (b.detected, b.score)


def test_grid_refinement_stability():
    coarse = airy_squared_spectrum(n=3000)
    fine = airy_squared_spectrum(n=12000)
    pa, _ = quasi_period(find_peaks(coarse)[0])
    pb, _ = quasi_period(find_peaks(fine)[0])
    assert pa == pytest.approx(pb, rel=0.02)


def test_short_spectrum_rejected():
    k = np.linspace(1.0, 2.0, 8)
    with pytest.raises(ValueError):
        find_peaks(PowerSpectrum(k, np.ones(8)))


def test_report_carries_nan_when_nothing_oscillates():
    k = np.linspace(1.0, 100.0, 500)
    report = analyze_spectrum(PowerSpectrum(k, 100.0 / k**2))
    assert report.n_peaks == 0
    assert not report.detected
    assert report.score == 0.0
    assert np.isnan(report.quasi_period)
    assert np.isnan(report.envelope_exponent)


def test_report_on_oscillating_input_is_complete():
    report = analyze_spectrum(airy_squared_spectrum(k_max=120.0, n=12000))
    assert report.detected
    assert report.n_peaks >= 10
    assert report.quasi_period == pytest.approx(np.pi, rel=0.02)
    assert report.envelope_exponent == pytest.approx(-3.0, abs=0.1)
    assert report.score == pytest.approx(
        report.n_peaks * (1.0 - report.quasi_period_std / report.quasi_period),
        rel=1e-12,
    )
