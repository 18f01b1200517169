"""Detection and characterisation of oscillating peak sequences in spectra.

A spectrum with a breakpoint-bearing source shows quasi-periodic peaks
whose envelope decays as a power of k.  This module finds those peaks,
measures the spacing and the envelope exponent, and turns the result
into a yes/no oscillation verdict.

The detection rule is fixed: a moving average over SMOOTHING_WINDOW
samples, then maxima whose prominence is at least PROMINENCE_FRAC of the
smoothed span.  Criteria 1, 2 and 7c test the verdict under this rule.

Detection runs on log10 of the magnitude: spectra here span many decades
and sit arbitrarily close to zero between peaks, so no fixed linear
prominence threshold can see both the first peak and the tenth.  The log
scale makes "peak" mean the same thing across the whole range.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks as _scipy_find_peaks

from .transforms import PowerSpectrum

__all__ = [
    "PeakReport",
    "InsufficientPeaksError",
    "find_peaks",
    "quasi_period",
    "envelope_decay_exponent",
    "analyze_spectrum",
]

SMOOTHING_WINDOW = 5
PROMINENCE_FRAC = 0.01
# Peaks below this fraction of the spectrum maximum are floor noise.
MAGNITUDE_FLOOR = 1e-15
# Verdict: at least MIN_PEAKS peaks whose spacings are regular enough.
MIN_PEAKS = 3
REGULARITY_MIN = 0.5
# Envelope fits use only peaks beyond this multiple of the first peak
# location, past the non-asymptotic head of the spectrum.
ASYMPTOTIC_FACTOR = 3.0


class InsufficientPeaksError(ValueError):
    """Raised when an analysis step needs more peaks, or spectrum points, than it has."""


@dataclass(frozen=True)
class PeakReport:
    """Everything measured about one spectrum's peak structure.

    ``quasi_period``/``envelope_exponent`` and their uncertainties are
    NaN when too few peaks qualify; ``detected`` is the final verdict.
    ``regularity`` (1 - sigma/mean of the peak spacings, NaN below two
    peaks) and ``failed_threshold`` ("min_peaks", "regularity_min", or
    None when detected) say why the verdict came out as it did; they are
    diagnostics and are not written to the peak CSV.
    """

    locations: np.ndarray
    heights: np.ndarray
    quasi_period: float
    quasi_period_std: float
    envelope_exponent: float
    envelope_stderr: float
    score: float
    detected: bool
    regularity: float = float("nan")
    failed_threshold: str | None = None

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        h = np.asarray(self.heights, dtype=float)
        if loc.shape != h.shape:
            raise ValueError("locations and heights must match in length")
        if loc.size and np.any(np.diff(loc) <= 0):
            raise ValueError("peak locations must be strictly increasing")
        if np.any(h <= 0):
            raise ValueError("peak heights must be positive")
        if not math.isnan(self.quasi_period_std) and self.quasi_period_std < 0:
            raise ValueError("spacing dispersion cannot be negative")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "heights", h)

    @property
    def n_peaks(self):
        return int(self.locations.size)


def _moving_average(y, window):
    padded = np.pad(y, window // 2, mode="reflect")
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


def _log_magnitude(values):
    mag = np.abs(np.asarray(values, dtype=float))
    top = mag.max()
    if top <= 0:
        return np.full_like(mag, -15.0), 0.0
    return np.log10(np.maximum(mag, MAGNITUDE_FLOOR * top)), top


def find_peaks(spec):
    """Locate qualified local maxima of a spectrum.

    The log magnitude is smoothed by a SMOOTHING_WINDOW-sample moving
    average (reflective padding keeps the ends unbiased), and a maximum
    qualifies when its prominence is at least PROMINENCE_FRAC of the
    smoothed span.

    Parameters
    ----------
    spec : PowerSpectrum
        Needs at least 16 grid points; fewer raise InsufficientPeaksError.

    Returns
    -------
    (locations, heights) : pair of arrays
        Peak positions on the spectrum grid, and the unsmoothed spectrum
        magnitudes there.  Each smoothed peak is re-anchored to the
        nearest raw local maximum so smoothing cannot shift locations.
    """
    if not isinstance(spec, PowerSpectrum):
        raise TypeError("expected a PowerSpectrum")
    if spec.grid.size < 16:
        raise InsufficientPeaksError("spectrum too short for peak analysis (< 16 points)")

    work, top = _log_magnitude(spec.values)
    smooth = _moving_average(work, SMOOTHING_WINDOW)
    span = smooth.max() - smooth.min()
    if span <= 0:  # constant spectrum
        return np.array([]), np.array([])
    idx, _ = _scipy_find_peaks(smooth, prominence=PROMINENCE_FRAC * span)

    # Snap back to the raw grid: the smoothed maximum can sit a sample or
    # two off the true one.
    half = SMOOTHING_WINDOW // 2
    refined = []
    for i in idx:
        lo = max(1, i - half)
        hi = min(work.size - 1, i + half + 1)
        refined.append(lo + int(np.argmax(work[lo:hi])))
    refined = sorted(set(refined))

    locations = spec.grid[refined]
    heights = np.abs(spec.values[refined])
    keep = heights > MAGNITUDE_FLOOR * top
    return locations[keep], heights[keep]


def quasi_period(locations):
    """Mean and standard deviation of consecutive peak spacings.

    Raises InsufficientPeaksError below three peaks, where "spacing
    dispersion" stops meaning anything.
    """
    locations = np.asarray(locations, dtype=float)
    if locations.size < MIN_PEAKS:
        raise InsufficientPeaksError(
            f"need at least {MIN_PEAKS} peaks, got {locations.size}"
        )
    gaps = np.diff(locations)
    return float(gaps.mean()), float(gaps.std())


def envelope_decay_exponent(locations, heights):
    """Power-law exponent of the peak-height envelope.

    Least-squares slope of log(height) against log(location) over the
    asymptotic window, which starts at ASYMPTOTIC_FACTOR times the first
    peak location.  Returns (slope, standard error).
    """
    locations = np.asarray(locations, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if locations.size == 0:
        raise InsufficientPeaksError("no peaks to fit")
    k_min = ASYMPTOTIC_FACTOR * locations[0]
    sel = locations >= k_min
    if sel.sum() < 4:
        raise InsufficientPeaksError(
            f"need at least 4 peaks beyond k = {k_min:.4g}, got {int(sel.sum())}"
        )
    x = np.log(locations[sel])
    y = np.log(heights[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    sxx = np.sum((x - x.mean()) ** 2)
    stderr = math.sqrt(resid @ resid / dof / sxx) if dof > 0 else float("nan")
    return float(slope), float(stderr)


def _verdict(locations):
    """(detected, score, regularity, failed_threshold) of a peak set.

    score = n_peaks * regularity, with regularity = 1 - sigma/mean of the
    spacings floored at zero; detection needs MIN_PEAKS peaks and
    regularity >= REGULARITY_MIN, i.e. several broadly evenly spaced peaks.
    """
    n = locations.size
    if n < 2:
        return False, 0.0, float("nan"), "min_peaks"
    gaps = np.diff(locations)
    regularity = max(0.0, 1.0 - gaps.std() / gaps.mean()) if gaps.mean() > 0 else 0.0
    if n < MIN_PEAKS:
        failed = "min_peaks"
    elif regularity < REGULARITY_MIN:
        failed = "regularity_min"
    else:
        failed = None
    return failed is None, float(n * regularity), float(regularity), failed


def analyze_spectrum(spec):
    """Full PeakReport for a spectrum; NaN fields where peaks run out."""
    locations, heights = find_peaks(spec)
    nan = float("nan")
    qp = qp_std = env = env_err = nan
    if locations.size >= MIN_PEAKS:
        qp, qp_std = quasi_period(locations)
    try:
        env, env_err = envelope_decay_exponent(locations, heights)
    except InsufficientPeaksError:
        pass
    detected, score, regularity, failed = _verdict(locations)
    return PeakReport(
        locations=locations,
        heights=heights,
        quasi_period=qp,
        quasi_period_std=qp_std,
        envelope_exponent=env,
        envelope_stderr=env_err,
        score=score,
        detected=detected,
        regularity=regularity,
        failed_threshold=failed,
    )
