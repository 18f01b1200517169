"""Angular correlation functions, spectra, and peak diagnostics for disk sky models.

The package is organised around two small container types
(:class:`~corrpeaks.transforms.TabulatedCorrelation`,
:class:`~corrpeaks.transforms.PowerSpectrum`) passed between four layers:

* :mod:`corrpeaks.corr_models` - closed-form correlation models C(theta)
* :mod:`corrpeaks.transforms` - harmonic and Fourier transforms of those models
* :mod:`corrpeaks.peak_analysis` - oscillation detection on the transformed side
* :mod:`corrpeaks.toy_disks_analytic` / :mod:`corrpeaks.toy_disks_mc` -
  correlation functions of randomly placed disks, exact and sampled
"""

from .transforms import (
    TabulatedCorrelation,
    PowerSpectrum,
    Profile1D,
    ExtrapolationError,
    legendre_coefficients,
    correlation_from_spectrum,
    small_angle_spectrum,
    ft_1d,
    spherical_box_ft,
    box_profile,
    triangle_profile,
    quadratic_spline_profile,
)
from .corr_models import (
    DoubleExp,
    BrokenExp,
    Toy2Uniform,
    Toy2Distance,
    default_model,
)
from .peak_analysis import (
    PeakReport,
    InsufficientPeaksError,
    find_peaks,
    quasi_period,
    envelope_decay_exponent,
    analyze_spectrum,
)
from .toy_disks_analytic import (
    DiskProfile,
    CenterCorrelation,
    top_hat_disk,
    exponential_disk,
    poisson_centers,
    hard_core_centers,
    clustered_centers,
    same_disk_integral,
    other_disk_integral,
    correlation_toy1,
    preset_case,
)
from .toy_disks_mc import (
    DiskEnsembleConfig,
    RealizationStats,
    PackingError,
    realization_rng,
    sample_centers,
    sample_disk_points,
    estimate_correlation,
    pair_count_baseline,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "TabulatedCorrelation", "PowerSpectrum", "Profile1D", "ExtrapolationError",
    "legendre_coefficients", "correlation_from_spectrum", "small_angle_spectrum",
    "ft_1d", "spherical_box_ft",
    "box_profile", "triangle_profile", "quadratic_spline_profile",
    "DoubleExp", "BrokenExp", "Toy2Uniform", "Toy2Distance", "default_model",
    "PeakReport", "InsufficientPeaksError", "find_peaks", "quasi_period",
    "envelope_decay_exponent", "analyze_spectrum",
    "DiskProfile", "CenterCorrelation", "top_hat_disk", "exponential_disk",
    "poisson_centers", "hard_core_centers", "clustered_centers",
    "same_disk_integral", "other_disk_integral", "correlation_toy1", "preset_case",
    "DiskEnsembleConfig", "RealizationStats", "PackingError",
    "realization_rng", "sample_centers", "sample_disk_points",
    "estimate_correlation", "pair_count_baseline", "run_ensemble",
]
