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

# Each module's __all__ is its public API; the package re-exports those of
# the library modules.  Importing a submodule binds its name here too.
from .transforms import *
from .corr_models import *
from .peak_analysis import *
from .toy_disks_analytic import *
from .toy_disks_mc import *

__version__ = "0.1.0"

__all__ = []
__all__ += transforms.__all__
__all__ += corr_models.__all__
__all__ += peak_analysis.__all__
__all__ += toy_disks_analytic.__all__
__all__ += toy_disks_mc.__all__
