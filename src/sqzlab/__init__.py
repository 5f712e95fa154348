"""Squeezed-light simulation toolkit.

Single-mode Gaussian states in shot-noise units, cavity squeezing
spectra, loss and phase-jitter decoherence with parameter fitting,
photon-counting and homodyne detection with seeded sampling, and
interferometer quantum noise budgets.

The package exports the ``__all__`` names of its model modules.
"""

from . import budget, decoherence, detection, gaussian, opo
from .budget import *
from .decoherence import *
from .detection import *
from .gaussian import *
from .opo import *

__version__ = "0.1.0"

__all__ = [
    *budget.__all__,
    *decoherence.__all__,
    *detection.__all__,
    *gaussian.__all__,
    *opo.__all__,
]
