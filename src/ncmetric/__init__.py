"""Numerical toolkit for noncommutative pseudometrics and free convolution.

Infinitesimal metrics on matrix-level nc domains (ray search, closed
forms, kernel formula), a division distance bound and a path distance
estimate, contraction reports for nc functions, and the operator-valued
subordination solver with spectral-density output. The names imported
below are the package namespace; import any other from its module.
"""

from .domains import BallKernel, NormBound, SpectralDisk
from .freeprob import ScalarLaw, ScalarPower, density_grid, picard_ratio, subordination_solve, support_interval
from .matcore import InputError, NcmetricError, NumericalFailure
from .metric import delta_auto_tilde, delta_closed, delta_tilde
from .ncpoint import direction, point

__version__ = "0.1.0"
