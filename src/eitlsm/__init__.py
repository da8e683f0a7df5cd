"""Linear sampling method for locating admittance inclusions in the unit disk.

Forward simulation of Neumann-to-Dirichlet boundary data for anisotropic
complex inclusions, and support reconstruction by thresholding the norm of
Morozov-regularized solutions of the sampling equation over a grid.
"""

__version__ = "0.1.0"

import os as _os

# dense matrices are 2N x 2N in the sweep, 6a x 6a or (6M + 1) square in the FEM (114 for the
# reference disk's a = 19 dense rings, 205 at the default h_target 0.03; the default scenario
# has no inclusion): a BLAS thread per core only competes for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

# each module's __all__ is the one declaration of its public names
from . import dipole, errors, forward, geometry, media, sampling
from .dipole import *
from .errors import *
from .forward import *
from .geometry import *
from .media import *
from .sampling import *

__all__ = [name for module in (dipole, errors, forward, geometry, media, sampling)
           for name in module.__all__]
