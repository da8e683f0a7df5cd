"""Linear sampling method for locating admittance inclusions in the unit disk.

Forward simulation of Neumann-to-Dirichlet boundary data for anisotropic
complex inclusions, and support reconstruction by thresholding the norm of
Morozov-regularized solutions of the sampling equation over a grid.
"""

__version__ = "0.1.0"

import os as _os

# the dense work is 2N x 2N: a BLAS thread per core only competes for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .dipole import (
    AuxCircle,
    DipoleSpec,
    SingularTraceComputer,
    disk_dipole_traces,
    layer_current_matrix,
    layer_current_multipliers,
    singular_trace,
)
from .errors import ConfigurationError, EstimationError, SolverError, ToolkitError
from .forward import (
    FemSystem,
    NdMap,
    add_noise,
    assemble_system,
    compute_background_nd_map,
    compute_nd_map,
    load_nd_map,
    nd_map_from_system,
    reciprocity_defect,
    save_nd_map,
)
from .geometry import (
    BoundaryField,
    DiskMesh,
    build_disk_mesh,
    fourier_modes,
    fourier_projector,
    trace_to_fourier,
)
from .media import (
    AdmittanceField,
    Disk,
    Ellipse,
    InclusionGeometry,
    check_absorption,
    check_coercivity,
    load_scenario,
    parse_scenario,
)
from .sampling import (
    DEFAULT_CUTOFF_MULTIPLIER,
    DensityResult,
    IndicatorMap,
    MorozovResult,
    RelativeData,
    estimate_support,
    grid_points,
    indicator_map,
    make_relative_data,
    morozov_alpha,
    reconstruct_via_density,
    tikhonov_solve,
    write_indicator_csv,
    write_indicator_pgm,
    write_mask_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
