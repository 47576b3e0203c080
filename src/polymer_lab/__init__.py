"""Numerical toolkit for continuous homopolymers near their critical coupling.

Six pieces, one pipeline: Bromwich contour quadrature for the interaction
kernel (laplace), the zero-range limit measures built from it (zerorange),
exact transfer-matrix spectra of the well operator (spectral),
Crank-Nicolson heat flows for the finite-size laws (heatflow), weighted
Wiener ensembles under diffusive rescaling (montecarlo), and a CLI that
orchestrates the verification suites (cli).
"""

__version__ = "0.1.0"

from .laplace import (
    ContourPlacementError,
    ContourSpec,
    LaplaceEvaluationError,
    bromwich_invert,
    kernel_closed_form,
    kernel_integral,
    zbar_correction,
    zeta_constant,
)
from .potentials import RadialPotential, scaled_ball_potential, unit_ball_potential
from .radial import RadialDensity, default_radial_grid, wiener_radial_cdf
from .spectral import (
    SpectralSummary,
    compute_summary,
    critical_beta,
    gamma_of_chi,
    principal_eigenvalue,
)
from .zerorange import (
    GridExhaustionError,
    ZeroRangeParams,
    fdd_density,
    marginal_radial,
    pbar,
    sample_path,
    sample_paths,
    transition_R,
    transition_R0,
    zbar,
)
from .heatflow import (
    StepperConfig,
    evolve_partition,
    evolve_point_source,
    verify_poten_family,
    verify_prop1,
    verify_prop3,
)
from .montecarlo import (
    PathEnsemble,
    WeightedECDF,
    empirical_radial_marginal,
    ks_distance,
    rescale_ensemble,
    sample_weighted_paths,
    verify_prop2,
    verify_theorem2,
)

__all__ = [
    "__version__",
    "ContourPlacementError",
    "ContourSpec",
    "LaplaceEvaluationError",
    "bromwich_invert",
    "kernel_closed_form",
    "kernel_integral",
    "zbar_correction",
    "zeta_constant",
    "RadialPotential",
    "scaled_ball_potential",
    "unit_ball_potential",
    "RadialDensity",
    "default_radial_grid",
    "wiener_radial_cdf",
    "SpectralSummary",
    "compute_summary",
    "critical_beta",
    "gamma_of_chi",
    "principal_eigenvalue",
    "GridExhaustionError",
    "ZeroRangeParams",
    "fdd_density",
    "marginal_radial",
    "pbar",
    "sample_path",
    "sample_paths",
    "transition_R",
    "transition_R0",
    "zbar",
    "StepperConfig",
    "evolve_partition",
    "evolve_point_source",
    "verify_poten_family",
    "verify_prop1",
    "verify_prop3",
    "PathEnsemble",
    "WeightedECDF",
    "empirical_radial_marginal",
    "ks_distance",
    "rescale_ensemble",
    "sample_weighted_paths",
    "verify_prop2",
    "verify_theorem2",
]
