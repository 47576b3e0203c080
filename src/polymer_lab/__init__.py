"""Numerical toolkit for continuous homopolymers near their critical coupling.

Six pieces, one pipeline: closed forms of the interaction kernel and its
time integral (laplace; the Bromwich quadrature is a test oracle), the
zero-range limit measures built from them (zerorange), exact
transfer-matrix spectra of the well operator (spectral), heat flows for
the finite-size laws inverted from the exact per-cell resolvent (heatflow;
Crank-Nicolson is a test oracle), weighted Wiener ensembles whose
diffusively rescaled marginals are scored by a weighted KS distance
(montecarlo), and a CLI that orchestrates the verification suites (cli).
"""

__version__ = "0.1.0"

from .laplace import kernel_closed_form, kernel_integral, zbar_correction, zeta_constant
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
    sample_paths,
    transition_R,
    transition_R0,
    zbar,
)
from .heatflow import (
    partition,
    point_source,
    verify_poten_family,
    verify_prop1,
    verify_prop3,
)
from .montecarlo import (
    PathEnsemble,
    ks_distance,
    sample_weighted_paths,
    verify_prop2,
    verify_theorem2,
)

__all__ = [
    "__version__",
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
    "sample_paths",
    "transition_R",
    "transition_R0",
    "zbar",
    "partition",
    "point_source",
    "verify_poten_family",
    "verify_prop1",
    "verify_prop3",
    "PathEnsemble",
    "ks_distance",
    "sample_weighted_paths",
    "verify_prop2",
    "verify_theorem2",
]
