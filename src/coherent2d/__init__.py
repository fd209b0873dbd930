"""Coherent-state structure and dynamics of the 2D isotropic harmonic oscillator.

The initial Gaussian packet is expanded in the joint energy/angular-momentum
eigenbasis; closed-form coefficient ladders are confronted with an
independent projection-integral oracle, the angular-momentum and energy
moments with their closed forms, and the time-evolved packet with a
truncated spectral synthesis.
"""

from .dynamics import (
    SpectralEvolver,
    TrajectorySample,
    aligned_max_difference,
    closed_form_factors,
    evolve_closed_form,
    orbit_signed_area,
    trace_orbit,
)
from .expansion import (
    CoefficientTable,
    auto_truncation,
    build_table,
    coeff_elliptic,
    coeff_quadrature,
)
from .observables import (
    LadderMoments,
    ObservableReport,
    PartialMoments,
    closed_form_energy,
    closed_form_lz,
    compute_report,
    marginals,
    partial_moment_identities,
)
from .specialfn import (
    QuadratureRule,
    gauss_laguerre,
    laguerre,
    log_factorial,
    verify_laguerre_integral,
)
from .states import (
    Chirality,
    Grid2D,
    ModeIndex,
    PacketParams,
    PhysicalUnits,
    classical_center,
    coherent_2d,
    eigenstate,
    make_grid,
    modes_up_to,
    to_dimensionless,
)

__version__ = "0.1.0"

__all__ = [
    "Chirality",
    "CoefficientTable",
    "Grid2D",
    "LadderMoments",
    "ModeIndex",
    "ObservableReport",
    "PacketParams",
    "PartialMoments",
    "PhysicalUnits",
    "QuadratureRule",
    "SpectralEvolver",
    "TrajectorySample",
    "aligned_max_difference",
    "auto_truncation",
    "build_table",
    "classical_center",
    "closed_form_energy",
    "closed_form_factors",
    "closed_form_lz",
    "coeff_elliptic",
    "coeff_quadrature",
    "coherent_2d",
    "compute_report",
    "eigenstate",
    "evolve_closed_form",
    "gauss_laguerre",
    "laguerre",
    "log_factorial",
    "make_grid",
    "marginals",
    "modes_up_to",
    "orbit_signed_area",
    "partial_moment_identities",
    "to_dimensionless",
    "trace_orbit",
    "verify_laguerre_integral",
]
