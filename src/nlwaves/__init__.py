"""Pseudospectral solvers for convolution-type nonlocal wave equations.

Public surface: kernels (Fourier symbols), the periodic spectral toolbox,
first-order system dynamics with RK4, a direct particle-chain model, and
convergence sweeps with log-log rate fits.
"""

from .convergence import (
    ConvergenceReport,
    RateFit,
    SweepConfig,
    fit_rate,
    lattice_sweep,
    operator_error,
    zero_dispersion_sweep,
)
from .dynamics import (
    ModelConfig,
    State,
    breakdown_monitor,
    cfl_dt,
    classical_rhs,
    energy,
    integrate,
    make_initial,
    nonlocal_rhs,
    rk4_step,
)
from .errors import (
    AlignmentError,
    BreakdownError,
    CompatibilityError,
    ConfigError,
    DegenerateDataError,
    DegenerateFitError,
    HyperbolicityError,
    InvalidKernelError,
    InvalidSpecError,
    NlwavesError,
    NonFiniteError,
)
from .kernels import Kernel, ValidationReport
from .lattice import (
    Chain,
    displacement_to_strain,
    initial_velocity,
    integrate_chain,
    make_chain,
    second_difference,
    strain_to_displacement,
)
from .spectral import (
    Field,
    Grid,
    apply_multiplier,
    dealiased_power,
    derivative,
    linf_norm,
    sobolev_norm,
    sobolev_scale,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BreakdownError",
    "Chain",
    "CompatibilityError",
    "ConfigError",
    "ConvergenceReport",
    "DegenerateDataError",
    "DegenerateFitError",
    "Field",
    "Grid",
    "HyperbolicityError",
    "InvalidKernelError",
    "InvalidSpecError",
    "Kernel",
    "ModelConfig",
    "NlwavesError",
    "NonFiniteError",
    "RateFit",
    "State",
    "SweepConfig",
    "ValidationReport",
    "apply_multiplier",
    "breakdown_monitor",
    "cfl_dt",
    "classical_rhs",
    "dealiased_power",
    "derivative",
    "displacement_to_strain",
    "energy",
    "fit_rate",
    "initial_velocity",
    "integrate",
    "integrate_chain",
    "lattice_sweep",
    "linf_norm",
    "make_chain",
    "make_initial",
    "nonlocal_rhs",
    "operator_error",
    "rk4_step",
    "second_difference",
    "sobolev_norm",
    "sobolev_scale",
    "strain_to_displacement",
    "zero_dispersion_sweep",
]
