"""Numerical laboratory for gBBM solitary waves at the critical speed."""

from .grid import (
    Field,
    Grid,
    GridError,
    derivative,
    helmholtz_inverse,
    inner,
    make_grid,
    norm_h1,
    norm_l2,
    quadrature,
    translate,
)
from .ground_state import (
    GroundState,
    IdentityReport,
    SampledProfile,
    closed_form_identities,
    critical_speed,
    normalized_profile_norm_sq,
)
from .functionals import (
    energy,
    hessian_apply,
    momentum,
)
from .structure import (
    TableReport,
    coefficients,
    gamma_direction,
    kappa_closed_form,
    modulation_pairing,
    negativity_form,
    negativity_table,
)
from .spectral import (
    CoercivityReport,
    SpectrumReport,
    bound_states,
    constrained_form_minimum,
    discretize_weinstein,
    eigenpairs,
    essential_spectrum_edge,
    inverse_pairing,
    negative_direction_check,
)
from .dynamics import (
    BlowupError,
    Trajectory,
    UnresolvedError,
    auto_points,
    evolve,
    stream,
)
from .modulation import (
    ExperimentReport,
    ModulationError,
    ModulationState,
    VirialReport,
    decompose,
    gamma_curvature_closed,
    gamma_of_lambda,
    instability_experiment,
    virial_monitor,
)

__version__ = "0.1.0"
