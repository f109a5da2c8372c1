"""Open-system dynamics of a uniformly moving atom in a thermal scalar bath.

The package follows one physical pipeline: thermal field correlations
along an inertial worldline (:mod:`atombath.correlations`) set the
Lindblad rates of a moving two-level system
(:mod:`atombath.coefficients`), the resulting master equation evolves
the joint state with an inert partner qubit (:mod:`atombath.dynamics`),
and the entanglement of that pair is tracked to its sudden death
(:mod:`atombath.entanglement`).  :mod:`atombath.specfun` supplies the
Bose window integral behind the derivative-coupling occupation and the
polylogarithms of its closed-form tail, and :mod:`atombath.cli` exposes
everything as scan commands.
"""

from .coefficients import (
    BathParams,
    Coupling,
    DetectorParams,
    LindbladCoefficients,
    doppler_shifts,
    doppler_window,
    gamma_td,
    gamma_udw,
    lindblad_coefficients,
    n_td,
    n_udw,
    planck_occupation,
    rate_unit,
)
from .correlations import (
    CorrelationQuery,
    MarkovDiagnostic,
    PoleProximityWarning,
    markov_diagnostic,
    thermal_sin_transform,
    vacuum_wightman,
    wightman_coincidence,
    wightman_derivative,
    wightman_moving,
    wightman_static,
)
from .dynamics import (
    PositivityWarning,
    bell_state,
    bloch_from_density,
    check_density_matrix,
    density_from_bloch,
    evolve_closed_form,
    evolve_numeric,
    gksl_generator,
    partial_trace,
    shared_state,
)
from .entanglement import (
    XState,
    concurrence,
    concurrence_closed_form,
    concurrence_xstate,
    sudden_death_time,
    sudden_death_time_bisection,
)
from .specfun import (
    QuadratureError,
    bose_tail,
    bose_window,
    polylog,
)

__version__ = "0.1.0"

__all__ = [
    "BathParams",
    "Coupling",
    "CorrelationQuery",
    "DetectorParams",
    "LindbladCoefficients",
    "MarkovDiagnostic",
    "PoleProximityWarning",
    "PositivityWarning",
    "QuadratureError",
    "XState",
    "bell_state",
    "bloch_from_density",
    "bose_tail",
    "bose_window",
    "check_density_matrix",
    "concurrence",
    "concurrence_closed_form",
    "concurrence_xstate",
    "density_from_bloch",
    "doppler_shifts",
    "doppler_window",
    "evolve_closed_form",
    "evolve_numeric",
    "gamma_td",
    "gamma_udw",
    "gksl_generator",
    "lindblad_coefficients",
    "markov_diagnostic",
    "n_td",
    "n_udw",
    "partial_trace",
    "planck_occupation",
    "polylog",
    "rate_unit",
    "shared_state",
    "sudden_death_time",
    "sudden_death_time_bisection",
    "thermal_sin_transform",
    "vacuum_wightman",
    "wightman_coincidence",
    "wightman_derivative",
    "wightman_moving",
    "wightman_static",
]
