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

from .coefficients import *
from .correlations import *
from .dynamics import *
from .entanglement import *
from .specfun import *

__version__ = "0.1.0"

__all__ = (
    coefficients.__all__
    + correlations.__all__
    + dynamics.__all__
    + entanglement.__all__
    + specfun.__all__
)
