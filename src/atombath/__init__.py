"""Open-system dynamics of a uniformly moving atom in a thermal scalar bath.

The package follows one physical pipeline: thermal field correlations
along an inertial worldline (:mod:`atombath.correlations`) set the
Lindblad rates of a moving two-level system
(:mod:`atombath.coefficients`), the resulting master equation evolves
the joint state with an inert partner qubit (:mod:`atombath.dynamics`),
and the entanglement of that pair is tracked to its sudden death
(:mod:`atombath.entanglement`).  :mod:`atombath.specfun` supplies the
Bose window integral behind the derivative-coupling occupation, and
:mod:`atombath.cli` exposes everything as scan commands.

Importing the package loads no numpy: the closed forms run on ``math``
and ``cmath`` alone, and numpy is imported by the first oracle or
state-matrix call.
"""

from . import coefficients, correlations, dynamics, entanglement, specfun

__version__ = "0.1.0"

_MODULES = (coefficients, correlations, dynamics, entanglement, specfun)

__all__ = [name for mod in _MODULES for name in mod.__all__]

# dynamics' Pauli arrays are built, and numpy imported, on first access
# (__getattr__): a star import would build them here
_LAZY = ("PAULI", "PAULI_PAIR")

globals().update(
    (name, getattr(mod, name)) for mod in _MODULES for name in mod.__all__ if name not in _LAZY
)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
