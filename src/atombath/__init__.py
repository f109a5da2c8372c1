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
and ``cmath`` alone, and :mod:`atombath._np` imports numpy on the first
oracle or state-matrix call.
"""

from . import coefficients, correlations, dynamics, entanglement, specfun

__version__ = "0.1.0"

_MODULES = (coefficients, correlations, dynamics, entanglement, specfun)
_HOME = {name: mod for mod in _MODULES for name in mod.__all__}  # name -> the module listing it

__all__ = list(_HOME)

# only the names each module already holds: dynamics' arrays (PAULI,
# PAULI_PAIR) are forwarded by __getattr__, built on first read
globals().update((name, vars(mod)[name]) for name, mod in _HOME.items() if name in vars(mod))


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
