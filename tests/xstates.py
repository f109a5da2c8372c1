"""Random physical X states for the concurrence tests."""

import cmath
import math

import numpy as np

from atombath.entanglement import XState


def random_xstate(rng: np.random.Generator) -> XState:
    """Draw a physical X state.

    Populations from a flat Dirichlet, each coherence modulus uniform
    inside its positivity disk, phases uniform.
    """
    d = rng.dirichlet(np.ones(4))
    m14 = rng.uniform(0.0, math.sqrt(d[0] * d[3]))
    m23 = rng.uniform(0.0, math.sqrt(d[1] * d[2]))
    ph14 = rng.uniform(0.0, 2.0 * math.pi)
    ph23 = rng.uniform(0.0, 2.0 * math.pi)
    return XState(
        d1=float(d[0]),
        d2=float(d[1]),
        d3=float(d[2]),
        d4=float(d[3]),
        a14=m14 * cmath.exp(1j * ph14),
        a23=m23 * cmath.exp(1j * ph23),
    )
