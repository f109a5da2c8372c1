"""Random physical X states for the concurrence tests."""

import cmath
import math

import numpy as np


def random_xstate(rng: np.random.Generator) -> np.ndarray:
    """Draw the 4x4 density matrix of a physical X state.

    Populations from a flat Dirichlet, each coherence modulus uniform
    inside its positivity disk, phases uniform.
    """
    d = rng.dirichlet(np.ones(4))
    m14 = rng.uniform(0.0, math.sqrt(d[0] * d[3]))
    m23 = rng.uniform(0.0, math.sqrt(d[1] * d[2]))
    ph14 = rng.uniform(0.0, 2.0 * math.pi)
    ph23 = rng.uniform(0.0, 2.0 * math.pi)
    a14 = m14 * cmath.exp(1j * ph14)
    a23 = m23 * cmath.exp(1j * ph23)
    rho = np.diag(d).astype(complex)
    rho[0, 3], rho[3, 0] = a14, a14.conjugate()
    rho[1, 2], rho[2, 1] = a23, a23.conjugate()
    return rho
