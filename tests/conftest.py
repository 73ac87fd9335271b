"""Shared fixtures and frozen oracle values.

Every numeric constant here was computed with independent tooling
(mpmath at 50 digits and scipy adaptive quadrature, which agree to
~4e-15 on the nontrivial entries) and then frozen, so the tests compare
the package against references it did not produce.
"""

from __future__ import annotations

import numpy as np
import pytest

from sonine_kit import (
    affine_exponent,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
)

# gamma function references: (x, Gamma(x)) at 50-digit precision, rounded once
GAMMA_REFS = [
    (0.25, 3.625609908221908),
    (0.5, 1.772453850905516),
    (0.75, 1.2254167024651776),
    (1.0, 1.0),
    (1.5, 0.886226925452758),
    (2.0, 1.0),
    (3.5, 3.3233509704478426),
    (5.0, 24.0),
    (12.0, 39916800.0),
    (50.0, 6.082818640342675e62),
]

# Gamma(a) Gamma(1-a)
KAPPA_025 = 4.442882938158366
KAPPA_05 = 3.141592653589793
KAPPA_075 = 4.442882938158366

# profile A: alpha(t) = 0.5 + t/5 on [0, 0.5]
PROFILE_A = affine_exponent(0.5, 0.2, 0.5)
G_A_025 = 1.0455940748395565  # g(0.25)
G_A_05 = 1.055753018805894  # g(0.5)
GPRIME_A_025 = 0.08138322441535338  # g'(0.25)

# profile B: alpha(t) = 0.6 - t/10 on [0, 0.5]
PROFILE_B = affine_exponent(0.6, -0.1, 0.5)
G_B_025 = 0.981543461841188
G_B_05 = 0.9768163354904672

TWO_OVER_PI = 0.6366197723675814
EXP_MINUS_1 = 0.36787944117144233
VAR_KERNEL_AT_025 = 2.1435469250725863  # 0.25^(-0.55)


@pytest.fixture(scope="session")
def pair_a():
    return make_variable_exponent_pair(PROFILE_A, 0.5)


@pytest.fixture(scope="session")
def pair_b():
    return make_variable_exponent_pair(PROFILE_B, 0.5)


@pytest.fixture(scope="session")
def classical_half():
    return make_classical_abel_pair(0.5, 1.0)


@pytest.fixture(scope="session")
def mesh_512_half():
    return graded_mesh(512, 2.0, 0.5)


@pytest.fixture(scope="session")
def mesh_512_unit():
    return graded_mesh(512, 2.0, 1.0)


def geometric_times(b: float) -> np.ndarray:
    """The decreasing sample times b 2^-m, m = 2..12."""
    return b * 0.5 ** np.arange(2, 13, dtype=float)
