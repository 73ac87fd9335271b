"""Shared fixtures and frozen oracle values.

Every numeric constant here was computed with independent tooling
(mpmath at 50 digits and scipy adaptive quadrature, which agree to
~4e-15 on the nontrivial entries) and then frozen, so the tests compare
the package against references it did not produce.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from sonine_kit import (
    KernelSpec,
    SoninePair,
    affine_exponent,
    graded_mesh,
    leading_term_pair,
    make_classical_abel_pair,
    make_variable_exponent_pair,
)
from sonine_kit import quadrature, volterra
from sonine_kit.sonine import _bounded_factor, _defect, _gprime_from_terms, _gprime_terms

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
def dense_triangle():
    """A context in which the product-integration triangle is dense: with
    FAR_GAP = inf no row cluster has far columns. Session-scoped, so that
    module-scoped oracles can enter it too."""

    @contextlib.contextmanager
    def dense():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "FAR_GAP", np.inf)
            yield

    return dense


@pytest.fixture(scope="session")
def mesh_512_half():
    return graded_mesh(512, 2.0, 0.5)


@pytest.fixture(scope="session")
def mesh_512_unit():
    return graded_mesh(512, 2.0, 1.0)


def two_term_pair(a: float, beta: float, lam: float, b: float) -> SoninePair:
    """The two-term pair of Yu. Luchko, Mathematics 9 (2021) 594, with k
    scaled by Gamma(1 - beta): k = t^(-beta) (1 + c t^a), c = lam
    Gamma(1 - beta) / Gamma(1 - beta + a), and K = t^(beta - 1) /
    kappa(beta), its :func:`leading_term_pair`. Its g = 1 + lam t^a /
    Gamma(1 + a) is exact, so g(0+) = 1, and g' = lam t^(a - 1) / Gamma(a)
    blows up as t^(-eps), eps = 1 - a."""
    c = lam * math.gamma(1.0 - beta) / math.gamma(1.0 - beta + a)
    k = KernelSpec(
        smooth_fn=lambda t: 1.0 + c * np.asarray(t, dtype=float) ** a,
        smooth0=1.0,
        local_exponent=beta,
        b=b,
        smooth_log_deriv=lambda t: c * a * np.asarray(t, dtype=float) ** a,
    )
    return leading_term_pair(k)


def hand_built_power(coef: float, gamma: float, b: float) -> KernelSpec:
    """coef t^(-gamma) on (0, b] built by hand: its bounded factor is a
    plain function and it carries no t S'(t), so it is not recognised as
    a pure power and takes the general paths."""
    return KernelSpec(
        smooth_fn=lambda t: np.full_like(np.asarray(t, dtype=float), coef),
        smooth0=coef, local_exponent=gamma, b=b,
    )


def sweep(gprime, F, mesh, eps):
    """The forward sweep of u + g' * u = F for g' = t^(-eps) m(t), with m
    and its m(0) by :func:`sonine_kit.solve_second_kind`'s rule: u and the
    relative row residual."""
    return volterra._forward_sweep(_bounded_factor(gprime, eps), F, mesh, eps)


def g_less_delta(pair: SoninePair, t, M: int):
    """g at a time or a flat array of times ``t`` inside (0, b] by the pair
    rule with ``M`` panels per half, less its delta on k's leading term
    where there is one (:func:`sonine_kit.sonine._defect`):
    :func:`sonine_kit.compute_g`'s g at chosen times and panel count."""
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    out = quadrature._pair_convolution(pair.K, pair.k, flat, M) - (_defect(pair, M) or 0.0)
    return float(out[0]) if np.ndim(t) == 0 else out


def gprime_at(pair: SoninePair, t: np.ndarray, M: int) -> np.ndarray:
    """g' at a flat array of times ``t`` inside (0, b] by the analytic rule
    (:func:`sonine_kit.sonine._gprime_terms`) with ``M`` panels per half:
    :func:`sonine_kit.check_gsc`'s g' at chosen times and panel count."""
    return _gprime_from_terms(_gprime_terms(pair), t, M)
