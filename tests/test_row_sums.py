"""Blocked row sums against per-node math.fsum oracles.

The O(N M) product-integration sums are evaluated in row blocks with one
matrix-vector product per half. The oracles below evaluate the same
quadrature one time at a time with an exactly rounded sum, so any
difference is rounding order only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sonine_kit import (
    KernelSpec,
    SampledFunction,
    classical_abel_kernel,
    compute_g_substituted,
    convolve_pair,
    convolve_pair_at,
    default_grading,
    estimate_gprime,
    graded_mesh,
    make_classical_abel_pair,
)
from sonine_kit.quadrature import BLOCK_ENTRIES, _reference_rule

RTOL = 1e-13


def pair_oracle(K, k, t, M):
    """(K * k)(t) split at t/2, each half summed with math.fsum."""
    r_ref = default_grading(K.sing_exponent, k.sing_exponent)
    vL, wL = _reference_rule(k.local_exponent, M, r_ref)
    vR, wR = _reference_rule(K.local_exponent, M, r_ref)
    c = 0.5 * t
    sL = c * vL
    sR = c * vR
    left = c ** (1.0 - k.local_exponent) * math.fsum(wL * k.smooth(sL) * K.eval(t - sL))
    right = c ** (1.0 - K.local_exponent) * math.fsum(wR * K.smooth(sR) * k.eval(t - sR))
    return left + right


def substituted_oracle(pair, t, M, derivative):
    """g(t) (or g'(t)) of the substituted route, each half summed with math.fsum."""
    af = pair.exponent
    a0 = float(af.eval(0.0))
    r_ref = default_grading(a0, 1.0 - a0)
    vL, wL = _reference_rule(a0, M, r_ref)
    vR, wR = _reference_rule(1.0 - a0, M, r_ref)
    zL = 0.5 * vL[1:]  # z = 0 contributes 0 to both g - 1 and g'
    zR = 1.0 - 0.5 * vR

    def em1(x):
        return np.expm1((a0 - af.eval(x)) * np.log(x))

    def dE(x):
        q = a0 - af.eval(x)
        return np.exp(q * np.log(x)) * (-af.deriv(x) * np.log(x) + q / x)

    fn, p = (dE, 1.0) if derivative else (em1, 0.0)
    left = 0.5 ** (1.0 - a0) * math.fsum(
        wL[1:] * fn(t * zL) * zL**p * (1.0 - zL) ** (a0 - 1.0)
    )
    right = 0.5**a0 * math.fsum(wR * fn(t * zR) * zR ** (p - a0))
    value = (left + right) / pair.kappa
    return value if derivative else 1.0 + value


def tabulated_pair():
    """A singular kernel known only by node samples, with a classical partner."""
    m = graded_mesh(64, 2.0, 0.5)
    vals = np.full(65, np.nan)
    t = m.nodes[1:]
    vals[1:] = t**-0.3 * (1.0 + t)
    K = KernelSpec.from_samples(SampledFunction(mesh=m, values=vals))
    return K, classical_abel_kernel(0.4, 0.5)


def rows_per_block(M):
    return max(1, BLOCK_ENTRIES // (M + 1))


class TestBlockedConvolvePair:
    @pytest.mark.parametrize("kind", ["classical", "variable", "tabulated"])
    def test_matches_fsum_oracle_with_partial_last_block(self, kind, pair_a):
        M = 64
        N = 2 * rows_per_block(M) + 5  # two full blocks and a partial one
        if kind == "classical":
            pair = make_classical_abel_pair(0.3, 0.5)
            K, k = pair.K, pair.k
        elif kind == "variable":
            K, k = pair_a.K, pair_a.k
        else:
            K, k = tabulated_pair()
        mesh = graded_mesh(N, 2.0, 0.5)
        got = convolve_pair(K, k, mesh, M=M).values[1:]
        want = np.array([pair_oracle(K, k, float(t), M) for t in mesh.nodes[1:]])
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)

    def test_one_row_per_block_above_budget(self, pair_a):
        M = BLOCK_ENTRIES  # M + 1 entries exceed the block budget
        mesh = graded_mesh(3, 2.0, 0.5)
        got = convolve_pair(pair_a.K, pair_a.k, mesh, M=M).values[1:]
        want = [pair_oracle(pair_a.K, pair_a.k, float(t), M) for t in mesh.nodes[1:]]
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)

    def test_single_time_is_the_one_row_case(self, pair_a):
        K, k = tabulated_pair()
        for t in (0.01, 0.37, 0.5):
            assert convolve_pair_at(K, k, t, 64) == pytest.approx(
                pair_oracle(K, k, t, 64), rel=RTOL, abs=0.0
            )
            assert convolve_pair_at(pair_a.K, pair_a.k, t, 64) == pytest.approx(
                pair_oracle(pair_a.K, pair_a.k, t, 64), rel=RTOL, abs=0.0
            )


class TestBlockedSubstitutedRoute:
    def test_g_matches_fsum_oracle(self, pair_a, pair_b):
        M = 128
        ts = graded_mesh(2 * rows_per_block(M) + 5, 2.0, 0.5).nodes[1:]
        for pair in (pair_a, pair_b):
            got = compute_g_substituted(pair, ts, M=M)
            want = [substituted_oracle(pair, float(t), M, False) for t in ts]
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)

    def test_gprime_matches_fsum_oracle(self, pair_a, pair_b):
        M = 128
        mesh = graded_mesh(2 * rows_per_block(M) + 5, 2.0, 0.5)
        for pair in (pair_a, pair_b):
            got = estimate_gprime(pair, mesh, M=M).values[1:]
            want = [substituted_oracle(pair, float(t), M, True) for t in mesh.nodes[1:]]
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)

    def test_one_row_per_block_above_budget(self, pair_a):
        M = BLOCK_ENTRIES
        mesh = graded_mesh(3, 2.0, 0.5)
        got_g = compute_g_substituted(pair_a, mesh.nodes[1:], M=M)
        got_gp = estimate_gprime(pair_a, mesh, M=M).values[1:]
        for t, g, gp in zip(mesh.nodes[1:], got_g, got_gp):
            assert g == pytest.approx(substituted_oracle(pair_a, t, M, False), rel=RTOL, abs=0.0)
            assert gp == pytest.approx(substituted_oracle(pair_a, t, M, True), rel=RTOL, abs=0.0)

    def test_multidimensional_times_keep_their_shape(self, pair_a):
        ts = np.array([[0.05, 0.1], [0.25, 0.5]])
        got = compute_g_substituted(pair_a, ts, M=64)
        assert got.shape == (2, 2)
        want = [[compute_g_substituted(pair_a, float(t), M=64) for t in row] for row in ts]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
