"""The extrapolated reference rule behind g = K * k, and the panel count
that no longer grows with the mesh.

The oracle is g and g' of two affine-profile pairs at three times each,
from mpmath at 30 digits, tabulated once for the module.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import g_less_delta, gprime_at
from sonine_kit import (
    RhsSpec,
    affine_exponent,
    check_gsc,
    discover_associate,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    solve_first_kind,
)
from sonine_kit import quadrature
from sonine_kit.quadrature import REF_PANELS, _default_panels, _reference_rule

#: (a0, a1, b) of alpha(t) = a0 + a1 t on (0, b]
PROFILES = [(0.5, 0.2, 0.5), (0.6, -0.1, 0.5)]


def _oracle(a0: float, a1: float, b: float) -> list[tuple[float, float, float]]:
    """(t, g(t), g'(t)) at t = b, b/8 and b/256 for k = t^(-alpha(t)) and
    K = t^(a0 - 1) / kappa(a0). g is the convolution itself; g' is
    (1/kappa) int_0^1 (1 - z)^(a0 - 1) z^(1 - a0) E'(t z) dz with E(x) =
    x^(a0 - alpha(x)), so E'(x) = -a1 E(x) (ln x + 1)."""
    with mp.workdps(30):
        kap = mp.gamma(a0) * mp.gamma(1 - a0)
        out = []
        for t in (b, b / 8, b / 256):
            t = mp.mpf(t)
            g = mp.quad(lambda s: (t - s) ** (a0 - 1) * s ** (-(a0 + a1 * s)), [0, t / 2, t])
            gp = mp.quad(
                lambda z: (1 - z) ** (a0 - 1)
                * z ** (1 - a0)
                * (-a1)
                * (t * z) ** (-a1 * t * z)
                * (mp.log(t * z) + 1),
                [0, 0.5, 1],
            )
            out.append((float(t), float(g / kap), float(gp / kap)))
    return out


@pytest.fixture(scope="module")
def oracle():
    return {
        prof: (make_variable_exponent_pair(affine_exponent(*prof), prof[2]), _oracle(*prof))
        for prof in PROFILES
    }


def _errors(pair, table, M):
    """Largest |error| of the rule's K * k and of g less delta, and the
    largest relative error of g', over the oracle's times."""
    ts, g, gp = (np.array(col) for col in zip(*table))
    direct = float(np.max(np.abs(quadrature._pair_convolution(pair.K, pair.k, ts, M) - g)))
    subst = float(np.max(np.abs(g_less_delta(pair, ts, M) - g)))
    gp_rel = float(np.max(np.abs(gprime_at(pair, ts, M) - gp) / np.abs(gp)))
    return direct, subst, gp_rel


class TestAgainstOracle:
    def test_default_panel_count(self, oracle):
        """At REF_PANELS, both routes meet g within 1e-9 and g' within 1e-7
        relative (measured: 9.3e-10, 1.3e-11 and 1.1e-8)."""
        for pair, table in oracle.values():
            direct, subst, gp_rel = _errors(pair, table, REF_PANELS)
            assert direct <= 1e-9
            assert subst <= 1e-9
            assert gp_rel <= 1e-7

    def test_fourth_order_in_M(self, oracle):
        """The observed order over M = 64, 128, 256 is about 4 on both
        routes and for g' (the plain product rule's is 2)."""
        for pair, table in oracle.values():
            errs = np.array([_errors(pair, table, M) for M in (64, 128, 256)])
            orders = np.log2(errs[:-1] / errs[1:])
            assert np.all(orders >= 3.5), orders


class TestSampledOnTheMesh:
    @pytest.mark.parametrize("N", [4096, 8192])
    def test_gprime_no_less_accurate_than_direct_rows(self, oracle, N):
        """On a uniform mesh whose nodes include the oracle's times, g' from
        the interpolant in ln t errs no more than the rule's own rows at
        those times, up to 1e-13 relative."""
        mesh = graded_mesh(N, 1.0, 0.5)
        M = _default_panels(N)
        for pair, table in oracle.values():
            sampled = check_gsc(pair, mesh).gprime.values
            ts = np.array([t for t, _, _ in table])
            gp = np.array([d for _, _, d in table])
            direct = gprime_at(pair, ts, M)  # three rows, no interpolant
            at = np.searchsorted(mesh.nodes, ts)
            np.testing.assert_array_equal(mesh.nodes[at], ts)
            assert np.all(np.abs(sampled[at] - gp) <= np.abs(direct - gp) + 1e-13 * np.abs(gp))


class TestExtrapolatedRule:
    @pytest.mark.parametrize("sigma", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.5])
    def test_exact_on_linear_functions(self, sigma, r):
        """int_0^1 v^(-sigma) dv = 1 / (1 - sigma), int_0^1 v^(1 - sigma) dv
        = 1 / (2 - sigma). Every weight past v = 0 is positive; the one at
        v = 0 dips below 0 on strongly graded rules with a weak singularity
        (-0.07 of its neighbour at r = 3.5, sigma = 0.3)."""
        v, w = _reference_rule(sigma, 64, r)
        assert math.isclose(math.fsum(w), 1.0 / (1.0 - sigma), rel_tol=1e-13)
        assert math.isclose(math.fsum(w * v), 1.0 / (2.0 - sigma), rel_tol=1e-13)
        assert np.all(w[1:] > 0.0)
        assert w[0] >= -0.2 * w[1]


class TestPanelCount:
    def test_default_is_even_and_capped(self):
        for N in (1, 31, 64, 65, 130, 131, 511, 512, 513, 1024, 16384):
            M = _default_panels(N)
            assert M % 2 == 0
            assert M == max(32, min(N // 2, REF_PANELS) // 2 * 2)
        assert _default_panels(512) == REF_PANELS
        assert _default_panels(1 << 20) == REF_PANELS

    def test_reference_nodes_do_not_track_N(self, monkeypatch):
        """At N = 8192 the condition check and a solve whose u blows up
        (f(0) != 0, pushed back through convolve_pair) use at most
        REF_PANELS + 1 reference nodes per half."""
        sizes = []

        def counting(sigma, M, r):
            v, w = _reference_rule(sigma, M, r)
            sizes.append(len(v))
            return v, w

        monkeypatch.setattr(quadrature, "_reference_rule", counting)
        variable = make_variable_exponent_pair(affine_exponent(0.5, 0.2, 0.5), 0.5)
        check_gsc(variable, graded_mesh(8192, 2.0, 0.5))
        classical = make_classical_abel_pair(0.5, 1.0)
        solve_first_kind(
            classical, RhsSpec.from_polynomial([0.5, -1.0, 2.0]), graded_mesh(8192, 2.0, 1.0)
        )
        assert sizes and max(sizes) <= REF_PANELS + 1


class TestGrading:
    def test_every_pipeline_rule_is_graded_at_the_cap(self, monkeypatch):
        """The reference rules are graded from the two local orders. Every
        pair a pipeline convolves, (K, k), (K, t^(-alpha0)), (K, q) and the
        push-back (u, k), has orders summing to 1, so the larger is at
        least 1/2 and the grading sits at its cap of 4."""
        gradings = []

        def recording(sigma, M, r):
            gradings.append(r)
            return _reference_rule(sigma, M, r)

        monkeypatch.setattr(quadrature, "_reference_rule", recording)
        classical = make_classical_abel_pair(0.3, 0.5)
        variable = make_variable_exponent_pair(affine_exponent(0.7, -0.2, 0.5), 0.5)
        mesh = graded_mesh(256, 2.0, 0.5)
        for pair in (classical, variable):
            check_gsc(pair, mesh)
            # f(0) != 0: the unbounded u is pushed back through convolve_pair
            solve_first_kind(pair, RhsSpec.from_polynomial([0.5, -1.0, 2.0]), mesh)
            discover_associate(pair.k, pair.K, mesh)
        assert gradings and set(gradings) == {4.0}

