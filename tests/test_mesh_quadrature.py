"""Graded meshes, product weights, and the singular convolutions."""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G_A_025, G_A_05, G_B_025, G_B_05
from sonine_kit import (
    DomainError,
    Mesh,
    SampledFunction,
    classical_abel_kernel,
    convolve_pair,
    convolve_pair_at,
    convolve_weakly_singular,
    default_grading,
    graded_mesh,
    make_classical_abel_pair,
    power_kernel,
    product_weights,
)
from sonine_kit.mesh import MAX_ENDPOINT
from sonine_kit.quadrature import _moments


class TestGradedMesh:
    def test_pinned_nodes(self):
        np.testing.assert_array_equal(
            graded_mesh(4, 2.0, 1.0).nodes, [0.0, 0.0625, 0.25, 0.5625, 1.0]
        )
        np.testing.assert_array_equal(graded_mesh(2, 3.0, 1.0).nodes, [0.0, 0.125, 1.0])

    def test_uniform_when_r_is_one(self):
        m = graded_mesh(5, 1.0, 2.5)
        np.testing.assert_allclose(np.diff(m.nodes), 0.5, rtol=1e-15)

    def test_endpoints_exact(self):
        m = graded_mesh(7, 3.7, 0.83)
        assert m.nodes[0] == 0.0 and m.nodes[-1] == 0.83
        assert m.b == Mesh(nodes=m.nodes).b == 0.83 and type(m.b) is float
        assert np.all(np.diff(m.nodes) > 0)

    def test_validation(self):
        for args in [(1, 2.0, 1.0), (0, 2.0, 1.0), (4, 0.5, 1.0), (4, 2.0, 0.0),
                     (4, 2.0, -1.0), (4, float("nan"), 1.0)]:
            with pytest.raises(DomainError):
                graded_mesh(*args)

    @pytest.mark.parametrize("N, r", [(64, 180.0), (4096, 100.0)])
    def test_underflowing_nodes_refused(self, N, r):
        # t_1 = N^-r rounds to 0, so t_0 = t_1 would contradict 0 = t_0 < t_1
        with pytest.raises(DomainError, match=f"N={N}, r={r!r}"):
            graded_mesh(N, r, 1.0)

    def test_overflowing_endpoint_refused(self):
        assert math.isfinite(MAX_ENDPOINT * MAX_ENDPOINT)
        assert graded_mesh(4, 2.0, MAX_ENDPOINT).b == MAX_ENDPOINT
        named = re.escape(f"(0, {MAX_ENDPOINT!r}] (b^2 finite), got")
        with pytest.raises(DomainError, match=named):
            graded_mesh(4, 2.0, math.nextafter(MAX_ENDPOINT, math.inf))
        with pytest.raises(DomainError, match="b\\^2 finite"):
            graded_mesh(4, 2.0, 1e200)

    def test_steep_representable_grading_kept(self):
        m = graded_mesh(64, 170.0, 1.0)  # t_1 = 2^-1020 is still a normal float
        assert m.nodes[1] > 0.0 and np.all(np.diff(m.nodes) > 0)

    def test_nodes_are_immutable(self):
        m = graded_mesh(4, 2.0, 1.0)
        with pytest.raises(ValueError):
            m.nodes[1] = 7.0

    def test_default_grading(self):
        assert default_grading(0.5) == 4.0
        assert abs(default_grading(0.2) - 2.5) <= 1e-15
        assert default_grading(0.9, 0.2) == 4.0  # capped
        with pytest.raises(DomainError):
            default_grading(1.0)
        with pytest.raises(DomainError):
            default_grading()


class TestSampledFunction:
    def test_linear_interpolation(self):
        m = graded_mesh(4, 1.0, 1.0)
        sf = SampledFunction(mesh=m, values=2.0 * m.nodes)
        assert sf(0.375) == pytest.approx(0.75, abs=1e-15)
        assert sf.defined_at_zero

    def test_undefined_origin(self):
        m = graded_mesh(4, 1.0, 1.0)
        vals = np.array([np.nan, 1.0, 2.0, 3.0, 4.0])
        sf = SampledFunction(mesh=m, values=vals)
        assert not sf.defined_at_zero

    def test_interior_nan_rejected(self):
        m = graded_mesh(4, 1.0, 1.0)
        vals = np.array([0.0, 1.0, np.nan, 3.0, 4.0])
        with pytest.raises(DomainError):
            SampledFunction(mesh=m, values=vals)


class TestProductWeights:
    def test_pinned_moments(self):
        # uniform width-1 panel, square-root singularity at the right end
        m = graded_mesh(2, 1.0, 2.0)
        w = product_weights(m, 1, 0.5)
        assert abs(math.fsum(w) - 2.0) <= 1e-14
        assert abs(float(w @ m.nodes[:2]) - 4.0 / 3.0) <= 1e-14

    def test_reversed_distances_are_refused(self):
        """np.power rounds a reversed view of d differently in the last bit,
        which the far weights amplify (2.8e-10 relative at 257 nodes, beta
        = 0.05), so such a row is refused before any arithmetic; its
        contiguous copy and a positive-stride view are not."""
        v = np.linspace(0.0, 1.0, 257)
        d = (1.0 - v)[::-1]
        work = np.full((2, 2 * d.size), 7.0)
        for rows in (d, np.stack([1.0 - v, 1.0 - v])[:, ::-1]):
            with pytest.raises(DomainError, match="stride"):
                _moments(rows, np.diff(d), 0.05, "left", work)
        assert np.all(work == 7.0)
        w = _moments(d.copy(), np.diff(d), 0.05, "left")
        assert abs(math.fsum(w) - 1.0 / 0.05) <= 1e-12
        _moments(v[::2], np.diff(v[::2]), 0.05, "left")

    def test_weight_sum_identity(self):
        m = graded_mesh(64, 3.0, 0.7)
        for i in (1, 5, 64):
            for beta in (0.25, 0.5, 0.9):
                s = math.fsum(product_weights(m, i, beta))
                exact = m.nodes[i] ** beta / beta
                assert abs(s - exact) <= 1e-12 * max(1.0, exact)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_exact_on_linear_integrands(self, n, r, beta, a, c):
        """Sum w (a + c s) must equal the closed-form moment integral."""
        m = graded_mesh(n, r, 1.3)
        i = n
        t = m.nodes[i]
        w = product_weights(m, i, beta)
        got = float(w @ (a + c * m.nodes[: i + 1]))
        exact = a * t**beta / beta + c * t ** (beta + 1.0) / (beta * (beta + 1.0))
        assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_bit_identical_to_divided_differences(self, beta):
        """Each weight is the second divided difference of d^(beta+1) /
        (beta (beta+1)) across its hat function, one power per node; the
        weights must equal that expression bit for bit."""

        def divided_differences(nodes):
            d = nodes[-1] - nodes
            P = np.power(d, beta + 1.0)
            D = (P[:-1] - P[1:]) / (np.diff(nodes) * (beta * (beta + 1.0)))
            return np.append(P[0] / (d[0] * beta), D) - np.append(D, 0.0)

        for m in (graded_mesh(7, 1.0, 1.0), graded_mesh(300, 2.0, 0.5), graded_mesh(500, 3.5, 2.0)):
            for i in range(1, m.N + 1):
                np.testing.assert_array_equal(
                    product_weights(m, i, beta), divided_differences(m.nodes[: i + 1])
                )

    def test_validation(self):
        m = graded_mesh(4, 1.0, 1.0)
        for bad in [(m, 0, 0.5), (m, 5, 0.5), (m, 2, 0.0), (m, 2, 1.0), (m, 2, -0.5)]:
            with pytest.raises(DomainError):
                product_weights(*bad)


def _exact_weights(nodes: np.ndarray, beta: float, singular_end: str) -> list:
    """Product weights over ``nodes`` at 50 digits, from the closed-form
    panel moments A and B of distance^(beta-1) and distance^beta: each
    panel adds (B - lo A) / h to its node farther from the singular point
    and (hi A - B) / h to its nearer node, lo and hi being their distances."""
    left = singular_end == "left"
    with mp.workdps(50):
        s = [mp.mpf(float(x)) for x in nodes]
        origin = s[0] if left else s[-1]
        d = [abs(x - origin) for x in s]
        b = mp.mpf(beta)
        pa, pb = [x**b for x in d], [x ** (b + 1) for x in d]
        w = [mp.mpf(0)] * len(s)
        for k in range(len(s) - 1):
            near, far = (k, k + 1) if left else (k + 1, k)
            A = (pa[far] - pa[near]) / b
            B = (pb[far] - pb[near]) / (b + 1)
            h = s[k + 1] - s[k]
            w[far] += (B - d[near] * A) / h
            w[near] += (d[far] * A - B) / h
        return w


class TestWeightsAgainstMpmath:
    """Rows N/8, N/2 and N of an r = 2 mesh with N = 1024, against 50-digit
    weights from the four-power panel moments. Rounding in a weight grows
    as eps (d/h)^2, so the first weights of the long rows carry most of
    it; a weighted sum of them must still sit at rounding level."""

    @pytest.mark.parametrize("singular_end", ["right", "left"])
    @pytest.mark.parametrize("beta", [0.3, 0.77, 0.95])
    def test_rows_match_high_precision_weights(self, beta, singular_end):
        mesh = graded_mesh(1024, 2.0, 1.0)
        for i in (128, 512, 1024):
            nodes = mesh.nodes[: i + 1]
            if singular_end == "right":
                w = product_weights(mesh, i, beta)
            else:  # the reference rule's end
                w = _moments(nodes, np.diff(nodes), beta, "left")
            exact = _exact_weights(nodes, beta, singular_end)
            with mp.workdps(50):
                got = [mp.mpf(float(x)) for x in w]
                phi = [1.5 + mp.sin(7 * mp.mpf(float(t))) for t in nodes]
                total = mp.fsum(x * p for x, p in zip(exact, phi))
                sum_err = abs(mp.fsum(x * p for x, p in zip(got, phi)) / total - 1)
                rel = [float(abs(x / e - 1)) for x, e in zip(got, exact)]
            assert float(sum_err) <= 1e-15, (i, float(sum_err))
            assert np.percentile(rel, 99) <= 1e-6, i


class TestConvolveWeaklySingular:
    def test_constant_phi_closed_form(self):
        # k * 1 at t is t^(1-alpha) / (1-alpha) for the pure power kernel
        alpha = 0.3
        k = classical_abel_kernel(alpha, 1.0)
        m = graded_mesh(32, 2.0, 1.0)
        ones = SampledFunction(mesh=m, values=np.ones(33))
        conv = convolve_weakly_singular(k, ones)
        exact = m.nodes[1:] ** (1.0 - alpha) / (1.0 - alpha)
        np.testing.assert_allclose(conv.values[1:], exact, rtol=1e-12)
        assert conv.values[0] == 0.0

    def test_linear_phi_closed_form(self):
        alpha = 0.5
        k = classical_abel_kernel(alpha, 1.0)
        m = graded_mesh(32, 2.0, 1.0)
        phi = SampledFunction(mesh=m, values=m.nodes)
        conv = convolve_weakly_singular(k, phi)
        # int (t-s)^{-1/2} s ds = t^{3/2} B(2, 1/2) = (4/3) t^{3/2}
        exact = 4.0 / 3.0 * m.nodes[1:] ** 1.5
        np.testing.assert_allclose(conv.values[1:], exact, rtol=1e-12)

    def test_smooth_phi_against_adaptive_oracle(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        alpha = 0.4
        k = classical_abel_kernel(alpha, 1.0)
        m = graded_mesh(256, 2.0, 1.0)
        phi = SampledFunction(mesh=m, values=np.cos(3.0 * m.nodes))
        conv = convolve_weakly_singular(k, phi)
        for i in (64, 128, 256):
            t = m.nodes[i]
            # quad applies the weight (s-0)^0 (t-s)^{-alpha} itself
            ref, _ = scipy_integrate.quad(
                lambda s: np.cos(3.0 * s), 0.0, t, weight="alg", wvar=(0.0, -alpha)
            )
            assert abs(conv.values[i] - ref) <= 2e-4 * max(1.0, abs(ref))

    def test_rejects_undefined_origin(self):
        k = classical_abel_kernel(0.5, 1.0)
        m = graded_mesh(8, 2.0, 1.0)
        vals = np.ones(9)
        vals[0] = np.nan
        with pytest.raises(DomainError):
            convolve_weakly_singular(k, SampledFunction(mesh=m, values=vals))

    def test_rejects_mesh_beyond_kernel_domain(self):
        k = classical_abel_kernel(0.5, 0.5)
        m = graded_mesh(8, 2.0, 1.0)
        with pytest.raises(DomainError):
            convolve_weakly_singular(k, SampledFunction(mesh=m, values=np.ones(9)))


class TestConvolvePair:
    def test_classical_identity(self):
        m = graded_mesh(64, 2.0, 1.0)
        for alpha in (0.25, 0.5, 0.75):
            pair = make_classical_abel_pair(alpha, 1.0)
            g = convolve_pair(pair.K, pair.k, m, M=128)
            assert np.nanmax(np.abs(g.values[1:] - 1.0)) <= 1e-4
            assert np.isnan(g.values[0])

    def test_mismatched_pair_gives_pi(self):
        kk = power_kernel(1.0, 0.5, 1.0)
        m = graded_mesh(32, 2.0, 1.0)
        g = convolve_pair(kk, kk, m, M=128)
        np.testing.assert_allclose(g.values[1:], math.pi, rtol=1e-3)

    def test_variable_pair_oracle_values(self, pair_a, pair_b):
        for pair, refs in ((pair_a, (G_A_025, G_A_05)), (pair_b, (G_B_025, G_B_05))):
            for t, ref in zip((0.25, 0.5), refs):
                got = convolve_pair_at(pair.K, pair.k, t, 512)
                assert abs(got - ref) <= 2e-6 * abs(ref), (pair, t)

    def test_argument_order_is_irrelevant(self, pair_a):
        a = convolve_pair_at(pair_a.K, pair_a.k, 0.37, 64)
        b = convolve_pair_at(pair_a.k, pair_a.K, 0.37, 64)
        assert a == b

    def test_deterministic(self, pair_a, mesh_512_half):
        g1 = convolve_pair(pair_a.K, pair_a.k, mesh_512_half)
        g2 = convolve_pair(pair_a.K, pair_a.k, mesh_512_half)
        np.testing.assert_array_equal(g1.values[1:], g2.values[1:])

    def test_error_shrinks_with_panel_count(self, pair_a):
        errs = [
            abs(convolve_pair_at(pair_a.K, pair_a.k, 0.5, M) - G_A_05)
            for M in (64, 128, 256)
        ]
        assert errs[1] <= errs[0] / 1.7
        assert errs[2] <= errs[1] / 1.7

    def test_grading_does_not_hurt_classical(self):
        pair = make_classical_abel_pair(0.5, 1.0)
        res = []
        for r in (1.0, 2.0):
            g = convolve_pair(pair.K, pair.k, graded_mesh(128, r, 1.0))
            res.append(np.nanmax(np.abs(g.values[1:] - 1.0)))
        assert res[1] <= res[0] * (1.0 + 1e-12)

    def test_validation(self):
        pair = make_classical_abel_pair(0.5, 1.0)
        m = graded_mesh(8, 2.0, 1.0)
        with pytest.raises(DomainError):
            convolve_pair(pair.K, pair.k, m, M=8)  # too few panels
        k_short = classical_abel_kernel(0.5, 0.5)
        with pytest.raises(DomainError):
            convolve_pair(pair.K, k_short, m)  # mismatched intervals
        with pytest.raises(DomainError):
            convolve_pair_at(pair.K, pair.k, 0.0, 64)
        with pytest.raises(DomainError):
            convolve_pair_at(pair.K, pair.k, 1.5, 64)
        # panel counts: non-integers, bools, odd M and M < 16 fail alike on
        # both entries
        for bad in (0, 8, 15, 17, 33, 2.5, 20.5, True, None):
            with pytest.raises(DomainError, match="panel count"):
                convolve_pair_at(pair.K, pair.k, 0.3, bad)
        for bad in (20.5, True, 15, 17, 33):
            with pytest.raises(DomainError, match="panel count"):
                convolve_pair(pair.K, pair.k, m, M=bad)

    def test_kernels_on_different_intervals_refused_by_both_entries(self):
        # t = 0.8 lies inside K's interval but past k's; both pure powers
        # fold into the weights, so no kernel evaluation can refuse it
        K, k = power_kernel(1.0, 0.5, 1.0), power_kernel(1.0, 0.5, 0.5)
        with pytest.raises(DomainError, match="different intervals"):
            convolve_pair_at(K, k, 0.8, 32)
        with pytest.raises(DomainError, match="different intervals"):
            convolve_pair(K, k, graded_mesh(8, 2.0, 0.5))
