"""Blocked row sums against per-node math.fsum oracles.

The O(N M) product-integration sums are evaluated in row blocks with one
matrix-vector product per half, and the O(N^2) triangle (the singular
convolution and forward substitution) in row blocks of the triangle. The
oracles below evaluate the same quadrature one time at a time with an
exactly rounded sum, so any difference is rounding order only.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import PROFILE_A, PROFILE_B
from sonine_kit import (
    DomainError,
    IllConditionedSystemError,
    KernelSpec,
    RhsSpec,
    SampledFunction,
    assemble_rhs,
    check_gsc,
    classical_abel_kernel,
    compute_g_substituted,
    convolve_pair,
    convolve_pair_at,
    convolve_weakly_singular,
    default_grading,
    graded_mesh,
    kappa,
    make_classical_abel_pair,
    product_weights,
    solve_first_kind,
    solve_second_kind,
    stability_report,
)
from sonine_kit import quadrature, volterra
from sonine_kit.quadrature import BLOCK_ENTRIES, _reference_rule, _triangle_blocks
from sonine_kit.sonine import _gate_inputs, _gprime_flat

RTOL = 1e-13


def pair_oracle(K, k, t, M):
    """(K * k)(t) split at t/2, each half summed with math.fsum."""
    r_ref = default_grading(K.local_exponent, k.local_exponent)
    vL, wL = _reference_rule(k.local_exponent, M, r_ref)
    vR, wR = _reference_rule(K.local_exponent, M, r_ref)
    c = 0.5 * t
    sL = c * vL
    sR = c * vR
    left = c ** (1.0 - k.local_exponent) * math.fsum(wL * k.smooth(sL) * K.eval(t - sL))
    right = c ** (1.0 - K.local_exponent) * math.fsum(wR * K.smooth(sR) * k.eval(t - sR))
    return left + right


def substituted_oracle(af, t, M, derivative):
    """g(t) (or g'(t)) of the substituted route for the profile af, each
    half summed with math.fsum."""
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
    value = (left + right) / kappa(a0)
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
        for pair, af in ((pair_a, PROFILE_A), (pair_b, PROFILE_B)):
            got = compute_g_substituted(pair, ts, M=M)
            want = [substituted_oracle(af, float(t), M, False) for t in ts]
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)

    def test_gprime_matches_fsum_oracle(self, pair_a, pair_b):
        M = 128
        mesh = graded_mesh(2 * rows_per_block(M) + 5, 2.0, 0.5)
        for pair, af in ((pair_a, PROFILE_A), (pair_b, PROFILE_B)):
            got = _gprime_flat(pair, mesh.nodes[1:], M)
            want = [substituted_oracle(af, float(t), M, True) for t in mesh.nodes[1:]]
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)

    def test_one_row_per_block_above_budget(self, pair_a):
        M = BLOCK_ENTRIES
        mesh = graded_mesh(3, 2.0, 0.5)
        got_g = compute_g_substituted(pair_a, mesh.nodes[1:], M=M)
        got_gp = _gprime_flat(pair_a, mesh.nodes[1:], M)
        for t, g, gp in zip(mesh.nodes[1:], got_g, got_gp):
            assert g == pytest.approx(substituted_oracle(PROFILE_A, t, M, False), rel=RTOL, abs=0.0)
            assert gp == pytest.approx(substituted_oracle(PROFILE_A, t, M, True), rel=RTOL, abs=0.0)

    def test_multidimensional_times_keep_their_shape(self, pair_a):
        ts = np.array([[0.05, 0.1], [0.25, 0.5]])
        got = compute_g_substituted(pair_a, ts, M=64)
        assert got.shape == (2, 2)
        want = [[compute_g_substituted(pair_a, float(t), M=64) for t in row] for row in ts]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


#: a block budget small enough that an 80-panel mesh has multi-row blocks
#: split mid-mesh (rows 1-7, 8-11, 12-15, ...) and, with the row floor
#: lowered to 1, one-row blocks from node 63
SMALL_BLOCK = 64


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(quadrature, "BLOCK_ENTRIES", SMALL_BLOCK)
    monkeypatch.setattr(quadrature, "TRIANGLE_MIN_ROWS", 1)


def triangle_oracle(kernel, phi, mesh):
    """(kernel * phi)(t_i) from per-node product weights and math.fsum."""
    beta = 1.0 - kernel.local_exponent
    out = [0.0]
    for i in range(1, mesh.N + 1):
        w = product_weights(mesh, i, beta)
        lags = mesh.nodes[i] - mesh.nodes[: i + 1]
        out.append(math.fsum(w * kernel.smooth(lags) * phi.values[: i + 1]))
    return np.array(out)


class TestTriangleBlocks:
    def test_block_layout(self, small_blocks):
        nodes = graded_mesh(80, 2.0, 0.5).nodes
        spans = [(i0, i1) for i0, i1, _ in _triangle_blocks(nodes, 0.5, np.ones_like)]
        assert spans[0] == (1, 8) and spans[-1] == (80, 81)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all((i1 - i0) * i1 <= SMALL_BLOCK or i1 - i0 == 1 for i0, i1 in spans)
        assert any(i1 - i0 == 1 for i0, i1 in spans) and any(i1 - i0 > 2 for i0, i1 in spans)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.8])
    def test_rows_are_product_weights_bit_for_bit(self, beta, small_blocks):
        mesh = graded_mesh(80, 2.0, 0.5)
        for i0, i1, C in _triangle_blocks(mesh.nodes, beta, np.ones_like):
            for i in range(i0, i1):
                np.testing.assert_array_equal(C[i - i0, : i + 1], product_weights(mesh, i, beta))
                assert not np.any(C[i - i0, i + 1 :])  # exactly 0 past the diagonal

    @pytest.mark.parametrize("kind", ["classical", "variable", "tabulated"])
    def test_convolve_matches_fsum_oracle(self, kind, small_blocks, pair_a):
        if kind == "classical":
            kernel = classical_abel_kernel(0.3, 0.5)
        elif kind == "variable":
            kernel = pair_a.k
        else:
            kernel = tabulated_pair()[0]
        mesh = graded_mesh(80, 2.0, 0.5)
        phi = SampledFunction(mesh=mesh, values=1.0 + mesh.nodes)
        got = convolve_weakly_singular(kernel, phi).values
        np.testing.assert_allclose(got, triangle_oracle(kernel, phi, mesh), rtol=RTOL, atol=0.0)

    def test_default_layout_has_a_row_floor(self, monkeypatch):
        """Blocks tile rows 1..N. Once the budget would give fewer rows
        than TRIANGLE_MIN_ROWS (from node 501 on), every block but the
        last has exactly that many; meshes up to N = 512 keep the layout
        of one-row floors."""
        floor = quadrature.TRIANGLE_MIN_ROWS

        def spans(N):
            nodes = graded_mesh(N, 2.0, 0.5).nodes
            return [(i0, i1) for i0, i1, _ in _triangle_blocks(nodes, 0.5, np.ones_like)]

        layouts = {N: spans(N) for N in (512, 2048, 8192)}
        for N, n_blocks in ((512, 18), (2048, 114), (8192, 498)):
            got = layouts[N]
            assert got[0][0] == 1 and got[-1][1] == N + 1
            assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
            assert all(i1 - i0 >= floor for i0, i1 in got[:-1])
            assert len(got) == n_blocks
            within = [(i0, i1) for i0, i1 in got if (i1 - i0) * i1 <= BLOCK_ENTRIES]
            assert within == got[: len(within)] and within[-1][1] <= 501 + floor
            assert all(i1 - i0 == floor for i0, i1 in got[len(within) : -1])
        monkeypatch.setattr(quadrature, "TRIANGLE_MIN_ROWS", 1)
        assert spans(512) == layouts[512]
        assert len(spans(2048)) == 280 and len(spans(8192)) == 5287

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("budget", ["default", "tiny"])
    def test_floored_rows_are_product_weights_bit_for_bit(self, beta, budget, monkeypatch):
        """Under the floor, past node 501 by default and everywhere under a
        budget of 64 entries, the rows are still product_weights'."""
        if budget == "tiny":
            monkeypatch.setattr(quadrature, "BLOCK_ENTRIES", SMALL_BLOCK)
            mesh = graded_mesh(80, 2.0, 0.5)
        else:
            mesh = graded_mesh(600, 2.0, 0.5)
        spans = []
        for i0, i1, C in _triangle_blocks(mesh.nodes, beta, np.ones_like):
            spans.append((i0, i1))
            for i in range(i0, i1):
                np.testing.assert_array_equal(C[i - i0, : i + 1], product_weights(mesh, i, beta))
                assert not np.any(C[i - i0, i + 1 :])
        assert spans[-2][1] - spans[-2][0] == quadrature.TRIANGLE_MIN_ROWS

    def test_memory_is_linear_in_the_floor_and_N(self):
        """The triangle's scratch and a block's temporaries are a few
        blocks of TRIANGLE_MIN_ROWS rows of N + 1 floats, not N^2: one
        convolution of a tabulated kernel at N = 8192 peaks at 5.5 MB
        traced, about 5.3 such blocks."""
        N = 8192
        mesh = graded_mesh(N, 2.0, 0.5)
        phi = SampledFunction(mesh=mesh, values=np.cos(7.0 * mesh.nodes))
        kernel = tabulated_pair()[0]
        tracemalloc.start()
        try:
            convolve_weakly_singular(kernel, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * quadrature.TRIANGLE_MIN_ROWS * (N + 1) * 8

    def test_zero_phi_convolves_to_zero(self, pair_a):
        mesh = graded_mesh(64, 2.0, 0.5)
        phi = SampledFunction(mesh=mesh, values=np.zeros(65))
        np.testing.assert_array_equal(convolve_weakly_singular(pair_a.k, phi).values, 0.0)


class TestBlockedForwardSubstitution:
    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [1.0, 0.5]], ids=["f0=0", "f0=1"])
    def test_classical_solution_is_F_bitwise(self, coeffs):
        pair = make_classical_abel_pair(0.4, 0.5)
        report = solve_first_kind(pair, RhsSpec.from_polynomial(coeffs), graded_mesh(128, 2.0, 0.5))
        np.testing.assert_array_equal(report.u.values, report.F.values)  # NaN at t_0 for f0 = 1
        assert report.residual_second_kind == 0.0

    def test_ill_conditioned_diagonal_mid_block_names_its_node(self, small_blocks):
        # trapezoid weights (eps = 0): the diagonal of row i is 1 + m(0) h_i / 2
        # with h_i = t_i - t_(i-1), which grows with i on a graded mesh; m(0)
        # cancels it at node 9, the second row of the block of rows 8-11
        mesh = graded_mesh(40, 2.0, 1.0)
        k = 9
        gp = np.zeros(41)
        gp[0] = -2.0 / (mesh.nodes[k] - mesh.nodes[k - 1])
        F = SampledFunction(mesh=mesh, values=np.ones(41))
        with pytest.raises(IllConditionedSystemError, match=f"at node {k}:"):
            solve_second_kind(SampledFunction(mesh=mesh, values=gp), F, mesh)

    @pytest.mark.parametrize("f_at_0", [1.0, np.nan], ids=["finite", "undefined"])
    def test_ill_conditioned_diagonal_past_the_first_block_names_its_node(self, f_at_0):
        # default blocks: rows 1-90, then 91-145; m(0) cancels the trapezoid
        # diagonal 1 + m(0) h_i / 2 at node 120, in the second block, whether
        # or not the sweep folds the first panel onto node 1
        mesh = graded_mesh(256, 2.0, 1.0)
        spans = [(i0, i1) for i0, i1, _ in _triangle_blocks(mesh.nodes, 1.0, np.ones_like)]
        assert spans[:2] == [(1, 91), (91, 146)]
        k = 120
        gp = np.zeros(257)
        gp[0] = -2.0 / (mesh.nodes[k] - mesh.nodes[k - 1])
        F = SampledFunction(mesh=mesh, values=np.r_[f_at_0, np.ones(256)])
        with pytest.raises(IllConditionedSystemError, match=f"at node {k}:"):
            volterra._forward_sweep(SampledFunction(mesh=mesh, values=gp), F, mesh, 0.0)

    @pytest.mark.parametrize("f0", [0.0, 1e-6], ids=["finite", "folded"])
    def test_sweep_agrees_across_floors(self, f0, monkeypatch, pair_a):
        """The floor moves only the split between a block's history product
        and its own solve: at N = 1024 (floored from node 501 on) the u of
        a sweep, with F(t_0) finite or folded, agrees with one-row blocks
        to 1e-14 relative."""
        mesh = graded_mesh(1024, 2.0, pair_a.b)
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([f0, 1.0]), mesh)
        u, res = volterra._forward_sweep(gate.gprime, F, mesh, 0.0)
        monkeypatch.setattr(quadrature, "TRIANGLE_MIN_ROWS", 1)
        u1, res1 = volterra._forward_sweep(gate.gprime, F, mesh, 0.0)
        np.testing.assert_allclose(u.values[1:], u1.values[1:], rtol=1e-14, atol=0.0)
        assert res <= 1e-13 and res1 <= 1e-13

    def test_row_residual_catches_a_wrong_block_solve(self, monkeypatch, pair_a):
        """A block's residual is T u_b minus its right-hand side, after the
        history product: a solve that is off by 1e-6 in one entry of the
        second block must still show."""
        mesh = graded_mesh(256, 2.0, pair_a.b)
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([1e-6, 1.0]), mesh)
        clean_u, clean_res = volterra._forward_sweep(gate.gprime, F, mesh, 0.25)
        real_solve = np.linalg.solve
        calls = []

        def off_in_block_2(A, b):
            x = real_solve(A, b)
            calls.append(len(b))
            if len(calls) == 2:
                x[3] += 1e-6
            return x

        monkeypatch.setattr(volterra.np.linalg, "solve", off_in_block_2)
        u, res = volterra._forward_sweep(gate.gprime, F, mesh, 0.25)
        assert len(calls) > 2 and calls[1] > 3
        first = 1 + calls[0]  # nodes up to the end of the first block
        np.testing.assert_array_equal(u.values[1:first], clean_u.values[1:first])
        assert clean_res <= 1e-13 < 1e-10 < res

    def test_unfolded_first_step_is_checked_only_when_F_t0_is_finite(self):
        # m(0) = -2/t_1 cancels row 1's own step, 1 + w_11 m(0) = 0, while
        # m(t_1) = 2/t_1 puts the first panel's mass w_10 m(t_1) = 1 on it
        # when the sweep folds: only a finite F(t_0) fails
        mesh = graded_mesh(64, 2.0, 1.0)
        gp = np.zeros(65)
        gp[0], gp[1] = -2.0 / mesh.nodes[1], 2.0 / mesh.nodes[1]
        gprime = SampledFunction(mesh=mesh, values=gp)
        finite, undefined = (
            SampledFunction(mesh=mesh, values=np.r_[v, np.ones(64)]) for v in (1.0, np.nan)
        )
        u, res = volterra._forward_sweep(gprime, undefined, mesh, 0.0)
        assert np.all(np.isfinite(u.values[1:])) and res <= 1e-13
        with pytest.raises(IllConditionedSystemError, match="at node 1:"):
            volterra._forward_sweep(gprime, finite, mesh, 0.0)

    def test_ill_conditioned_folded_first_step_names_node_1(self):
        # m = -2/t_1 at t_1 and 0 at every other node: row 1 reads
        # 1 + w_1 m(0) = 1 for u_1, but folding the first panel's mass
        # w_0 m(t_1) = -1 onto node 1 makes its step 0; every other
        # diagonal is 1
        mesh = graded_mesh(64, 2.0, 1.0)
        gp = np.zeros(65)
        gp[1] = -2.0 / mesh.nodes[1]
        gprime = SampledFunction(mesh=mesh, values=gp)
        finite, undefined = (
            SampledFunction(mesh=mesh, values=np.r_[v, np.ones(64)]) for v in (1.0, np.nan)
        )
        u, res = volterra._forward_sweep(gprime, finite, mesh, 0.0)
        assert np.all(np.isfinite(u.values)) and res <= 1e-15
        with pytest.raises(IllConditionedSystemError, match="at node 1:"):
            volterra._forward_sweep(gprime, undefined, mesh, 0.0)


def sweep_oracle(gprime, F, mesh, eps):
    """u of the second-kind system u + g' * u = F assembled in full, an
    (N + 1)^2 lower-triangular matrix, and solved by scipy's triangular
    solver.

    Row i >= 1 reads u_i + sum_j w_ij m(t_i - t_j) u_j = F_i, where w_i are
    the product weights of tau^(-eps) and m(tau) = g'(tau) tau^eps is
    interpolated linearly at the lags, 0 at 0 for eps > 0 and continued
    linearly from the first panel for eps = 0. For eps = 0, which
    product_weights refuses, w_i are its formula at beta = 1, the
    trapezoid rule with the same rounding: the far weight w_i0 loses
    digits to cancellation, and a folded sweep puts it on u(t_1), its
    largest value, so exact weights (h_j + h_(j+1)) / 2 would move a
    folded u by 2.9e-11 relative at N = 600. When F(t_0) is
    undefined, column 0 is folded onto column 1 and u_0 is left out (row 0
    reads u_0 = 0).
    """
    solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
    nodes, N = mesh.nodes, mesh.N
    m = np.empty(N + 1)
    m[1:] = gprime.values[1:] * nodes[1:] ** eps
    m[0] = 0.0 if eps > 0.0 else m[1] - nodes[1] * (m[2] - m[1]) / (nodes[2] - nodes[1])
    A = np.eye(N + 1)
    for i in range(1, N + 1):
        if eps > 0.0:
            w = product_weights(mesh, i, 1.0 - eps)
        else:
            w = quadrature._moments(nodes[i] - nodes[: i + 1], np.diff(nodes[: i + 1]), 1.0, "right")
        A[i, : i + 1] += w * np.interp(nodes[i] - nodes[: i + 1], nodes, m)
    b = F.values.copy()
    if not np.isfinite(b[0]):
        A[1:, 1] += A[1:, 0]
        A[1:, 0] = 0.0
        b[0] = 0.0
    return solve_triangular(A, b, lower=True)


class TestSweepOracle:
    """The blocked sweep against the whole system solved in one piece: on
    80 panels under a 64-entry budget (blocks of one to seven rows), and
    on 600 panels, where the row floor binds from row 501 on. F(t_0) is
    finite for f(0) = 0 and folded otherwise."""

    @pytest.mark.parametrize("N", [80, 600])
    @pytest.mark.parametrize("eps", [0.0, 0.25])
    @pytest.mark.parametrize("f0", [0.0, 1e-6, 1.0])
    def test_matches_the_assembled_system(self, f0, eps, N, request, pair_a):
        if N == 80:
            request.getfixturevalue("small_blocks")
        mesh = graded_mesh(N, 2.0, pair_a.b)
        gate = _gate_inputs(pair_a, mesh)
        assert not np.isfinite(gate.gprime.values[0])  # eps = 0 continues m to 0
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([f0, 1.0]), mesh)
        assert np.isfinite(F.values[0]) == (f0 == 0.0)
        u, res = volterra._forward_sweep(gate.gprime, F, mesh, eps)
        want = sweep_oracle(gate.gprime, F, mesh, eps)
        np.testing.assert_allclose(u.values[1:], want[1:], rtol=1e-13, atol=0.0)
        assert res <= 1e-13


def _counting_triangles(monkeypatch):
    """Count the _triangle_blocks generators opened, by the sweep or by a
    convolution."""
    opened = []
    real = quadrature._triangle_blocks

    def counting(*args):
        opened.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(quadrature, "_triangle_blocks", counting)
    monkeypatch.setattr(volterra, "_triangle_blocks", counting)
    return opened


class TestSharedSweep:
    """The stability probe's one sweep of delta K is the shift of two
    solves because the sweep is linear in F; its coefficient triangle is
    built only for a mesh that all of its inputs share, and the probe
    builds no other."""

    @pytest.mark.parametrize("blocks", ["small", "default"])
    @pytest.mark.parametrize("eps", [0.0, 0.25])
    @pytest.mark.parametrize("f0", [0.0, 1.0], ids=["finite", "folded"])
    def test_sweep_is_linear_in_F(self, f0, eps, blocks, request, pair_a):
        """Right-hand sides that agree on whether F(t_0) is defined share
        one discrete system, so the sweep of F + G is the sum of their
        sweeps to rounding, and it is solve_second_kind's u bit for bit."""
        if blocks == "small":
            request.getfixturevalue("small_blocks")
        mesh = graded_mesh(80, 2.0, 0.5)
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([f0, 1.0]), mesh)
        G = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([f0, 0.0, -3.0]), mesh)
        S = SampledFunction(mesh=mesh, values=F.values + G.values)
        assert np.isfinite(S.values[0]) == (f0 == 0.0)
        (uF, _), (uG, _) = (volterra._forward_sweep(gate.gprime, H, mesh, eps) for H in (F, G))
        uS, res = volterra._forward_sweep(gate.gprime, S, mesh, eps)
        scale = np.max(np.abs(uS.values[1:]))
        np.testing.assert_allclose(
            uS.values[1:], uF.values[1:] + uG.values[1:], rtol=0.0, atol=1e-14 * scale
        )
        np.testing.assert_array_equal(uS.values, solve_second_kind(gate.gprime, S, mesh, eps).values)
        assert res <= 1e-13

    def test_stability_builds_one_triangle(self, monkeypatch, classical_half, pair_a):
        """K * f' of polynomial data is a closed form for the pure-power K,
        so the only triangle is the sweep's: one for a variable pair, none
        for a classical pair (g' = 0)."""
        opened = _counting_triangles(monkeypatch)
        rhs = RhsSpec.from_polynomial([0.0, 1.0])
        stability_report(pair_a, rhs, 1e-6, graded_mesh(256, 2.0, pair_a.b))
        assert opened == [257]
        stability_report(classical_half, rhs, 1e-6, graded_mesh(256, 2.0, classical_half.b))
        assert opened == [257]

    @pytest.mark.parametrize("foreign", ["gprime", "F", "both"])
    def test_foreign_mesh_refused_before_any_block(self, foreign, monkeypatch):
        # "both": g' and F agree with each other but not with the solve mesh
        mesh, other = graded_mesh(64, 2.0, 0.5), graded_mesh(64, 3.0, 0.5)
        gprime = SampledFunction(mesh=other if foreign != "F" else mesh, values=np.ones(65))
        F = SampledFunction(mesh=other if foreign != "gprime" else mesh, values=np.ones(65))
        opened = _counting_triangles(monkeypatch)
        with pytest.raises(DomainError, match="solve mesh"):
            volterra._forward_sweep(gprime, F, mesh, 0.25)
        assert opened == []


class TestStabilityWithoutPushBack:
    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_matches_two_solve_reference(self, which, classical_half, pair_a):
        """The report against two solves, one of f and one of f + delta.
        u = F for a classical pair, so they agree to 1e-12 relative. For
        the variable pair f(0) = 1, so both solves fold the first panel
        onto node 1 and differ by the response to delta K alone: they
        agree to the rounding of their difference, a few ulps of max |u|
        and max |F| (for f(0) = 0 only the second folds; see
        test_volterra.py::TestStabilityReport)."""
        pair, f0 = (classical_half, 0.0) if which == "classical" else (pair_a, 1.0)
        mesh = graded_mesh(256, 2.0, pair.b)
        rhs, delta = RhsSpec.from_polynomial([f0, 1.0]), 1e-6
        gsc = check_gsc(pair, mesh)
        shifted = RhsSpec.from_polynomial([f0 + delta, 1.0])
        base = solve_first_kind(pair, rhs, mesh)
        moved = solve_first_kind(pair, shifted, mesh)
        max_shift = np.max(np.abs(moved.u.values[1:] - base.u.values[1:]))
        dF = np.max(np.abs(moved.F.values[1:] - base.F.values[1:]))
        bound = math.exp(gsc.gprime_l1) * dF
        ulps = 0.0 if which == "classical" else 4 * np.finfo(float).eps
        u_round = ulps * np.max(np.abs(moved.u.values[1:]))
        F_round = ulps * np.max(np.abs(moved.F.values[1:])) * math.exp(gsc.gprime_l1)
        got = stability_report(pair, rhs, delta, mesh)
        assert got.max_shift == pytest.approx(max_shift, rel=1e-12, abs=u_round)
        assert got.bound == pytest.approx(bound, rel=1e-12, abs=F_round)
        assert got.gprime_l1 == gsc.gprime_l1
        assert got.holds == bool(max_shift <= bound * (1.0 + 1e-12))
