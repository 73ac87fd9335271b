"""The far field of the product-integration triangle against the dense
triangle.

From FAR_MIN_N panels on, ``_triangle_blocks`` sums each super-block's far
columns exactly at FAR_POINTS of its rows and interpolates them to the
others; the near columns keep the dense rule. The dense triangle, reached
by raising FAR_MIN_N, is the oracle: the convolution of a smooth bounded
factor agrees with it to rounding, and the sweep, whose lag factor is the
piecewise-linear interpolant of m, to about 1e-9. On steep meshes the
dense far weights are themselves rounding noise (their relative error
grows as eps (d/h)^2), and a sweep whose F(t_0) is undefined puts the
first panel's mass on them, so there both are held to a system assembled
with cancellation-free weights instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PROFILE_A, PROFILE_B, sweep
from sonine_kit import (
    IllConditionedSystemError,
    KernelSpec,
    RhsSpec,
    SampledFunction,
    affine_exponent,
    assemble_rhs,
    convolve_weakly_singular,
    graded_mesh,
    make_variable_exponent_pair,
    product_weights,
)
from sonine_kit import quadrature, volterra
from sonine_kit.quadrature import FAR_GAP, FAR_MIN_N, FAR_ROWS, _triangle_blocks
from sonine_kit.sonine import _gate_inputs

SIZES = (1024, 2048)
GRADINGS = (1.0, 2.0, 4.0)
EPS = (0.0, 0.25, 0.9)
F0 = (0.0, 1e-6, 1.0)

#: largest |u - u_dense| / max |u_dense| of a sweep
SWEEP_RTOL = 1e-8

#: largest |k * phi - dense| / max |dense| of a convolution: a variable
#: kernel's bounded factor is smooth, a tabulated one piecewise linear
CONV_RTOL = 1e-13
TABULATED_RTOL = 1e-8


def dense(monkeypatch, fn):
    """fn() on the dense triangle at every N, as below FAR_MIN_N."""
    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "FAR_MIN_N", 10**9)
        return fn()


@pytest.fixture(scope="module")
def sweep_inputs(pair_a):
    """(mesh, g', F) for the paper pair with f = f0 + t, with g' sampled
    once per mesh and F once per f0."""
    meshes = {}

    def get(N, r, f0):
        if (N, r) not in meshes:
            mesh = graded_mesh(N, r, pair_a.b)
            meshes[N, r] = mesh, _gate_inputs(pair_a, mesh).gprime, {}
        mesh, gprime, data = meshes[N, r]
        if f0 not in data:
            data[f0] = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([f0, 1.0]), mesh)
        return mesh, gprime, data[f0]

    return get


def exact_weight_oracle(gprime, F, mesh, eps):
    """u of the sweep's system with every weight free of cancellation,
    assembled in full and solved by scipy's triangular solver.

    Phi's slope across panel k is formed as d^(beta+1) ((1 + h/d)^(beta+1)
    - 1) / (h beta (beta+1)) with d = d_(k+1) > 0, by expm1 and log1p, so
    it is exact to rounding; each weight is then a difference of two
    slopes, off by a few ulps of the slopes, not by eps (d/h)^2 of itself.
    The lag factor and the fold are the sweep's (see test_row_sums.py's
    sweep_oracle)."""
    solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
    nodes, N, beta = mesh.nodes, mesh.N, 1.0 - eps
    m = np.empty(N + 1)
    m[1:] = gprime.values[1:] * nodes[1:] ** eps
    m[0] = 0.0 if eps > 0.0 else m[1] - nodes[1] * (m[2] - m[1]) / (nodes[2] - nodes[1])
    A = np.eye(N + 1)
    for i in range(1, N + 1):
        d, h = nodes[i] - nodes[: i + 1], np.diff(nodes[: i + 1])
        D = np.empty(i)
        D[-1] = h[-1] ** beta / (beta * (beta + 1.0))
        dn, hn = d[1:-1], h[:-1]
        growth = np.expm1((beta + 1.0) * np.log1p(hn / dn))  # (d_k / d_(k+1))^(beta+1) - 1
        D[:-1] = dn ** (beta + 1.0) * growth / (hn * beta * (beta + 1.0))
        w = np.empty(i + 1)
        w[0] = d[0] ** beta / beta - D[0]
        w[1:-1] = D[:-1] - D[1:]
        w[-1] = D[-1]
        A[i, : i + 1] += w * np.interp(d, nodes, m)
    b = F.values.copy()
    if not np.isfinite(b[0]):
        A[1:, 1] += A[1:, 0]
        A[1:, 0] = 0.0
        b[0] = 0.0
    return solve_triangular(A, b, lower=True)


def far_spans(nodes):
    """(i0, i1, j0, far is not None) of every block of the triangle."""
    return [
        (i0, i1, j0, far is not None)
        for i0, i1, j0, _, far in _triangle_blocks(nodes, 0.5, np.ones_like, np.ones(len(nodes)))
    ]


class TestSweepAgreesWithDense:
    @pytest.mark.parametrize("f0", F0)
    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", SIZES)
    def test_agrees(self, N, r, eps, f0, sweep_inputs, monkeypatch):
        mesh, gprime, F = sweep_inputs(N, r, f0)
        u, res = sweep(gprime, F, mesh, eps)
        want, _ = dense(monkeypatch, lambda: sweep(gprime, F, mesh, eps))
        scale = np.max(np.abs(want.values[1:]))
        gap = np.max(np.abs(u.values[1:] - want.values[1:]))
        assert res <= 1e-13
        if r == 4.0 and f0 != 0.0:
            # the dense far weights are noise here: both paths against the
            # exact-weight system, the far field no farther than the dense
            exact = exact_weight_oracle(gprime, F, mesh, eps)[1:]
            far_err = np.max(np.abs(u.values[1:] - exact))
            dense_err = np.max(np.abs(want.values[1:] - exact))
            assert dense_err > SWEEP_RTOL * scale  # the case is noise-limited
            assert far_err <= 2.0 * dense_err
        else:
            assert gap <= SWEEP_RTOL * scale

    def test_agrees_at_8192(self, pair_a, monkeypatch):
        mesh = graded_mesh(8192, 2.0, pair_a.b)
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([1e-6, 1.0]), mesh)
        u, res = volterra._forward_sweep(gate.m, F, mesh, gate.eps)
        want, _ = dense(monkeypatch, lambda: volterra._forward_sweep(gate.m, F, mesh, gate.eps))
        scale = np.max(np.abs(want.values[1:]))
        assert np.max(np.abs(u.values[1:] - want.values[1:])) <= SWEEP_RTOL * scale
        assert res <= 1e-13


class TestConvolutionAgreesWithDense:
    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", SIZES)
    @pytest.mark.parametrize("profile", ["A", "B", "steep"])
    def test_variable_kernel(self, profile, N, r, monkeypatch):
        af = {"A": PROFILE_A, "B": PROFILE_B, "steep": affine_exponent(0.3, 0.6, 0.5)}[profile]
        kernel = make_variable_exponent_pair(af, 0.5).k
        mesh = graded_mesh(N, r, 0.5)
        for values in (1.0 + mesh.nodes, np.cos(7.0 * mesh.nodes) + mesh.nodes):
            phi = SampledFunction(mesh=mesh, values=values)
            got = convolve_weakly_singular(kernel, phi).values
            want = dense(monkeypatch, lambda: convolve_weakly_singular(kernel, phi).values)
            assert np.max(np.abs(got - want)) <= CONV_RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", SIZES)
    def test_tabulated_kernel(self, N, r, monkeypatch):
        mesh = graded_mesh(N, r, 0.5)
        t = mesh.nodes
        vals = np.full(N + 1, np.nan)
        vals[1:] = t[1:] ** -0.3 * (1.0 + t[1:])
        kernel = KernelSpec.from_samples(SampledFunction(mesh=mesh, values=vals), 0.3)
        phi = SampledFunction(mesh=mesh, values=np.cos(7.0 * t) + t)
        got = convolve_weakly_singular(kernel, phi).values
        want = dense(monkeypatch, lambda: convolve_weakly_singular(kernel, phi).values)
        assert np.max(np.abs(got - want)) <= TABULATED_RTOL * np.max(np.abs(want))


class TestCrossover:
    def test_one_panel_below_is_dense_bit_for_bit(self, pair_a, monkeypatch):
        mesh = graded_mesh(FAR_MIN_N - 1, 2.0, pair_a.b)
        assert not any(has_far for *_, has_far in far_spans(mesh.nodes))
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([1e-6, 1.0]), mesh)
        phi = SampledFunction(mesh=mesh, values=np.cos(7.0 * mesh.nodes) + mesh.nodes)

        def run():
            u, res = volterra._forward_sweep(gate.m, F, mesh, gate.eps)
            return u.values, res, convolve_weakly_singular(pair_a.k, phi).values

        got, want = run(), dense(monkeypatch, run)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_far_field_from_the_crossover_on(self):
        spans = far_spans(graded_mesh(FAR_MIN_N, 2.0, 0.5).nodes)
        assert any(has_far for *_, has_far in spans)


class TestLayout:
    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", [FAR_MIN_N, 2048, 2048 + 77])
    def test_super_blocks(self, N, r):
        """Blocks tile rows 1..N and never straddle a super-block; the last
        super-block takes the remainder. Within a super-block every block
        starts at the same column j0, the last node at least FAR_GAP spans
        left of it, and far sums come with every j0 > 0; the first
        super-block has none."""
        nodes = graded_mesh(N, r, 0.5).nodes
        spans = far_spans(nodes)
        assert spans[0][0] == 1 and spans[-1][1] == N + 1
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        count = N // FAR_ROWS
        starts = [1 + k * FAR_ROWS for k in range(count)]
        for k, s0 in enumerate(starts):
            s1 = N + 1 if k == count - 1 else s0 + FAR_ROWS
            mine = [sp for sp in spans if s0 <= sp[0] < s1]
            assert mine[0][0] == s0 and mine[-1][1] == s1
            j0 = {sp[2] for sp in mine}
            assert len(j0) == 1
            (j0,) = j0
            assert all(has_far == (j0 > 0) for *_, has_far in mine)
            a, b = nodes[s0], nodes[s1 - 1]
            limit = a - FAR_GAP * (b - a)
            assert j0 == 0 and limit < nodes[1] or nodes[j0] <= limit < nodes[j0 + 1]
        # at FAR_MIN_N and r = 4 even the last super-block is near t_0
        assert spans[0][2] == 0 and (spans[-1][2] > 0 or N == FAR_MIN_N)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 1.0])
    def test_near_rows_are_product_weights(self, beta, pair_a):
        """Past column j0 each row is product_weights' bit for bit, and far
        + C @ x is the dense row applied to x, to rounding."""
        mesh = graded_mesh(1024, 2.0, 0.5)
        x = np.cos(7.0 * mesh.nodes) + mesh.nodes
        seen = 0
        for i0, i1, j0, C, far in _triangle_blocks(mesh.nodes, beta, pair_a.k.smooth, x):
            if far is None or seen > 3:
                continue
            seen += 1
            row = far + C @ x[j0:i1]
            for i in range(i0, i1):
                w = quadrature._moments(
                    mesh.nodes[i] - mesh.nodes[: i + 1], np.diff(mesh.nodes[: i + 1]), beta, "right"
                ) if beta == 1.0 else product_weights(mesh, i, beta)
                full = w * pair_a.k.smooth(mesh.nodes[i] - mesh.nodes[: i + 1])
                np.testing.assert_array_equal(C[i - i0, 1 : i + 1 - j0], full[j0 + 1 :])
                assert row[i - i0] == pytest.approx(full @ x[: i + 1], rel=1e-13, abs=0.0)
        assert seen == 4


class TestChecksAboveTheCrossover:
    def test_ill_conditioned_step_in_a_far_super_block_names_its_node(self):
        # trapezoid weights (eps = 0): the diagonal of row i is 1 + m(0)
        # h_i / 2, and m(0) cancels it at node 700, in a super-block with
        # far columns; m is 0 at every node past t_0, so no far sum moves
        mesh = graded_mesh(1024, 2.0, 1.0)
        k = 700
        assert any(i0 <= k < i1 and has_far for i0, i1, _, has_far in far_spans(mesh.nodes))
        gp = np.zeros(1025)
        gp[0] = -2.0 / (mesh.nodes[k] - mesh.nodes[k - 1])
        F = SampledFunction(mesh=mesh, values=np.ones(1025))
        with pytest.raises(IllConditionedSystemError, match=f"at node {k}:"):
            volterra._forward_sweep(SampledFunction(mesh=mesh, values=gp), F, mesh, 0.0)

    def test_row_residual_catches_a_wrong_block_solve(self, monkeypatch, pair_a):
        """A block solve off by 1e-6 in one entry, in a super-block past
        N / 2 with far columns, must show in the row residual at N = 2048."""
        mesh = graded_mesh(2048, 2.0, pair_a.b)
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([1e-6, 1.0]), mesh)
        clean_u, clean_res = sweep(gate.gprime, F, mesh, 0.25)
        spans = far_spans(mesh.nodes)
        target = next(n for n, (i0, _, _, has_far) in enumerate(spans) if has_far and i0 > 1024)
        real_solve = np.linalg.solve
        calls = []

        def off_in_target(A, b):
            x = real_solve(A, b)
            if len(calls) == target:
                x[3] += 1e-6
            calls.append(len(b))
            return x

        monkeypatch.setattr(volterra.np.linalg, "solve", off_in_target)
        u, res = sweep(gate.gprime, F, mesh, 0.25)
        assert len(calls) == len(spans)
        first = spans[target][0]
        np.testing.assert_array_equal(u.values[1:first], clean_u.values[1:first])
        assert clean_res <= 1e-13 < 1e-10 < res
