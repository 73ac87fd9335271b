"""The far field of the product-integration triangle against the dense
triangle.

``_triangle_blocks`` puts the rows in a binary tree of clusters over
leaves of LEAF_ROWS rows. Each cluster sums its own band of columns, from
its parent's far boundary to its own, exactly at FAR_POINTS of its rows
and interpolates it to the others; a leaf's near columns keep the dense
rule. The dense triangle, reached with FAR_GAP = inf, is the oracle: the
convolution of a smooth bounded factor agrees with it to rounding, and
the sweep, whose lag factor is the piecewise-linear interpolant of m, to
about 1e-9. On steep meshes the dense far weights are themselves rounding
noise (their relative error grows as eps (d/h)^2), and a sweep whose
F(t_0) is undefined puts the first panel's mass on them, so there both
are held to a system assembled with cancellation-free weights instead.
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
from sonine_kit.quadrature import (
    FAR_GAP,
    FAR_POINTS,
    LEAF_ROWS,
    _cluster_tree,
    _far_rows,
    _triangle_blocks,
)
from sonine_kit.sonine import _gate_inputs

SIZES = (1024, 2048)
GRADINGS = (1.0, 2.0, 4.0)
EPS = (0.0, 0.25, 0.9)
F0 = (0.0, 1e-6, 1.0)

#: (N, r) of every agreement test: SIZES at every grading, and 512 and
#: 8192 at r <= 2, where the dense far weights are not noise
CASES = [(N, r) for N in SIZES for r in GRADINGS]
CASES += [(N, r) for N in (512, 8192) for r in (1.0, 2.0)]

#: (eps, f0) of the sweeps at N = 8192, where each dense sweep takes a
#: second: every eps, with F(t_0) finite, folded small and folded large
EPS_F0_8192 = ((0.0, 0.0), (0.25, 1e-6), (0.9, 1.0))

#: largest |u - u_dense| / max |u_dense| of a sweep
SWEEP_RTOL = 1e-8

#: largest |k * phi - dense| / max |dense| of a convolution: a variable
#: kernel's bounded factor is smooth, a tabulated one piecewise linear
CONV_RTOL = 1e-13
TABULATED_RTOL = 1e-8


def dense_convolutions(kernel, mesh, columns):
    """(kernel * phi)(t_i) of the dense triangle for each column phi of
    ``columns``, from one pass over the blocks; called in the
    dense_triangle context, which has no far sums, the only reader of x."""
    out = np.zeros(columns.shape)
    beta = 1.0 - kernel.local_exponent
    x = columns[:, 0]
    for i0, i1, j0, C, far in _triangle_blocks(mesh.nodes, beta, kernel.smooth, x):
        assert j0 == 0 and far is None
        out[i0:i1] = C @ columns[:i1]
    return out


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
    @pytest.mark.parametrize("N, r", [case for case in CASES if case[0] < 8192])
    def test_agrees(self, N, r, eps, f0, sweep_inputs, dense_triangle):
        mesh, gprime, F = sweep_inputs(N, r, f0)
        u, res = sweep(gprime, F, mesh, eps)
        with dense_triangle():
            want, _ = sweep(gprime, F, mesh, eps)
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

    @pytest.mark.parametrize("eps, f0", EPS_F0_8192)
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_agrees_at_8192(self, r, eps, f0, sweep_inputs, dense_triangle):
        mesh, gprime, F = sweep_inputs(8192, r, f0)
        u, res = sweep(gprime, F, mesh, eps)
        with dense_triangle():
            want, _ = sweep(gprime, F, mesh, eps)
        scale = np.max(np.abs(want.values[1:]))
        assert np.max(np.abs(u.values[1:] - want.values[1:])) <= SWEEP_RTOL * scale
        assert res <= 1e-13

    def test_agrees_at_8192_with_the_gate_model(self, pair_a, dense_triangle):
        mesh = graded_mesh(8192, 2.0, pair_a.b)
        gate = _gate_inputs(pair_a, mesh)
        F = assemble_rhs(pair_a.K, RhsSpec.from_polynomial([1e-6, 1.0]), mesh)
        u, res = volterra._forward_sweep(gate.m, F, mesh, gate.eps)
        with dense_triangle():
            want, _ = volterra._forward_sweep(gate.m, F, mesh, gate.eps)
        scale = np.max(np.abs(want.values[1:]))
        assert np.max(np.abs(u.values[1:] - want.values[1:])) <= SWEEP_RTOL * scale
        assert res <= 1e-13


class TestConvolutionAgreesWithDense:
    @pytest.mark.parametrize("N, r", CASES)
    @pytest.mark.parametrize("profile", ["A", "B", "steep"])
    def test_variable_kernel(self, profile, N, r, dense_triangle):
        af = {"A": PROFILE_A, "B": PROFILE_B, "steep": affine_exponent(0.3, 0.6, 0.5)}[profile]
        kernel = make_variable_exponent_pair(af, 0.5).k
        mesh = graded_mesh(N, r, 0.5)
        columns = np.column_stack([1.0 + mesh.nodes, np.cos(7.0 * mesh.nodes) + mesh.nodes])
        with dense_triangle():
            want = dense_convolutions(kernel, mesh, columns)
        for values, dense_values in zip(columns.T, want.T):
            phi = SampledFunction(mesh=mesh, values=values.copy())
            got = convolve_weakly_singular(kernel, phi).values
            assert np.max(np.abs(got - dense_values)) <= CONV_RTOL * np.max(np.abs(dense_values))

    @pytest.mark.parametrize("N, r", CASES)
    def test_tabulated_kernel(self, N, r, dense_triangle):
        mesh = graded_mesh(N, r, 0.5)
        t = mesh.nodes
        vals = np.full(N + 1, np.nan)
        vals[1:] = t[1:] ** -0.3 * (1.0 + t[1:])
        kernel = KernelSpec.from_samples(SampledFunction(mesh=mesh, values=vals), 0.3)
        phi = SampledFunction(mesh=mesh, values=np.cos(7.0 * t) + t)
        got = convolve_weakly_singular(kernel, phi).values
        with dense_triangle():
            want = convolve_weakly_singular(kernel, phi).values
        assert np.max(np.abs(got - want)) <= TABULATED_RTOL * np.max(np.abs(want))


def leaf_bands(nodes):
    """Per leaf (s0, s1, jf): the leaf's rows, its far boundary, and the
    bands (jp, jc) of the clusters that hold it, in column order."""
    starts, jf, bands = _cluster_tree(nodes)
    out = []
    for s0, s1, j in zip(starts, starts[1:], jf):
        held = sorted(
            (jp, jc) for leaf in bands for c0, c1, jp, jc in leaf if c0 <= s0 and s1 <= c1
        )
        out.append((s0, s1, j, held))
    return out


class TestLayout:
    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", [30, 512, 2048, 2048 + 77, 8192])
    def test_blocks(self, N, r):
        """Each leaf is one block: leaves of LEAF_ROWS rows from row 1 on,
        the last with the remainder, each starting at its far boundary j0,
        and far sums come with every j0 > 0."""
        nodes = graded_mesh(N, r, 0.5).nodes
        leaves = leaf_bands(nodes)
        assert far_spans(nodes) == [(s0, s1, j, j > 0) for s0, s1, j, _ in leaves]
        assert [s0 for s0, *_ in leaves] == [1 + k * LEAF_ROWS for k in range(len(leaves))]
        assert leaves[-1][1] == N + 1
        assert LEAF_ROWS <= N + 1 - leaves[-1][0] < 2 * LEAF_ROWS or len(leaves) == 1
        # the first leaf is near t_0, and at these sizes the last is not
        assert leaves[0][2] == 0 and (leaves[-1][2] > 0 or N < 512)

    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", [512, 2048, 2048 + 77, 8192])
    def test_bands_tile_the_far_columns(self, N, r):
        """Each leaf's ancestor bands, itself included, tile [t_0, t_jf]
        once, and each cluster's boundary jc is the last node at least
        FAR_GAP of its spans left of its first row."""
        nodes = graded_mesh(N, r, 0.5).nodes
        for s0, s1, jf, held in leaf_bands(nodes):
            ends = [0] + [jc for _, jc in held]
            assert [jp for jp, _ in held] == ends[:-1] and ends[-1] == jf
        for leaf in _cluster_tree(nodes)[2]:
            for c0, c1, jp, jc in leaf:
                limit = nodes[c0] - FAR_GAP * (nodes[c1 - 1] - nodes[c0])
                assert 0 <= jp < jc and nodes[jc] <= limit < nodes[jc + 1]

    @pytest.mark.parametrize("beta", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("r", GRADINGS)
    def test_far_plus_near_telescopes(self, r, beta):
        """With x = 1 and a factor of 1, far plus near is the row's weight
        sum, t_i^beta / beta, to rounding."""
        nodes = graded_mesh(2048 + 77, r, 0.5).nodes
        ones = np.ones(len(nodes))
        row = np.zeros(len(nodes))
        for i0, i1, j0, C, far in _triangle_blocks(nodes, beta, np.ones_like, ones):
            row[i0:i1] = C.sum(axis=1) + (0.0 if far is None else far)
        want = nodes[1:] ** beta / beta
        np.testing.assert_allclose(row[1:], want, rtol=2e-14, atol=0.0)

    def test_points_lie_on_distinct_rows(self):
        """Every cluster that is interpolated, down to a remainder leaf of
        LEAF_ROWS rows, puts its FAR_POINTS points on distinct rows, its
        first and last among them, so no barycentric weight divides by 0."""
        for n in range(LEAF_ROWS, 64 * LEAF_ROWS):
            rows, others = _far_rows(n)
            assert len(rows) == FAR_POINTS and np.all(np.diff(rows) > 0), n
            assert rows[0] == 0 and rows[-1] == n - 1
            np.testing.assert_array_equal(np.sort(np.r_[rows, others]), np.arange(n))
        sizes = {
            c1 - c0
            for N in (512, 2048 + 77, 8192 + 64 + 5)
            for r in GRADINGS
            for leaf in _cluster_tree(graded_mesh(N, r, 0.5).nodes)[2]
            for c0, c1, *_ in leaf
        }
        assert min(sizes) >= LEAF_ROWS and any(n % LEAF_ROWS for n in sizes)

    @pytest.mark.parametrize("N, most", [(2048, 450_000), (8192, 2_300_000)])
    def test_entries_summed(self, N, most):
        """The entries the lag factor is evaluated at, near and far, on an
        r = 2 mesh: 397,920 at N = 2048 and 2,007,836 at 8192, against
        676,875 and 5,774,561 for the two-level layout and N^2 / 2 dense.
        A leaf's near entries past its diagonal, which are 0, are not
        evaluated."""
        nodes = graded_mesh(N, 2.0, 0.5).nodes
        seen = []

        def counting(lag):
            seen.append(lag.size)
            return np.ones_like(lag)

        for _ in _triangle_blocks(nodes, 0.5, counting, np.ones(N + 1)):
            pass
        assert sum(seen) <= most

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
                    mesh.nodes[i] - mesh.nodes[: i + 1], np.diff(mesh.nodes[: i + 1]), beta
                ) if beta == 1.0 else product_weights(mesh, i, beta)
                full = w * pair_a.k.smooth(mesh.nodes[i] - mesh.nodes[: i + 1])
                np.testing.assert_array_equal(C[i - i0, 1 : i + 1 - j0], full[j0 + 1 :])
                assert row[i - i0] == pytest.approx(full @ x[: i + 1], rel=1e-13, abs=0.0)
        assert seen == 4


class TestChecksInTheFarField:
    def test_ill_conditioned_step_in_a_far_leaf_names_its_node(self):
        # trapezoid weights (eps = 0): the diagonal of row i is 1 + m(0)
        # h_i / 2, and m(0) cancels it at node 700, in a leaf with far
        # columns; m is 0 at every node past t_0, so no far sum moves
        mesh = graded_mesh(1024, 2.0, 1.0)
        k = 700
        assert any(i0 <= k < i1 and has_far for i0, i1, _, has_far in far_spans(mesh.nodes))
        gp = np.zeros(1025)
        gp[0] = -2.0 / (mesh.nodes[k] - mesh.nodes[k - 1])
        F = SampledFunction(mesh=mesh, values=np.ones(1025))
        with pytest.raises(IllConditionedSystemError, match=f"at node {k}:"):
            volterra._forward_sweep(SampledFunction(mesh=mesh, values=gp), F, mesh, 0.0)

    def test_row_residual_catches_a_wrong_block_solve(self, monkeypatch, pair_a):
        """A block solve off by 1e-6 in one entry, in a leaf past N / 2
        with far columns, must show in the row residual at N = 2048."""
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
