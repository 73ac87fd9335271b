"""Sum-of-exponentials history sums against the dense product-integration
triangle.

A pure-power kernel on SOE_MIN_N or more panels is convolved by
:func:`quadrature._history_sums`: rows 1..LEAF_ROWS as the triangle's
first leaf, and each later row's last panel exactly and its history
[0, t_(i-1)] through a sum of exponentials of the kernel, stepped over
SOE_STREAMS row streams at once. The dense rows of ``_triangle_blocks``
under FAR_GAP = inf (equal to ``product_weights`` bit for bit) are the
oracle, and the same recurrence run as one stream, row by row, is the
reference for the streams; every other kernel and mesh size must still
take the triangle, far field and all, bit for bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sonine_kit import (
    KernelSpec,
    Mesh,
    RhsSpec,
    SampledFunction,
    classical_abel_kernel,
    classical_solution,
    convolve_pair,
    convolve_weakly_singular,
    graded_mesh,
    make_classical_abel_pair,
    power_kernel,
    product_weights,
    solve_first_kind,
)
from sonine_kit import quadrature
from sonine_kit.quadrature import (
    LEAF_ROWS,
    SOE_MIN_N,
    SOE_STREAMS,
    _history_sums,
    _soe,
    _triangle_blocks,
)

B = 0.5
COEF = 1.3
SIZES = (SOE_MIN_N, 2048, 8192)
GRADINGS = (1.0, 2.0, 4.0)
EXPONENTS = (0.01, 0.3, 0.5, 0.99)

#: the three phi of every comparison, as columns
PHIS = ("1", "t", "cos 7t + t")


def phi_columns(t):
    return np.column_stack([np.ones_like(t), t, np.cos(7.0 * t) + t])


def triangle(kernel, phi, mesh):
    """The triangle's (kernel * phi)(t_i), far sums and near blocks; phi
    may hold columns."""
    out = np.zeros((mesh.N + 1,) + phi.shape[1:])
    beta = 1.0 - kernel.local_exponent
    for i0, i1, j0, C, far in _triangle_blocks(mesh.nodes, beta, kernel.smooth, phi):
        out[i0:i1] = C @ phi[j0:i1]
        if far is not None:
            out[i0:i1] += far
    return out


def sampled_rows(N):
    """Rows checked above the crossover, where the full triangle costs
    seconds: the first sixteen, 128 evenly spaced and the last. A wrong
    recurrence state would carry into every later row."""
    return np.unique(np.concatenate([np.arange(1, 17), np.arange(N // 128, N, N // 128), [N]]))


@pytest.fixture(scope="module")
def oracle(dense_triangle):
    """Dense values per (N, r, exponent): every row of the triangle at the
    crossover, the rows of :func:`sampled_rows` (from ``product_weights``,
    equal to the triangle's rows bit for bit) above it. Tabulated once for
    the module."""
    table = {}
    for N in SIZES:
        for r in GRADINGS:
            mesh = graded_mesh(N, r, B)
            phi = phi_columns(mesh.nodes)
            for gamma in EXPONENTS:
                if N == SOE_MIN_N:
                    rows = np.arange(N + 1)
                    with dense_triangle():
                        want = triangle(power_kernel(COEF, gamma, B), phi, mesh)
                else:
                    rows = sampled_rows(N)
                    want = np.array(
                        [COEF * product_weights(mesh, int(i), 1.0 - gamma) @ phi[: i + 1] for i in rows]
                    )
                table[N, r, gamma] = rows, want
    return table


class TestHistorySums:
    @pytest.mark.parametrize("gamma", EXPONENTS)
    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", SIZES)
    def test_matches_dense_triangle(self, N, r, gamma, oracle):
        mesh = graded_mesh(N, r, B)
        kernel = power_kernel(COEF, gamma, B)
        rows, want = oracle[N, r, gamma]
        for j, name in enumerate(PHIS):
            phi = SampledFunction(mesh=mesh, values=phi_columns(mesh.nodes)[:, j].copy())
            got = convolve_weakly_singular(kernel, phi).values[rows]
            scale = np.max(np.abs(want[:, j]))
            assert np.max(np.abs(got - want[:, j])) <= 1e-12 * scale, name

    @pytest.mark.parametrize("gamma", [1e-6, 0.01, 0.3, 0.5, 0.99])
    @pytest.mark.parametrize("h_min", [1e-16, 3e-8, 1e-3])
    def test_soe_on_its_interval(self, gamma, h_min):
        lam, w = _soe(gamma, h_min, B)
        t = np.geomspace(h_min, B, 4001)
        approx = np.exp(-np.outer(t, lam)) @ w
        assert np.max(np.abs(approx * t**gamma - 1.0)) <= 1e-14
        assert np.all(np.diff(lam) > 0.0) and lam[0] > 0.0 and np.all(w > 0.0)
        # the tail below lambda B = 1e-7 is one term, whatever gamma is
        assert len(lam) <= 170

    @pytest.mark.parametrize("N", [4096, 8192])
    def test_classical_solve_matches_closed_form(self, N):
        # f(0) = 0 keeps u bounded, so the first-kind residual k * u takes
        # the fast path too
        pair = make_classical_abel_pair(0.4, B)
        coeffs = [0.0, 1.0, 2.0]
        mesh = graded_mesh(N, 2.0, B)
        report = solve_first_kind(pair, RhsSpec.from_polynomial(coeffs), mesh)
        late = mesh.nodes >= B / 10
        exact = classical_solution(0.4, coeffs, mesh.nodes[late])
        assert np.max(np.abs(report.u.values[late] / exact - 1.0)) <= 1e-12

    @pytest.mark.parametrize("gamma", EXPONENTS)
    def test_streams_do_not_drift_on_a_uniform_mesh(self, gamma, oracle):
        """phi = 1 on a uniform mesh, where every row decays by the same
        factor: the streams stay at rounding level of the dense triangle
        (4.6e-15 of the column maximum at most), while one stream of 8192
        rows drifts to 5.9e-14."""
        N = 8192
        mesh = graded_mesh(N, 1.0, B)
        rows, want = oracle[N, 1.0, gamma]
        got = COEF * _history_sums(mesh.nodes, 1.0 - gamma, np.ones(N + 1))[rows]
        assert np.max(np.abs(got - want[:, 0])) <= 1e-14 * np.max(np.abs(want[:, 0]))

    def test_memory_stays_flat(self):
        """No N x #exp array: the rows go in blocks of one scratch array.
        The bound counts the exponentials of the SOE the call builds, on
        the panels past the first leaf (76 at N = 8192, where h_1 would
        give 95)."""
        N = 8192
        mesh = graded_mesh(N, 2.0, B)
        phi = SampledFunction(mesh=mesh, values=np.cos(7.0 * mesh.nodes))
        kernel = power_kernel(COEF, 0.5, B)
        n_exp = len(_soe(0.5, np.diff(mesh.nodes)[LEAF_ROWS:].min(), B)[0])
        tracemalloc.start()
        try:
            convolve_weakly_singular(kernel, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * (N + 1) * n_exp


class TestFirstLeaf:
    """Rows 1..LEAF_ROWS are the triangle's first leaf, and the SOE covers
    the smallest lag that any later row's history sees, wherever the
    narrowest panel lies."""

    N = 1024

    def split_mesh(self):
        """An r = 2 mesh with a node split in two, 1e-9 apart, eight
        panels before the end: its narrowest panel lies far past the first
        leaf, and is far narrower than the panel that ends the leaf."""
        t = graded_mesh(self.N, 2.0, B).nodes
        k = self.N - 8
        return Mesh(nodes=np.insert(t, k + 1, t[k] + 1e-9))

    @pytest.fixture(scope="class")
    def dense(self, dense_triangle):
        """The dense triangle of each phi alone, as _history_sums sums it:
        a matrix product over the three columns at once rounds otherwise."""
        mesh = self.split_mesh()
        phi = phi_columns(mesh.nodes)
        with dense_triangle():
            return {
                gamma: np.column_stack(
                    [triangle(power_kernel(1.0, gamma, B), col.copy(), mesh) for col in phi.T]
                )
                for gamma in EXPONENTS
            }

    def test_mesh(self):
        h = np.diff(self.split_mesh().nodes)
        assert SOE_MIN_N <= self.N and LEAF_ROWS < SOE_MIN_N
        assert h.argmin() > LEAF_ROWS and h.min() < 1e-3 * h[LEAF_ROWS]

    @pytest.mark.parametrize("gamma", EXPONENTS)
    def test_matches_dense_triangle(self, gamma, dense):
        """Every row within 1e-12 of the column maximum, which an SOE
        built from the panel that ends the first leaf misses, and the
        first leaf's rows bit for bit."""
        mesh = self.split_mesh()
        phi = phi_columns(mesh.nodes)
        for j, name in enumerate(PHIS):
            got = _history_sums(mesh.nodes, 1.0 - gamma, phi[:, j].copy())
            want = dense[gamma][:, j]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
            np.testing.assert_array_equal(got[1 : LEAF_ROWS + 1], want[1 : LEAF_ROWS + 1])


def first_stream_only(t):
    """A phi that is 0 from the end of the first stream's panels on, so
    every later stream sees it only through the carried anchor states."""
    L = -(-(len(t) - 1) // SOE_STREAMS)
    return np.where(np.arange(len(t)) < L, np.cos(7.0 * t) + 1.0, 0.0)


class TestStreams:
    """The streamed recurrence against itself run as one stream, row by
    row. phi = 1 is left to the dense oracle above: on a uniform mesh the
    one stream drifts from the triangle by 5.9e-14 of the column maximum
    where the streams stay within 4.6e-15."""

    @pytest.mark.parametrize("r", GRADINGS)
    @pytest.mark.parametrize("N", [SOE_MIN_N, SOE_MIN_N + 1, 8192])
    def test_matches_one_stream(self, N, r, monkeypatch):
        """SOE_MIN_N + 1 rows leave the last stream short, and run it on
        past row N."""
        t = graded_mesh(N, r, B).nodes
        phis = {"t": t, "cos 7t + t": np.cos(7.0 * t) + t, "first stream": first_stream_only(t)}
        L = -(-N // SOE_STREAMS)
        last = slice((SOE_STREAMS - 1) * L + 1, N + 1)  # the last stream's rows
        for gamma in EXPONENTS:
            got = {name: _history_sums(t, 1.0 - gamma, phi) for name, phi in phis.items()}
            with monkeypatch.context() as m:
                m.setattr(quadrature, "SOE_STREAMS", 1)
                want = {name: _history_sums(t, 1.0 - gamma, phi) for name, phi in phis.items()}
            for name in phis:
                err = np.abs(got[name] - want[name])
                assert np.max(err) <= 1e-14 * np.max(np.abs(want[name])), (gamma, name)
            # the carry reaches the last stream, where phi has long been 0
            tail_got, tail_want = got["first stream"][last], want["first stream"][last]
            assert tail_want.min() > 0.0
            assert np.max(np.abs(tail_got - tail_want)) <= 1e-14 * tail_want.max()


def hand_built_power(coef, gamma):
    """coef t^(-gamma) built by hand: its bounded factor is a plain
    function, so it is not recognised as a pure power."""
    return KernelSpec(
        smooth_fn=lambda t: np.full_like(np.asarray(t, dtype=float), coef),
        smooth0=coef, local_exponent=gamma, b=B,
    )


class TestDensePathKept:
    def test_power_coef(self, pair_a):
        assert power_kernel(COEF, 0.3, B).power_coef == COEF
        assert classical_abel_kernel(0.3, B).power_coef == 1.0
        assert pair_a.K.power_coef == pair_a.K.smooth0
        assert pair_a.k.power_coef is None
        assert hand_built_power(COEF, 0.3).power_coef is None

    def test_below_crossover_is_the_triangle(self):
        mesh = graded_mesh(SOE_MIN_N - 1, 2.0, B)
        kernel = power_kernel(COEF, 0.3, B)
        phi = np.cos(7.0 * mesh.nodes) + mesh.nodes
        got = convolve_weakly_singular(kernel, SampledFunction(mesh=mesh, values=phi))
        np.testing.assert_array_equal(got.values, triangle(kernel, phi, mesh))

    @pytest.mark.parametrize("which", ["hand_built", "identity", "variable", "tabulated"])
    def test_other_kernels_take_the_triangle(self, which, pair_a):
        mesh = graded_mesh(SOE_MIN_N, 2.0, B)
        phi = np.cos(7.0 * mesh.nodes) + mesh.nodes
        if which == "hand_built":
            kernel = hand_built_power(COEF, 0.3)
        elif which == "identity":
            # a smooth part that is not constant
            kernel = KernelSpec(smooth_fn=lambda t: t, smooth0=0.0, local_exponent=0.5, b=1.0)
        elif which == "variable":
            kernel = pair_a.k
        elif which == "tabulated":
            vals = np.full(mesh.N + 1, np.nan)
            vals[1:] = mesh.nodes[1:] ** -0.3 * (1.0 + mesh.nodes[1:])
            kernel = KernelSpec.from_samples(SampledFunction(mesh=mesh, values=vals), 0.3)
        got = convolve_weakly_singular(kernel, SampledFunction(mesh=mesh, values=phi))
        np.testing.assert_array_equal(got.values, triangle(kernel, phi, mesh))


class TestPairFold:
    """Pure-power factors of K * k, and the power of every factor, fold
    into the reference weights."""

    def test_only_bounded_factors_are_evaluated(self, monkeypatch):
        k = classical_abel_kernel(0.3, B)
        mesh = graded_mesh(64, 2.0, B)
        vals = np.full(65, np.nan)
        vals[1:] = mesh.nodes[1:] ** -0.7 * (1.0 + mesh.nodes[1:])
        u_tab = KernelSpec.from_samples(SampledFunction(mesh=mesh, values=vals), 0.7)
        names = {id(k): "classical_abel", id(u_tab): "tabulated"}
        seen = []
        for name in ("eval", "smooth"):
            original = getattr(KernelSpec, name)

            def spy(self, t, _original=original, _name=name):
                seen.append((names.get(id(self)), _name))
                return _original(self, t)

            monkeypatch.setattr(KernelSpec, name, spy)
        quadrature._pair_convolution(u_tab, k, mesh.nodes[1:], 64)
        assert ("classical_abel", "smooth") not in seen
        assert ("tabulated", "smooth") in seen
        assert [call for call in seen if call[1] == "eval"] == []

    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_matches_unfolded_twins(self, which, pair_a):
        if which == "classical":
            pair = make_classical_abel_pair(0.3, B)
            K, k = pair.K, pair.k
        else:
            K, k = pair_a.K, pair_a.k

        def twin(kernel):
            if kernel.power_coef is None:
                return kernel
            return hand_built_power(kernel.power_coef, kernel.local_exponent)

        mesh = graded_mesh(512, 2.0, B)  # the mesh's panel count is 256
        got = convolve_pair(K, k, mesh).values[1:]
        want = convolve_pair(twin(K), twin(k), mesh).values[1:]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
