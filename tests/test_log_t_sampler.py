"""g and g' on the mesh from a Chebyshev interpolant in ln t.

``quadrature._in_log_t`` runs the split-at-t/2 rule at LOG_T_POINTS
Chebyshev-Lobatto points in s = ln t and interpolates to the mesh when the
interpolant's Chebyshev tail shows it resolved; otherwise it sums every
row. Either way the result must be what the direct rows give: to rounding
when the interpolant is kept, bit for bit when it is not.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import gprime_at
from sonine_kit import (
    ExponentFunction,
    affine_exponent,
    check_gsc,
    compute_g,
    graded_mesh,
    make_variable_exponent_pair,
)
from sonine_kit import sonine
from sonine_kit.quadrature import (
    LOG_T_POINTS,
    _barycentric,
    _default_panels,
    _in_log_t,
    _lobatto,
)

B = 0.5

#: (a0, a1) of alpha(t) = a0 + a1 t on (0, B]
PROFILES = [(0.5, 0.2), (0.3, 0.6), (0.9, 0.05), (0.05, 0.9)]


def _kinked_pair():
    """alpha(t) = 0.5 + 0.2 |t - 0.2|: g has a kink at t = 0.2."""
    af = ExponentFunction(
        fn=lambda t: 0.5 + 0.2 * np.abs(np.asarray(t, dtype=float) - 0.2),
        dfn=lambda t: 0.2 * np.sign(np.asarray(t, dtype=float) - 0.2),
    )
    return make_variable_exponent_pair(af, B)


def _g_and_tgprime(pair, mesh):
    """g and t g' at the interior nodes, as compute_g and check_gsc's
    gate get them, and whether each call of the sampler kept its
    interpolant (called its f once, at LOG_T_POINTS times)."""
    kept = []

    def watched(f, t):
        calls = []

        def counted(x):
            calls.append(len(x))
            return f(x)

        out = _in_log_t(counted, t)
        kept.append(calls == [LOG_T_POINTS])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sonine, "_in_log_t", watched)
        g, tgp = _rows(pair, mesh)
    return g, tgp, kept


def _rows(pair, mesh):
    t = mesh.nodes[1:]
    g = compute_g(pair, mesh)[0].values[1:]
    tgp = gprime_at(pair, t, _default_panels(mesh.N)) * t
    return g, tgp


def _direct(pair, mesh):
    """g and t g' from every row of the rule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sonine, "_in_log_t", lambda f, t: f(t))
        return _rows(pair, mesh)


class TestAgreesWithDirectRows:
    @pytest.mark.parametrize("N", [256, 4096, 8192])
    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("profile", PROFILES, ids=str)
    def test_kept_to_rounding_else_bitwise(self, profile, r, N):
        """Where the interpolant is kept, g is within 1e-13 relative of the
        direct rows and t g' within 1e-13 of its largest value; where the
        tail test refuses it, both are the direct rows bit for bit. On
        meshes graded up to r = 2 it is always kept."""
        pair = make_variable_exponent_pair(affine_exponent(*profile, B), B)
        mesh = graded_mesh(N, r, B)
        g, tgp, kept = _g_and_tgprime(pair, mesh)
        g_ref, tgp_ref = _direct(pair, mesh)
        if r <= 2.0:
            assert kept == [True, True]
        if kept[0]:
            assert np.max(np.abs(g - g_ref) / np.abs(g_ref)) <= 1e-13
        else:
            np.testing.assert_array_equal(g, g_ref)
        if kept[1]:
            assert np.max(np.abs(tgp - tgp_ref)) <= 1e-13 * np.max(np.abs(tgp_ref))
        else:
            np.testing.assert_array_equal(tgp, tgp_ref)

    @pytest.mark.parametrize(
        "pair, r",
        [(_kinked_pair(), 2.0), (make_variable_exponent_pair(affine_exponent(0.5, 0.2, B), B), 20.0)],
        ids=["kinked profile", "r=20"],
    )
    def test_unresolved_falls_back_to_direct_rows(self, pair, r):
        mesh = graded_mesh(4096, r, B)
        g, tgp, kept = _g_and_tgprime(pair, mesh)
        assert kept == [False, False]
        g_ref, tgp_ref = _direct(pair, mesh)
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_array_equal(tgp, tgp_ref)


class TestSampler:
    def test_short_meshes_are_summed_row_by_row(self):
        t = graded_mesh(4 * LOG_T_POINTS - 1, 2.0, B).nodes[1:]
        seen = []
        _in_log_t(lambda x: seen.append(x) or np.sin(x), t)
        assert len(seen) == 1 and seen[0] is t

    def test_end_points_are_the_mesh_ends(self):
        t = graded_mesh(4096, 2.0, B).nodes[1:]
        seen = []
        out = _in_log_t(lambda x: seen.append(x.copy()) or np.log(x) ** 2, t)
        assert seen[0][0] == t[0] and seen[0][-1] == t[-1]
        assert np.all(np.diff(seen[0]) > 0.0)
        # the mesh ends fall on the end points, and take their values
        assert out[0] == np.log(t[0]) ** 2 and out[-1] == np.log(t[-1]) ** 2

    def test_polynomial_in_ln_t_is_reproduced(self):
        """A cubic in ln t is its own interpolant, to rounding."""
        t = graded_mesh(4096, 2.0, B).nodes[1:]

        def f(x):
            s = np.log(x)
            return 1.0 + s * (0.5 - s * (0.25 - 0.01 * s))

        assert np.max(np.abs(_in_log_t(f, t) - f(t))) <= 1e-13 * np.max(np.abs(f(t)))

    def test_nan_at_a_sample_falls_back(self):
        t = graded_mesh(512, 2.0, B).nodes[1:]
        out = _in_log_t(lambda x: np.where(x > 0.1, np.nan, x), t)
        np.testing.assert_array_equal(out, np.where(t > 0.1, np.nan, t))



class TestBarycentric:
    """The one interpolator of the ln t sampler and the far field."""

    def test_points_take_their_values_and_columns_interpolate_apart(self):
        """A time on a point takes the point's value exactly; 2-D values
        interpolate column by column, as 1-D values would, to rounding of
        the values' size (a matrix product sums in another order than a
        matrix-vector product)."""
        x_k, bary = _lobatto(17)
        f = np.column_stack([np.exp(x_k), np.cos(3.0 * x_k)])
        x = np.r_[x_k[3], np.linspace(-0.99, 0.99, 9), x_k[-1]]
        out = _barycentric(x_k, bary, f, x)
        np.testing.assert_array_equal(out[[0, -1]], f[[3, -1]])
        for j in range(2):
            np.testing.assert_allclose(out[:, j], _barycentric(x_k, bary, f[:, j], x), atol=1e-15)
        np.testing.assert_allclose(out[1:-1, 0], np.exp(x[1:-1]), rtol=1e-13)

    def test_nan_value_stays_nan_off_the_points(self):
        x_k, bary = _lobatto(17)
        f = np.exp(x_k)
        f[5] = np.nan
        out = _barycentric(x_k, bary, f, np.r_[x_k[2], 0.1234])
        assert out[0] == f[2] and np.isnan(out[1])

def test_check_gsc_memory_stays_flat(pair_a):
    """No N x LOG_T_POINTS matrix: check_gsc at N = 8192 peaks below a
    quarter of one, 16 arrays of N floats."""
    N = 8192
    mesh = graded_mesh(N, 2.0, pair_a.b)
    check_gsc(pair_a, mesh)  # the reference rules are cached from here on
    tracemalloc.start()
    try:
        check_gsc(pair_a, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LOG_T_POINTS / 4 * 8 * (N + 1)
