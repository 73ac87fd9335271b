"""The g = K * k analysis: routes, extrapolation, derivative, verdict."""

from __future__ import annotations

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    G_A_025,
    G_A_05,
    GPRIME_A_025,
    geometric_times,
)
from sonine_kit import (
    DomainError,
    KernelSpec,
    SoninePair,
    affine_exponent,
    check_gsc,
    compute_g,
    compute_g_substituted,
    convolve_pair,
    convolve_pair_at,
    estimate_g0,
    estimate_gprime,
    graded_mesh,
    kappa,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    power_kernel,
)
from sonine_kit import quadrature, sonine
from sonine_kit.quadrature import _default_panels
from sonine_kit.sonine import G0_TOL_DEFAULT, _gprime_flat, _substituted_route


class TestComputeGSubstituted:
    def test_constant_profile_is_exactly_one(self):
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.0, 1.0), 1.0)
        for t in (0.03, 0.4, 1.0):
            assert abs(compute_g_substituted(pair, t, M=64) - 1.0) <= 1e-6

    def test_oracle_values(self, pair_a):
        assert abs(compute_g_substituted(pair_a, 0.5, M=256) - G_A_05) <= 1e-6
        assert abs(compute_g_substituted(pair_a, 0.25, M=256) - G_A_025) <= 1e-6

    def test_defect_shrinks_towards_origin(self, pair_a):
        ts = 0.5 * 0.5 ** np.arange(4, 13, dtype=float)
        defects = np.abs(compute_g_substituted(pair_a, ts, M=256) - 1.0)
        assert np.all(np.diff(defects) < 0.0)

    def test_requires_profile(self, classical_half):
        with pytest.raises(DomainError):
            compute_g_substituted(classical_half, 0.5)

    def test_validation(self, pair_a):
        for M in (8, 17, 33):  # too few panels, odd counts
            with pytest.raises(DomainError, match="panel count"):
                compute_g_substituted(pair_a, 0.5, M=M)
        with pytest.raises(DomainError):
            compute_g_substituted(pair_a, 0.0)
        with pytest.raises(DomainError):
            compute_g_substituted(pair_a, 0.7)  # beyond b = 0.5

    def test_route_agreement(self, pair_a, mesh_512_half):
        direct = convolve_pair(pair_a.K, pair_a.k, mesh_512_half, M=256)
        subst = compute_g_substituted(pair_a, mesh_512_half.nodes[1:], M=256)
        assert np.max(np.abs(direct.values[1:] - subst)) <= 5e-5


class TestOneRule:
    """g, the substituted g and g' are all sums of the one split-at-t/2 rule;
    the substituted g is its K * k minus the rule's error on the classical
    part, delta, which is what route_diff reports."""

    def test_route_diff_is_the_classical_defect(self):
        """Two slopes at alpha(0) = 0.4 read the same route_diff, the rule's
        error on K * t^(-0.4) = 1."""
        mesh = graded_mesh(4096, 2.0, 0.5)
        diffs = [
            compute_g(make_variable_exponent_pair(affine_exponent(0.4, a1, 0.5), 0.5), mesh)[1]
            for a1 in (0.05, 0.4)
        ]
        classical = make_classical_abel_pair(0.4, 0.5)
        delta = convolve_pair_at(classical.K, classical.k, 0.5, _default_panels(4096)) - 1.0
        assert diffs[0] == diffs[1]
        assert abs(diffs[0] - abs(delta)) <= 1e-15
        assert diffs[0] > 0.0

    @staticmethod
    def _count_rows(monkeypatch) -> list:
        rows = []
        real = quadrature._pair_convolution

        def counting(K, k, t, M):
            rows.append(len(t))
            return real(K, k, t, M)

        monkeypatch.setattr(quadrature, "_pair_convolution", counting)
        monkeypatch.setattr(sonine, "_pair_convolution", counting)
        return rows

    def test_compute_g_is_one_pass(self, monkeypatch, pair_a):
        """compute_g sums N rows for g and one for delta."""
        rows = self._count_rows(monkeypatch)
        mesh = graded_mesh(128, 2.0, pair_a.b)
        g, _ = compute_g(pair_a, mesh)
        assert sum(rows) == mesh.N + 1
        np.testing.assert_array_equal(g.values[1:], compute_g_substituted(pair_a, mesh.nodes[1:], M=64))

    def test_compute_g_on_a_long_mesh_samples_in_ln_t(self, monkeypatch, pair_a):
        """At N = 4096 the rule runs at the LOG_T_POINTS points of the
        interpolant in ln t, and once for delta."""
        rows = self._count_rows(monkeypatch)
        compute_g(pair_a, graded_mesh(4096, 2.0, pair_a.b))
        assert sum(rows) <= quadrature.LOG_T_POINTS + 2


class TestPanelCountPolicy:
    """The mesh alone fixes the rule's panel count for every pipeline
    function: _default_panels(N), as convolve_pair takes by default."""

    @pytest.mark.parametrize("N", [128, 1024], ids=["direct", "log-t"])
    def test_estimate_gprime_is_the_default_panels_rule(self, N, pair_a):
        """Bit for bit, with g' summed at every node (N = 128) and through
        the ln t interpolant (N = 1024)."""
        mesh = graded_mesh(N, 2.0, pair_a.b)
        got = estimate_gprime(pair_a, mesh).values
        np.testing.assert_array_equal(
            got[1:], _gprime_flat(pair_a, mesh.nodes[1:], _default_panels(N))
        )
        np.testing.assert_array_equal(got, check_gsc(pair_a, mesh).gprime.values)

    @pytest.mark.parametrize("route", ["classical", "substituted", "pointwise"])
    def test_check_gsc_g_is_compute_g(self, route, pair_a):
        pair = {
            "classical": make_classical_abel_pair(0.5, pair_a.b),
            "substituted": pair_a,
            "pointwise": SoninePair(k=replace(pair_a.k, smooth_log_deriv=None), K=pair_a.K),
        }[route]
        mesh = graded_mesh(128, 2.0, pair.b)
        np.testing.assert_array_equal(
            check_gsc(pair, mesh).g.values, compute_g(pair, mesh)[0].values
        )


class TestEstimateGprime:
    """Tests that vary the panel count call _gprime_flat, the rule that
    estimate_gprime runs at the mesh's count."""

    def test_oracle_value(self, pair_a):
        mesh = graded_mesh(2, 1.0, 0.5)  # nodes 0, 0.25, 0.5
        gp = _gprime_flat(pair_a, mesh.nodes[1:], 1024)
        assert abs(gp[0] - GPRIME_A_025) <= 1e-6 * GPRIME_A_025
        assert np.isnan(estimate_gprime(pair_a, mesh).values[0])

    def test_agrees_with_finite_difference(self, pair_a):
        mesh = graded_mesh(2, 1.0, 0.5)
        gp = _gprime_flat(pair_a, mesh.nodes[1:], 256)
        h = 1e-4
        fd = (
            compute_g_substituted(pair_a, 0.25 + h, M=256)
            - compute_g_substituted(pair_a, 0.25 - h, M=256)
        ) / (2.0 * h)
        assert abs(gp[0] - fd) <= 1e-5

    def test_constant_profile_derivative_vanishes(self):
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.0, 1.0), 1.0)
        gp = _gprime_flat(pair, graded_mesh(16, 2.0, 1.0).nodes[1:], 64)
        assert np.max(np.abs(gp)) <= 1e-8

    def test_fd_consistency_across_nodes(self, pair_a):
        """Analytic derivative vs central differences of g, away from 0."""
        mesh = graded_mesh(64, 1.0, 0.5)
        gp = np.full(mesh.N + 1, np.nan)
        gp[1:] = _gprime_flat(pair_a, mesh.nodes[1:], 256)
        nodes = mesh.nodes
        sel = np.arange(2, 63)
        sel = sel[nodes[sel] >= 0.05]  # t >= b/10
        g_plus = compute_g_substituted(pair_a, nodes[sel + 1], M=256)
        g_minus = compute_g_substituted(pair_a, nodes[sel - 1], M=256)
        fd = (g_plus - g_minus) / (nodes[sel + 1] - nodes[sel - 1])
        # the gap is the central-difference truncation h^2 g'''/6, largest
        # at the left edge of the window where g''' ~ 30
        assert np.max(np.abs(gp[sel] - fd)) <= 1e-3

    def test_requires_profile(self, classical_half):
        with pytest.raises(DomainError):
            estimate_gprime(classical_half, graded_mesh(8, 2.0, 1.0))

    def test_near_origin_growth_is_integrable(self, pair_a):
        """|g'| follows a power law milder than t^{-1/2} approaching 0."""
        ts = 0.5 * 0.5 ** np.arange(2, 13, dtype=float)
        mesh_vals = [
            _gprime_flat(pair_a, graded_mesh(2, 1.0, 2.0 * t).nodes[1:], 128)[0] for t in ts
        ]
        y = np.log(np.abs(mesh_vals))
        x = np.log(ts)
        slope = np.polyfit(x, y, 1)[0]
        assert -slope < 0.5


#: the tempered Abel kernel t^(-ALPHA) e^(-LAM t) on (0, B]
LAM, ALPHA, B = 2.0, 0.5, 0.5


def tempered_pair(smooth0: float = 1.0, log_deriv: bool = True) -> SoninePair:
    """k = smooth0 t^(-1/2) e^(-2t), with its t S'(t) = -2 smooth0 t e^(-2t)
    unless ``log_deriv`` is False, and K = t^(-1/2) / kappa(1/2)."""

    def smooth(t):
        return smooth0 * np.exp(-LAM * np.asarray(t, dtype=float))

    k = KernelSpec(
        smooth_fn=smooth,
        smooth0=smooth0,
        local_exponent=ALPHA,
        b=B,
        smooth_log_deriv=(lambda t: -LAM * t * smooth(t)) if log_deriv else None,
    )
    return SoninePair(k=k, K=power_kernel(1.0 / kappa(ALPHA), 1.0 - ALPHA, B))


class TestTemperedKernel:
    """k = t^(-sigma) S(t) with S(0) = 1 and a known t S'(t) takes the
    analytic route whatever S is. For S = e^(-lambda t), g = 1F1(1 - alpha;
    1; -lambda t) and g' = -lambda (1 - alpha) 1F1(2 - alpha; 2; -lambda t)."""

    def test_takes_the_analytic_route(self):
        pair = tempered_pair()
        assert not pair.is_classical
        assert _substituted_route(pair) == ALPHA
        _, route_diff = compute_g(pair, graded_mesh(512, 2.0, B))
        assert math.isfinite(route_diff)  # 9.2e-10

    def test_gprime_matches_the_hypergeometric_closed_form(self):
        """Largest relative error 9.2e-10, at the first of the four nodes."""
        mesh = graded_mesh(512, 2.0, B)
        gp = estimate_gprime(tempered_pair(), mesh).values
        for t in (B / 1000, B / 100, B / 2, B):
            i = int(np.argmin(np.abs(mesh.nodes - t)))
            with mp.workdps(30):
                exact = -LAM * (1 - ALPHA) * mp.hyp1f1(2 - ALPHA, 2, -LAM * mp.mpf(mesh.nodes[i]))
            assert abs(gp[i] / float(exact) - 1.0) <= 1e-7, (i, gp[i], exact)

    @pytest.mark.parametrize(
        "pair",
        [tempered_pair(log_deriv=False), tempered_pair(smooth0=2.0)],
        ids=["no log-derivative", "smooth0 = 2"],
    )
    def test_takes_the_pointwise_route(self, pair):
        """Without t S'(t) g' cannot be built; with S(0) = 2 the classical
        part is 2 t^(-1/2), which K does not convolve to 1."""
        assert _substituted_route(pair) is None
        _, route_diff = compute_g(pair, graded_mesh(64, 2.0, B))
        assert math.isnan(route_diff)
        with pytest.raises(DomainError, match="smooth_log_deriv"):
            compute_g_substituted(pair, B)


def _fd_gprime_loop(nodes, g):
    """The per-node differences that sonine._fd_gprime vectorises."""
    n = len(nodes)
    out = np.full(n, np.nan)
    for i in range(1, n):
        lo = i if i == 1 or not np.isfinite(g[i - 1]) else i - 1
        hi = i + 1 if i < n - 1 else i
        if hi > lo and np.isfinite(g[lo]) and np.isfinite(g[hi]):
            out[i] = (g[hi] - g[lo]) / (nodes[hi] - nodes[lo])
    return out


class TestFiniteDifferences:
    @pytest.mark.parametrize("N", [2, 3, 128])
    def test_matches_the_per_node_loop(self, N):
        """Forward at node 1, centred inside, backward at node N, bit for
        bit the loop's, on a g that is undefined at t_0."""
        nodes = graded_mesh(N, 2.0, 0.5).nodes
        g = np.full(N + 1, np.nan)
        g[1:] = 1.0 + nodes[1:] * np.log(nodes[1:])
        np.testing.assert_array_equal(sonine._fd_gprime(nodes, g), _fd_gprime_loop(nodes, g))


class TestEstimateG0:
    def test_recovers_constructed_limit(self):
        ts = [1e-2, 1e-3, 1e-4]
        samples = [(t, 1.0 + t * math.log(1.0 / t)) for t in ts]
        assert abs(estimate_g0(samples) - 1.0) <= 1e-3

    def test_constant_data_exact(self):
        assert estimate_g0([(1e-2, 1.0), (1e-3, 1.0), (1e-4, 1.0)]) == 1.0

    def test_profile_samples(self, pair_a):
        ts = geometric_times(0.5)
        gs = compute_g_substituted(pair_a, ts, M=256)
        assert abs(estimate_g0(zip(ts, gs)) - 1.0) <= 1e-3

    def test_fit_matches_start_point_asymptotics(self, pair_a):
        """g = 1 + c1 t ln t + O(t) near 0 with c1 = -alpha'(0) B(2 - alpha0,
        alpha0) / kappa(alpha0), -0.1 for alpha(t) = 0.5 + t/5; the fit's
        t |ln t| coefficient is -c1 (the t coefficient also absorbs t ln^2 t,
        so it is not pinned)."""
        a0, a1 = 0.5, 0.2
        c1 = -a1 * math.gamma(2.0 - a0) * math.gamma(a0) / kappa(a0)
        ts = geometric_times(0.5)
        g0, c_log, _ = sonine._fit_g0(zip(ts, compute_g_substituted(pair_a, ts, M=256)))
        assert abs(c_log + c1) <= 0.03 * abs(c1)  # fit 0.0987
        assert abs(g0 - 1.0) <= 5e-6  # 9.1e-7; 2.6e-4 without the t term

    def test_validation(self):
        with pytest.raises(DomainError):
            estimate_g0([(1e-2, 1.0), (1e-3, 1.0)])  # too few
        with pytest.raises(DomainError):
            estimate_g0([(1e-2, 1.0), (9.9e-3, 1.0), (9.8e-3, 1.0)])  # not geometric
        with pytest.raises(DomainError):
            estimate_g0([(1e-2, 1.0), (1e-3, float("nan")), (1e-4, 1.0)])
        with pytest.raises(DomainError):
            estimate_g0([(0.0, 1.0), (1e-3, 1.0), (1e-4, 1.0)])  # t must be positive


class TestCheckGsc:
    def test_classical_report(self, mesh_512_unit):
        report = check_gsc(make_classical_abel_pair(0.5, 1.0), mesh_512_unit)
        assert report.sc_residual <= 1e-4
        assert report.g0_defect <= 1e-6
        assert report.gprime_l1 <= 1e-3
        assert report.gsc_pass
        assert math.isnan(report.route_diff)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_classical_g_is_one_to_rounding(self, alpha):
        """For pure powers c_k t^(-sigma) and c_K t^(sigma - 1) with c_k c_K
        kappa(sigma) = 1, g is the rule minus its own error delta: the rule
        alone read 3.2e-6 to 3.6e-6 off 1 at N = 64 and 8.2e-10 to 9.2e-10
        from N = 512 on."""
        pairs = [
            make_classical_abel_pair(alpha, 1.0),
            SoninePair(
                k=power_kernel(2.0, alpha, 1.0),
                K=power_kernel(0.5 / kappa(alpha), 1.0 - alpha, 1.0),
            ),
        ]
        for pair in pairs:
            for N in (64, 512, 4096):
                mesh = graded_mesh(N, 2.0, 1.0)
                g, route_diff = compute_g(pair, mesh)
                assert np.max(np.abs(g.values[1:] - 1.0)) <= 1e-15
                assert math.isnan(route_diff)
                report = check_gsc(pair, mesh)
                np.testing.assert_array_equal(report.g.values, g.values)
                assert math.isnan(report.route_diff)

    def test_variable_report(self, pair_a, mesh_512_half):
        report = check_gsc(pair_a, mesh_512_half)
        assert report.g0_defect <= 1e-3
        assert report.eps_fit.passed
        assert math.isfinite(report.gprime_l1)
        assert report.route_diff <= 5e-5
        assert report.gsc_pass

    def test_mismatched_pair_flags_failure(self):
        kk = power_kernel(1.0, 0.5, 1.0)
        pair = SoninePair(k=kk, K=kk)
        report = check_gsc(pair, graded_mesh(128, 2.0, 1.0))
        assert report.sc_residual > 2.0  # g is pi everywhere
        assert abs(report.g0_defect - (math.pi - 1.0)) <= 1e-3
        assert not report.gsc_pass

    def test_steep_profile_passes_g0_and_scaled_kappa_fails(self):
        """alpha(t) = 0.5 + 0.4t on (0, 1] meets g(0+) = 1 within the default
        tolerance (its defect was 1.5e-3 without the t basis function); with
        K scaled by 1 / 1.01, g(0+) moves by about 1% and fails it. The scaled
        pair's k drops its profile, since the substituted route builds the
        normalization of K in, so g is convolved from K itself."""
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.4, 1.0), 1.0)
        k = replace(pair.k, smooth_log_deriv=None)
        profile_less = SoninePair(k=k, K=pair.K)
        scaled = SoninePair(
            k=k, K=power_kernel(pair.K.power_coef / 1.01, pair.K.local_exponent, 1.0)
        )
        mesh = graded_mesh(256, 2.0, 1.0)
        assert check_gsc(pair, mesh).g0_defect <= G0_TOL_DEFAULT  # 4.0e-5
        assert check_gsc(profile_less, mesh).g0_defect <= G0_TOL_DEFAULT
        defect = check_gsc(scaled, mesh).g0_defect
        assert defect > G0_TOL_DEFAULT
        assert abs(defect - (1.0 - 1.0 / 1.01)) <= 1e-3

    def test_profile_with_scaled_K_takes_the_pointwise_route(self):
        """A pair that keeps its profile but whose K is scaled by 1 / 1.01 is
        measured from K itself, as without the profile: the substituted
        route, which builds the profile's own K in, read g0_defect 4.0e-5
        and passed it. Constructor-built pairs keep that route."""
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.4, 1.0), 1.0)
        scaled_K = power_kernel(pair.K.power_coef / 1.01, pair.K.local_exponent, 1.0)
        kept = SoninePair(k=pair.k, K=scaled_K)
        dropped = SoninePair(k=replace(pair.k, smooth_log_deriv=None), K=scaled_K)
        mesh = graded_mesh(128, 2.0, 1.0)
        report = check_gsc(kept, mesh)
        assert not report.gsc_pass
        assert report.g0_defect > G0_TOL_DEFAULT
        assert math.isnan(report.route_diff)
        assert report.g0_defect == check_gsc(dropped, mesh).g0_defect
        with pytest.raises(DomainError, match="smooth_log_deriv"):
            compute_g_substituted(kept, 0.5)
        built = check_gsc(pair, mesh)
        assert built.gsc_pass and math.isfinite(built.route_diff)

    def test_constant_profile_degenerates(self):
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.0, 1.0), 1.0)
        report = check_gsc(pair, graded_mesh(256, 2.0, 1.0))
        assert report.sc_residual <= 1e-4
        assert abs(report.eps_fit.C) <= 1e-6
        assert report.eps_fit.passed
        assert report.route_diff <= 5e-5
        assert report.gsc_pass

    def test_eps_bound_when_profile_attached(self, pair_a, mesh_512_half):
        report = check_gsc(pair_a, mesh_512_half)
        if report.eps_fit.passed and report.eps_fit.C > 1e-6:
            assert report.eps_fit.eps < 1.0 - pair_a.k.local_exponent

    def test_nonnegative_diagnostics(self, pair_a, mesh_512_half):
        report = check_gsc(pair_a, mesh_512_half)
        assert report.sc_residual >= 0.0
        assert report.g0_defect >= 0.0
        assert report.gprime_l1 >= 0.0

    def test_g0_tol_is_respected(self, pair_a, mesh_512_half):
        strict = check_gsc(pair_a, mesh_512_half, g0_tol=1e-9)
        assert not strict.gsc_pass
        with pytest.raises(DomainError):
            check_gsc(pair_a, mesh_512_half, g0_tol=0.0)

    def test_deterministic(self, pair_a, mesh_512_half):
        r1 = check_gsc(pair_a, mesh_512_half)
        r2 = check_gsc(pair_a, mesh_512_half)
        np.testing.assert_array_equal(r1.g.values[1:], r2.g.values[1:])
        np.testing.assert_array_equal(r1.gprime.values[1:], r2.gprime.values[1:])
        assert r1.g0 == r2.g0
        assert r1.gprime_l1 == r2.gprime_l1
