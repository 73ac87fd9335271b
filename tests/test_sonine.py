"""The g = K * k analysis: routes, g(0+), derivative, verdict."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    G_A_025,
    G_A_05,
    GPRIME_A_025,
    g_less_delta,
    gprime_at,
    two_term_pair,
)
from sonine_kit import (
    DomainError,
    GscConditionError,
    KernelSpec,
    RhsSpec,
    SoninePair,
    affine_exponent,
    check_gsc,
    compute_g,
    convergence_study,
    discover_associate,
    graded_mesh,
    kappa,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    power_kernel,
    solve_first_kind,
    stability_report,
)
from sonine_kit import quadrature, sonine
from sonine_kit.quadrature import _default_panels
from sonine_kit.sonine import EPS_MARGIN, G0_TOL_DEFAULT


class TestGLessDelta:
    """g less delta at chosen times and panel counts (conftest's
    g_less_delta), the rule that compute_g runs at the mesh's count."""

    def test_constant_profile_is_exactly_one(self):
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.0, 1.0), 1.0)
        for t in (0.03, 0.4, 1.0):
            assert abs(g_less_delta(pair, t, 64) - 1.0) <= 1e-6

    def test_oracle_values(self, pair_a):
        assert abs(g_less_delta(pair_a, 0.5, 256) - G_A_05) <= 1e-6
        assert abs(g_less_delta(pair_a, 0.25, 256) - G_A_025) <= 1e-6

    def test_defect_shrinks_towards_origin(self, pair_a):
        ts = 0.5 * 0.5 ** np.arange(4, 13, dtype=float)
        defects = np.abs(g_less_delta(pair_a, ts, 256) - 1.0)
        assert np.all(np.diff(defects) < 0.0)

    def test_route_agreement(self, pair_a, mesh_512_half):
        ts = mesh_512_half.nodes[1:]
        direct = quadrature._pair_convolution(pair_a.K, pair_a.k, ts, 256)
        assert np.max(np.abs(direct - g_less_delta(pair_a, ts, 256))) <= 5e-5


class TestOneRule:
    """g and g' are sums of the one split-at-t/2 rule; g is its K * k minus
    the rule's error on the classical part, delta, which is what route_diff
    reports."""

    def test_route_diff_is_the_classical_defect(self):
        """Two slopes at alpha(0) = 0.4 read the same route_diff, the rule's
        error on K * t^(-0.4) = 1."""
        mesh = graded_mesh(4096, 2.0, 0.5)
        diffs = [
            compute_g(make_variable_exponent_pair(affine_exponent(0.4, a1, 0.5), 0.5), mesh)[1]
            for a1 in (0.05, 0.4)
        ]
        classical = make_classical_abel_pair(0.4, 0.5)
        M = _default_panels(4096)
        delta = quadrature._pair_convolution(classical.K, classical.k, np.array([0.5]), M)[0] - 1.0
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
        np.testing.assert_array_equal(g.values[1:], g_less_delta(pair_a, mesh.nodes[1:], 64))

    @pytest.mark.parametrize("which", ["classical", "variable", "two-term"])
    def test_check_gsc_reads_delta_and_the_terms_once(self, which, monkeypatch, pair_a):
        """One check_gsc call computes the rule's error on k's leading term
        (_defect) and the g' rule's terms (_gprime_terms) once each, and g
        reuses the gate's; it computed them twice and three times."""
        pair = {
            "classical": make_classical_abel_pair(0.5, 1.0),
            "variable": pair_a,
            "two-term": two_term_pair(0.7, 0.5, 1.0, 1.0),
        }[which]
        calls = {"_defect": 0, "_gprime_terms": 0}
        for name in calls:

            def counting(*args, real=getattr(sonine, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(sonine, name, counting)
        check_gsc(pair, graded_mesh(128, 2.0, pair.b))
        assert calls == {"_defect": 1, "_gprime_terms": 1}

    def test_compute_g_on_a_long_mesh_samples_in_ln_t(self, monkeypatch, pair_a):
        """At N = 4096 the rule runs at the LOG_T_POINTS points of the
        interpolant in ln t, and once for delta."""
        rows = self._count_rows(monkeypatch)
        compute_g(pair_a, graded_mesh(4096, 2.0, pair_a.b))
        assert sum(rows) <= quadrature.LOG_T_POINTS + 2


class TestPanelCountPolicy:
    """The mesh alone fixes the rule's panel count for every pipeline
    function: _default_panels(N), as convolve_pair takes."""

    @pytest.mark.parametrize("N", [128, 1024], ids=["direct", "log-t"])
    @pytest.mark.parametrize("which", ["classical", "profile"])
    def test_check_gsc_gprime_is_the_default_panels_rule(self, which, N, pair_a):
        """Bit for bit, with g' summed at every node (N = 128) and through
        the ln t interpolant (N = 1024); NaN at t_0 for every pair, a
        classical one included, where g' = 0 at the interior nodes."""
        pair = make_classical_abel_pair(0.3, pair_a.b) if which == "classical" else pair_a
        mesh = graded_mesh(N, 2.0, pair.b)
        got = check_gsc(pair, mesh).gprime.values
        assert np.isnan(got[0])
        np.testing.assert_array_equal(
            got[1:], gprime_at(pair, mesh.nodes[1:], _default_panels(N))
        )

    @pytest.mark.parametrize("route", ["classical", "substituted", "pointwise"])
    def test_check_gsc_g_is_compute_g(self, route, pair_a):
        """A k given pointwise, without its t S'(t), is refused instead."""
        pair = {
            "classical": make_classical_abel_pair(0.5, pair_a.b),
            "substituted": pair_a,
            "pointwise": SoninePair(k=replace(pair_a.k, smooth_log_deriv=None), K=pair_a.K),
        }[route]
        mesh = graded_mesh(128, 2.0, pair.b)
        if route == "pointwise":
            with pytest.raises(DomainError, match="smooth_log_deriv"):
                check_gsc(pair, mesh)
            return
        np.testing.assert_array_equal(
            check_gsc(pair, mesh).g.values, compute_g(pair, mesh)[0].values
        )


class TestGprimeRule:
    """Tests that vary the panel count call conftest's gprime_at, the
    rule that check_gsc runs at the mesh's count."""

    def test_oracle_value(self, pair_a):
        mesh = graded_mesh(2, 1.0, 0.5)  # nodes 0, 0.25, 0.5
        gp = gprime_at(pair_a, mesh.nodes[1:], 1024)
        assert abs(gp[0] - GPRIME_A_025) <= 1e-6 * GPRIME_A_025
        assert np.isnan(check_gsc(pair_a, mesh).gprime.values[0])

    def test_agrees_with_finite_difference(self, pair_a):
        mesh = graded_mesh(2, 1.0, 0.5)
        gp = gprime_at(pair_a, mesh.nodes[1:], 256)
        h = 1e-4
        fd = (
            g_less_delta(pair_a, 0.25 + h, 256)
            - g_less_delta(pair_a, 0.25 - h, 256)
        ) / (2.0 * h)
        assert abs(gp[0] - fd) <= 1e-5

    def test_constant_profile_derivative_vanishes(self):
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.0, 1.0), 1.0)
        gp = gprime_at(pair, graded_mesh(16, 2.0, 1.0).nodes[1:], 64)
        assert np.max(np.abs(gp)) <= 1e-8

    def test_fd_consistency_across_nodes(self, pair_a):
        """Analytic derivative vs central differences of g, away from 0."""
        mesh = graded_mesh(64, 1.0, 0.5)
        gp = np.full(mesh.N + 1, np.nan)
        gp[1:] = gprime_at(pair_a, mesh.nodes[1:], 256)
        nodes = mesh.nodes
        sel = np.arange(2, 63)
        sel = sel[nodes[sel] >= 0.05]  # t >= b/10
        g_plus = g_less_delta(pair_a, nodes[sel + 1], 256)
        g_minus = g_less_delta(pair_a, nodes[sel - 1], 256)
        fd = (g_plus - g_minus) / (nodes[sel + 1] - nodes[sel - 1])
        # the gap is the central-difference truncation h^2 g'''/6, largest
        # at the left edge of the window where g''' ~ 30
        assert np.max(np.abs(gp[sel] - fd)) <= 1e-3

    def test_requires_profile(self, classical_half, pair_a):
        """A classical pair of pure powers has g' = 0 exactly; a k without
        its t S'(t) has no analytic g'."""
        mesh = graded_mesh(8, 2.0, 1.0)
        assert np.all(check_gsc(classical_half, mesh).gprime.values[1:] == 0.0)
        bare = SoninePair(k=replace(pair_a.k, smooth_log_deriv=None), K=pair_a.K)
        with pytest.raises(DomainError, match="smooth_log_deriv"):
            check_gsc(bare, graded_mesh(8, 2.0, pair_a.b))

    def test_near_origin_growth_is_integrable(self, pair_a):
        """|g'| follows a power law milder than t^{-1/2} approaching 0."""
        ts = 0.5 * 0.5 ** np.arange(2, 13, dtype=float)
        mesh_vals = [
            gprime_at(pair_a, graded_mesh(2, 1.0, 2.0 * t).nodes[1:], 128)[0] for t in ts
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
    """k = t^(-sigma) S(t) with a known t S'(t) has the analytic g' whatever
    S is, and with S(0) = 1 its g less the rule's error on t^(-sigma). For S = e^(-lambda t), g = 1F1(1 - alpha;
    1; -lambda t) and g' = -lambda (1 - alpha) 1F1(2 - alpha; 2; -lambda t)."""

    def test_takes_the_analytic_route(self):
        pair = tempered_pair()
        assert not pair.is_classical
        mesh = graded_mesh(512, 2.0, B)
        _, route_diff = compute_g(pair, mesh)
        assert math.isfinite(route_diff)  # 9.2e-10
        assert np.all(np.isfinite(check_gsc(pair, mesh).gprime.values[1:]))

    def test_gprime_matches_the_hypergeometric_closed_form(self):
        """Largest relative error 9.2e-10, at the first of the four nodes."""
        mesh = graded_mesh(512, 2.0, B)
        gp = check_gsc(tempered_pair(), mesh).gprime.values
        for t in (B / 1000, B / 100, B / 2, B):
            i = int(np.argmin(np.abs(mesh.nodes - t)))
            with mp.workdps(30):
                exact = -LAM * (1 - ALPHA) * mp.hyp1f1(2 - ALPHA, 2, -LAM * mp.mpf(mesh.nodes[i]))
            assert abs(gp[i] / float(exact) - 1.0) <= 1e-7, (i, gp[i], exact)

    @pytest.mark.parametrize("N", [512, 2048])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_flat_gprime_reads_a_perfect_fit(self, r, N):
        """g' = -1 + O(t) is flat near 0: its first samples spread by 4e-3
        of their size at r = 1, N = 512, down to 5.2e-9 at r = 3, N = 2048,
        inside the rule's accuracy, where R^2 is reported as 1 (it read
        -4.12, the ratio of two noise levels)."""
        report = check_gsc(tempered_pair(), graded_mesh(N, r, B))
        fit = report.eps_fit
        assert fit.passed and 0.9999 <= fit.r_squared <= 1.0
        gp = report.gprime.values[1:5]
        flat = np.ptp(gp) <= sonine.FLAT_RTOL * np.max(np.abs(gp))
        assert flat == ((r, N) == (3.0, 2048))
        if flat:
            assert fit.r_squared == 1.0

    @pytest.mark.parametrize(
        "pair",
        [tempered_pair(log_deriv=False), tempered_pair(smooth0=2.0)],
        ids=["no log-derivative", "smooth0 = 2"],
    )
    def test_takes_the_pointwise_route(self, pair):
        """Without t S'(t) g' cannot be built; with S(0) = 2 the leading
        term is 2 t^(-1/2), which K does not convolve to 1, so g keeps the
        rule's error and route_diff is NaN, while g' = 2 x the tempered g'
        still comes from the analytic rule, which reads no leading term."""
        mesh = graded_mesh(64, 2.0, B)
        _, route_diff = compute_g(pair, mesh)
        assert math.isnan(route_diff)
        if pair.k.smooth_log_deriv is None:
            with pytest.raises(DomainError, match="smooth_log_deriv"):
                check_gsc(pair, mesh)
        else:
            np.testing.assert_allclose(
                check_gsc(pair, mesh).gprime.values[1:],
                2.0 * check_gsc(tempered_pair(), mesh).gprime.values[1:],
                rtol=1e-15,
            )


def tempered_associate(scale: float = 1.0) -> SoninePair:
    """The tempered factor moved onto K: K = scale t^(-1/2) e^(-2t), with
    its t A'(t) = -2t A(t), and k = t^(-1/2) / kappa(1/2)."""

    def smooth(t):
        return scale * np.exp(-LAM * np.asarray(t, dtype=float))

    K = KernelSpec(
        smooth_fn=smooth,
        smooth0=scale,
        local_exponent=1.0 - ALPHA,
        b=B,
        smooth_log_deriv=lambda t: -LAM * t * smooth(t),
    )
    return SoninePair(k=power_kernel(1.0 / kappa(ALPHA), ALPHA, B), K=K)


def luchko_pair(a: float, beta: float, lam: float, b: float) -> SoninePair:
    """Luchko's two-term pair in its own normalisation (Mathematics 9
    (2021) 594): k = t^(-beta) / Gamma(1 - beta) + lam t^(a - beta) /
    Gamma(1 - beta + a) and K = t^(beta - 1) / Gamma(beta), whose g = 1 +
    lam t^a / Gamma(1 + a) has g' = lam t^(a - 1) / Gamma(a)."""
    c0, c1 = 1.0 / math.gamma(1.0 - beta), lam / math.gamma(1.0 - beta + a)
    k = KernelSpec(
        smooth_fn=lambda t: c0 + c1 * np.asarray(t, dtype=float) ** a,
        smooth0=c0,
        local_exponent=beta,
        b=b,
        smooth_log_deriv=lambda t: c1 * a * np.asarray(t, dtype=float) ** a,
    )
    return SoninePair(k=k, K=power_kernel(1.0 / math.gamma(beta), 1.0 - beta, b))


class TestGprimeIdentity:
    """t g' = K_A * k + K * k_B, with the bounded factors t A'(t) of K and
    t B'(t) of k, covers pairs whose K is not t^(sigma - 1) / kappa(sigma)
    or whose S(0) is not 1. Their g' was differenced from g before, which
    is first order, and at t_1 reads the mean of g' over [t_1, t_2]."""

    @pytest.mark.parametrize("N, rtol", [(256, 2e-8), (1024, 1e-8), (4096, 1e-8)])
    @pytest.mark.parametrize("scale", [1.0, 1.01])
    def test_tempered_factor_on_K(self, scale, N, rtol):
        """g' = -scale 1F1(3/2; 2; -2t). The differenced g' erred 2.7e-3,
        6.6e-4 and 1.7e-4 at N = 256, 1024 and 4096; the rule reads 1.5e-8
        at N = 256, the error of its 128 panels there (the same as with the
        factor on k), and 9.2e-10 from N = 1024. With K x 1.01, g' scales
        and the verdict fails on g(0+) = 1.01."""
        pair = tempered_associate(scale)
        mesh = graded_mesh(N, 2.0, B)
        report = check_gsc(pair, mesh)
        idx = np.unique(np.r_[1:9, np.arange(1, N + 1, N // 32), N])
        with mp.workdps(30):
            exact = [-scale * mp.hyp1f1(2 - ALPHA, 2, -LAM * mp.mpf(mesh.nodes[i])) for i in idx]
        np.testing.assert_allclose(
            report.gprime.values[idx], np.array(exact, dtype=float), rtol=rtol, atol=0.0
        )
        assert report.gsc_pass == (scale == 1.0)

    @pytest.mark.parametrize("N", [512, 2048])
    @pytest.mark.parametrize(
        "a, beta, lam, b", [(0.7, 0.5, 1.0, 1.0), (0.9, 0.3, 2.0, 0.5)], ids=["(0.7, 0.5)", "(0.9, 0.3)"]
    )
    def test_luchko_pair_as_published(self, a, beta, lam, b, N):
        """g' matches its closed form to 9.0e-10 at every node, where the
        differenced g' erred 0.22 and 0.081 at t_1. K convolves k's leading
        term t^(-beta) / Gamma(1 - beta) to 1, so g less the rule's error
        on it reads g(0+) = 1 to 7.8e-16 (9.2e-10 and 8.2e-10 before)."""
        report = check_gsc(luchko_pair(a, beta, lam, b), graded_mesh(N, 2.0, b))
        t = report.g.mesh.nodes[1:]
        np.testing.assert_allclose(
            report.gprime.values[1:], lam * t ** (a - 1.0) / math.gamma(a), rtol=1e-8, atol=0.0
        )
        assert report.g0_defect <= 1e-15
        assert math.isfinite(report.route_diff)
        assert report.gsc_pass


#: pairs off the g' rule: no t S'(t) of a kernel that needs one, or orders
#: that do not sum to 1
OFF_RULE_PAIRS = {
    "k without t S'(t)": lambda: tempered_pair(log_deriv=False),
    "K without t A'(t)": lambda: SoninePair(
        k=tempered_associate().k, K=replace(tempered_associate().K, smooth_log_deriv=None)
    ),
    "orders sum to 0.8": lambda: SoninePair(
        k=power_kernel(1.0, ALPHA, B), K=power_kernel(1.0 / kappa(ALPHA), 0.3, B)
    ),
}

#: the public entries that read g', each on a pair and a mesh
GATED_ENTRIES = {
    "check_gsc": check_gsc,
    "solve_first_kind": lambda pair, mesh: solve_first_kind(
        pair, RhsSpec.from_polynomial((0.0, 1.0)), mesh
    ),
    "discover_associate": lambda pair, mesh: discover_associate(pair.k, pair.K, mesh),
    "stability_report": lambda pair, mesh: stability_report(pair, 1e-6, mesh),
    "convergence_study": lambda pair, mesh: convergence_study(
        pair, RhsSpec.from_polynomial((0.0, 1.0)), mesh.N, 2.0
    ),
}


class TestRefusedOffTheRule:
    """A pair that is not classical and whose g' the analytic rule cannot
    build is refused by every entry that reads g', with a DomainError that
    names smooth_log_deriv. Its g' was differenced from g, first order and
    off by up to 2.0e-3 of max |u| at r = 1, N = 64; with orders that do
    not sum to 1 it got a failed verdict. Its g still convolves."""

    @pytest.mark.parametrize("entry", [*GATED_ENTRIES])
    @pytest.mark.parametrize("name", [*OFF_RULE_PAIRS])
    def test_every_entry_refuses(self, name, entry):
        pair = OFF_RULE_PAIRS[name]()
        with pytest.raises(DomainError, match="smooth_log_deriv"):
            GATED_ENTRIES[entry](pair, graded_mesh(64, 2.0, pair.b))

    @pytest.mark.parametrize("name", [*OFF_RULE_PAIRS])
    def test_g_still_convolves(self, name):
        """compute_g needs no g': g is finite and route_diff NaN."""
        pair = OFF_RULE_PAIRS[name]()
        g, route_diff = compute_g(pair, graded_mesh(64, 2.0, pair.b))
        assert np.all(np.isfinite(g.values[1:]))
        assert math.isnan(route_diff)


#: exact pairs of Luchko's two-term family, (a, beta, lambda, b)
TWO_TERM = {
    "two-term (0.7, 0.5)": (0.7, 0.5, 1.0, 1.0),
    "two-term (0.9, 0.3)": (0.9, 0.3, 2.0, 0.5),
    "two-term (0.3, 0.5)": (0.3, 0.5, 1.0, 1.0),
}


class TestG0Reading:
    """g(0+) is read as g at the first node t_1 minus the integral of a
    model of g' over [0, t_1], fitted to the gate's own g' at the first
    nodes. On pairs whose g(0) is exactly 1 it reads 1 to the rule's
    accuracy, also where g - 1 goes as t^a or t near 0, which the deleted
    fit of g at geometric times on {1, t |ln t|, t} read as defect: 2.2e-4
    on the tempered pair and 5.3e-3, 3.0e-4 and 0.138 on the two-term
    pairs at N = 512."""

    @pytest.mark.parametrize("N", [512, 2048])
    @pytest.mark.parametrize(
        "name, eps, verdict",
        [
            ("tempered", 0.0, True),
            ("two-term (0.7, 0.5)", 0.3, True),
            ("two-term (0.9, 0.3)", 0.1, True),
            ("two-term (0.3, 0.5)", 0.7, False),
        ],
    )
    def test_exact_pairs_read_one(self, name, eps, verdict, N):
        """At most 2.2e-16 on the tempered pair and 7.8e-16 on the two-term
        pairs. The model of g' near 0 reads the two-term pair's power
        blow-up eps = 1 - a exactly: 0.3 and 0.1 inside the margin below
        1 - beta, and 0.7 past it for (0.3, 0.5), which fails on that
        alone. The tempered pair's g' is bounded (eps 0); the deleted
        power fit of |g'| read it with R^2 0.61 and failed it."""
        pair = tempered_pair() if name == "tempered" else two_term_pair(*TWO_TERM[name])
        report = check_gsc(pair, graded_mesh(N, 2.0, pair.b))
        assert report.g0_defect <= 1e-6
        assert math.isfinite(report.gprime_l1)
        assert abs(report.eps_fit.eps - eps) <= 1e-4
        assert report.gsc_pass == report.eps_fit.passed == verdict
        past_margin = report.eps_fit.eps > 1.0 - pair.k.local_exponent - EPS_MARGIN
        assert past_margin == (not verdict)

    def test_paper_pair(self, pair_a, mesh_512_half):
        """alpha(t) = 0.5 + t/5 on (0, 0.5] reads 2.1e-12; the fit read 9.1e-7."""
        assert check_gsc(pair_a, mesh_512_half).g0_defect <= 1e-10

    @pytest.mark.parametrize(
        "a0, a1, r, N",
        [
            (0.1, 0.6, 1.0, 512),
            (0.1, 0.6, 1.0, 128),
            (0.3, 0.6, 1.0, 128),
            (0.1, 0.6, 1.5, 16),
            (0.1, 0.6, 2.0, 16),
            (0.5, 0.4, 2.0, 512),
            (0.5, 0.4, 2.0, 2048),
        ],
    )
    def test_steep_profile_passes_on_coarse_and_uniform_meshes(self, a0, a1, r, N):
        """alpha(t) = a0 + 0.6t on (0, 1] passes on uniform and coarse
        meshes, as it did when g(0+) was fitted to g at geometric times
        (2.7e-4 and 1.7e-4 on every mesh). The reading is 6.4e-6, 6.4e-5,
        4.6e-5, 2.5e-4 and 4.2e-5; a model of g' whose error spreads over
        every panel, such as s^(-eps) times a line, read 3.6e-3 to 4.9e-2
        here. 0.5 + 0.4t passes on fine meshes too: its log-singular g' is
        integrable however many decades the mesh spans, where the deleted
        power fit of |g'| lost R^2 with N (0.893 at N = 512, 0.880 at
        2048) and failed it."""
        pair = make_variable_exponent_pair(affine_exponent(a0, a1, 1.0), 1.0)
        report = check_gsc(pair, graded_mesh(N, r, 1.0))
        assert report.g0_defect <= 3e-4
        assert report.gsc_pass

    def test_mesh_of_two_or_three_panels(self, pair_a):
        """Without a node 4 to judge the models by, the log model through
        nodes 1 and 2 is read; g(0+) is still near 1 (1.2e-3 and 7.1e-4 at
        r = 1, 6.2e-4 and 1.3e-4 at r = 2)."""
        for r in (1.0, 2.0):
            for N in (2, 3):
                assert check_gsc(pair_a, graded_mesh(N, r, pair_a.b)).g0_defect <= 2e-3


#: factors on K that must fail the verdict: 1% and 0.2% either way
SCALES = (1.01, 1.002, 1.0 / 1.002, 1.0 / 1.01)

#: pairs with g(0+) = 1 whose K is scaled in the scaled-K guard
SCALED_K_PAIRS = {
    "steep profile": lambda: make_variable_exponent_pair(affine_exponent(0.5, 0.4, 1.0), 1.0),
    "paper profile": lambda: make_variable_exponent_pair(affine_exponent(0.5, 0.2, 0.5), 0.5),
    "tempered": tempered_pair,
    "two-term (0.7, 0.5)": lambda: two_term_pair(*TWO_TERM["two-term (0.7, 0.5)"]),
    "two-term (0.9, 0.3)": lambda: two_term_pair(*TWO_TERM["two-term (0.9, 0.3)"]),
}


class TestCheckGsc:
    def test_classical_report(self, mesh_512_unit):
        report = check_gsc(make_classical_abel_pair(0.5, 1.0), mesh_512_unit)
        assert report.sc_residual <= 1e-4
        assert report.g0_defect <= 1e-6
        assert report.gprime_l1 <= 1e-3
        assert report.gsc_pass
        assert math.isnan(report.route_diff)
        assert report.g0 == 1.0

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
                assert report.g0 == 1.0

    def test_variable_report(self, pair_a, mesh_512_half):
        report = check_gsc(pair_a, mesh_512_half)
        assert report.g0_defect <= 1e-3
        assert report.eps_fit.passed
        assert math.isfinite(report.gprime_l1)
        assert report.route_diff <= 5e-5
        assert report.gsc_pass

    @pytest.mark.parametrize("N", [16, 128, 512, 2048])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_tempered_pair_passes(self, r, N):
        """Its bounded g' (g'(0) = -1) is integrable. The deleted power fit
        of |g'| read it with R^2 0.46 to 0.89 and failed 11 of these 12
        meshes."""
        pair = tempered_pair()
        assert check_gsc(pair, graded_mesh(N, r, pair.b)).gsc_pass

    @pytest.mark.parametrize("beta", [0.3, 0.5])
    def test_power_steeper_than_the_clip_is_not_conclusive(self, beta):
        """The two-term pair with a = 0.03 has g' ~ t^(-0.97): its first
        samples fall off faster than x^(-EPS_CLIP_MAX) can follow, so the
        verdict fails whatever sigma is."""
        pair = two_term_pair(0.03, beta, 1.0, 1.0)
        for N in (64, 512):
            report = check_gsc(pair, graded_mesh(N, 2.0, 1.0))
            assert not report.eps_fit.passed and not report.gsc_pass

    def test_mismatched_pair_flags_failure(self):
        kk = power_kernel(1.0, 0.5, 1.0)
        pair = SoninePair(k=kk, K=kk)
        report = check_gsc(pair, graded_mesh(128, 2.0, 1.0))
        assert report.sc_residual > 2.0  # g is pi everywhere
        assert abs(report.g0_defect - (math.pi - 1.0)) <= 1e-3
        assert not report.gsc_pass

    @pytest.mark.parametrize("N", [128, 256, 512, 2048])
    @pytest.mark.parametrize("name", [*SCALED_K_PAIRS])
    def test_steep_profile_passes_g0_and_scaled_kappa_fails(self, name, N):
        """Each pair meets g(0+) = 1 within the default tolerance; with k's
        t S'(t) dropped it is refused, since its g' has no rule. With K
        scaled by s, g(0+) moves by s - 1, and every s in SCALES fails the
        verdict on it. The defect reads |s - 1| within 1% at every N here
        (1.2e-4 relative measured; the fit of g at geometric times was off
        by up to 3.7 times on two-term (0.7, 0.5)). A scaled pair keeps k's
        t S'(t), so the eps margin still reads k's order."""
        pair = SCALED_K_PAIRS[name]()
        mesh = graded_mesh(N, 2.0, pair.b)
        profile_less = SoninePair(k=replace(pair.k, smooth_log_deriv=None), K=pair.K)
        assert check_gsc(pair, mesh).g0_defect <= G0_TOL_DEFAULT
        with pytest.raises(DomainError, match="smooth_log_deriv"):
            check_gsc(profile_less, mesh)
        for s in SCALES:
            K = power_kernel(pair.K.power_coef * s, pair.K.local_exponent, pair.b)
            report = check_gsc(SoninePair(k=pair.k, K=K), mesh)
            assert not report.gsc_pass
            assert report.g0_defect > G0_TOL_DEFAULT
            assert abs(report.g0_defect / abs(s - 1.0) - 1.0) <= 0.01, s

    def test_profile_with_scaled_K_takes_the_pointwise_route(self):
        """A pair that keeps its profile but whose K is scaled by 1 / 1.01 is
        measured from K itself, as without the profile: the substituted
        route, which builds the profile's own K in, read g0_defect 4.0e-5
        and passed it. Constructor-built pairs keep that route. Its g' comes
        from the analytic rule."""
        pair = make_variable_exponent_pair(affine_exponent(0.5, 0.4, 1.0), 1.0)
        scaled_K = power_kernel(pair.K.power_coef / 1.01, pair.K.local_exponent, 1.0)
        kept = SoninePair(k=pair.k, K=scaled_K)
        mesh = graded_mesh(128, 2.0, 1.0)
        report = check_gsc(kept, mesh)
        assert not report.gsc_pass
        assert report.g0_defect > G0_TOL_DEFAULT
        assert math.isnan(report.route_diff)
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

    @pytest.mark.parametrize("a1", [1e-300, -1e-300, 1e-200])
    def test_tiny_slope_reads_a_finite_r_squared(self, a1):
        """A g' of about 1e-300 passes the CLI's range check; its R^2 is
        formed from residuals scaled by a power of two, whose squares do
        not underflow to 0 / 0 (a NaN, and a RuntimeWarning). It reads what
        a1 = 1e-100 reads, where nothing underflows."""
        mesh = graded_mesh(64, 2.0, 1.0)

        def fit(slope):
            pair = make_variable_exponent_pair(affine_exponent(0.5, slope, 1.0), 1.0)
            return check_gsc(pair, mesh).eps_fit

        tiny = fit(a1)
        assert 0.0 < abs(tiny.C) < 1e-160 and tiny.passed
        assert tiny.r_squared == fit(math.copysign(1e-100, a1)).r_squared

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
        defect = check_gsc(pair_a, mesh_512_half).g0_defect
        assert check_gsc(pair_a, mesh_512_half, g0_tol=2.0 * defect).gsc_pass
        assert not check_gsc(pair_a, mesh_512_half, g0_tol=0.5 * defect).gsc_pass
        with pytest.raises(DomainError):
            check_gsc(pair_a, mesh_512_half, g0_tol=0.0)

    def test_deterministic(self, pair_a, mesh_512_half):
        r1 = check_gsc(pair_a, mesh_512_half)
        r2 = check_gsc(pair_a, mesh_512_half)
        np.testing.assert_array_equal(r1.g.values[1:], r2.g.values[1:])
        np.testing.assert_array_equal(r1.gprime.values[1:], r2.gprime.values[1:])
        assert r1.g0 == r2.g0
        assert r1.gprime_l1 == r2.gprime_l1


#: the verdict grid: affine profiles a0 + a1 t on (0, b] that stay inside
#: (0, 1), each on r-graded meshes of N panels
VERDICT_PROFILES = tuple(
    itertools.product((0.1, 0.3, 0.5, 0.7, 0.9), (-0.4, -0.1, 0.2, 0.5, 0.8), (0.5, 1.0))
)
VERDICT_MESHES = tuple(itertools.product((1.0, 1.5, 2.0, 3.0, 4.0), (8, 16, 64, 256, 1024)))

#: the (a0, a1, b, r, N) cases of the grid that check_gsc fails; it passes
#: the other 839. All are coarse meshes at r <= 1.5: the first samples of
#: g' fall off too steeply to call the model, or g(0+) misses 1e-3
VERDICT_FAILURES = {
    (0.1, 0.2, 1.0, 1.0, 8),
    (0.1, 0.5, 1.0, 1.0, 8),
    (0.1, 0.8, 0.5, 1.0, 8),
    (0.1, 0.8, 1.0, 1.0, 8),
    (0.1, 0.8, 1.0, 1.0, 16),
    (0.1, 0.8, 1.0, 1.5, 8),
    (0.3, -0.1, 1.0, 1.0, 8),
    (0.3, 0.2, 1.0, 1.0, 8),
    (0.3, 0.5, 1.0, 1.0, 8),
    (0.3, 0.8, 0.5, 1.0, 8),
    (0.5, -0.4, 1.0, 1.0, 8),
}


def test_verdict_map():
    """check_gsc's verdict on each of the 850 grid cases is the checked-in
    one; every case that changes is printed. A change to the verdict on
    purpose updates VERDICT_FAILURES and lists the flipped cases."""
    changed = []
    cases = 0
    for a0, a1, b in VERDICT_PROFILES:
        if not 0.0 < min(a0, a0 + a1 * b) <= max(a0, a0 + a1 * b) < 1.0:
            continue
        pair = make_variable_exponent_pair(affine_exponent(a0, a1, b), b)
        for r, N in VERDICT_MESHES:
            case = (a0, a1, b, r, N)
            passed = check_gsc(pair, graded_mesh(N, r, b)).gsc_pass
            cases += 1
            if passed != (case not in VERDICT_FAILURES):
                changed.append(case)
                print(f"verdict changed: a0, a1, b, r, N = {case}: now {'pass' if passed else 'fail'}")
    assert cases == 850
    assert changed == []


#: the pairs off the profile grid: the tempered pair and the two-term pairs
PAIR_MAP_PAIRS = {
    "tempered": tempered_pair,
    **{name: (lambda p=p: two_term_pair(*p)) for name, p in TWO_TERM.items()},
}

#: the factors on K of the pair map: as built, and 1% either way
PAIR_MAP_SCALES = (1.0, 1.01, 1.0 / 1.01)
PAIR_MAP_MESHES = tuple(itertools.product((1.5, 2.0, 3.0), (64, 256, 1024)))

#: the (pair, with t S'(t), r, N) cases of the pair map whose unscaled pair
#: check_gsc fails: the two-term pair (0.3, 0.5), whose eps = 0.7 lies
#: past the margin below 1 - beta. A k without its t S'(t) is refused
PAIR_MAP_FAILURES = {("two-term (0.3, 0.5)", True, r, N) for r, N in PAIR_MAP_MESHES}


def _pair_case(name: str, scale: float, log_deriv: bool) -> SoninePair:
    """The named pair with K scaled by ``scale``, and without k's t S'(t)
    unless ``log_deriv``."""
    pair = PAIR_MAP_PAIRS[name]()
    K = pair.K
    if scale != 1.0:
        K = power_kernel(K.power_coef * scale, K.local_exponent, pair.b)
    k = pair.k if log_deriv else replace(pair.k, smooth_log_deriv=None)
    return SoninePair(k=k, K=K)


def test_pair_verdict_map():
    """check_gsc's verdict on the 216 cases of the pairs off the profile
    grid: each pair as built, with K scaled by 1.01 and by 1/1.01, and
    with and without k's t S'(t), at r in {1.5, 2, 3} and N in {64, 256,
    1024}. Every pair without k's t S'(t) is refused; every scaled pair
    with it fails; the pairs as built fail only as PAIR_MAP_FAILURES says.
    Every case that changes is printed."""
    changed = []
    cases = 0
    for name, scale, log_deriv in itertools.product(
        PAIR_MAP_PAIRS, PAIR_MAP_SCALES, (True, False)
    ):
        pair = _pair_case(name, scale, log_deriv)
        for r, N in PAIR_MAP_MESHES:
            try:
                verdict = "pass" if check_gsc(pair, graded_mesh(N, r, pair.b)).gsc_pass else "fail"
            except DomainError as exc:
                verdict = "refused" if "smooth_log_deriv" in str(exc) else repr(exc)
            passes = scale == 1.0 and (name, log_deriv, r, N) not in PAIR_MAP_FAILURES
            expected = "refused" if not log_deriv else "pass" if passes else "fail"
            cases += 1
            if verdict != expected:
                changed.append((name, scale, log_deriv, r, N))
                print(
                    f"verdict changed: {name}, K x {scale:.6g}, t S'(t) {log_deriv}, "
                    f"r = {r}, N = {N}: now {verdict}"
                )
    assert cases == 216
    assert changed == []


@pytest.mark.parametrize("N", [512, 2048])
@pytest.mark.parametrize("name", [*PAIR_MAP_PAIRS])
def test_verdict_does_not_depend_on_how_k_is_given(name, N):
    """A pair gets no verdict that depends on how k is given: with its t
    S'(t) it gets the map's verdict, and without it it is refused. The
    two-term pair (0.3, 0.5), eps = 0.7, failed with t S'(t) and passed
    without it, when the margin was read only from a k that had one."""
    mesh = graded_mesh(N, 2.0, PAIR_MAP_PAIRS[name]().b)
    built = check_gsc(_pair_case(name, 1.0, True), mesh)
    with pytest.raises(DomainError, match="smooth_log_deriv"):
        check_gsc(_pair_case(name, 1.0, False), mesh)
    assert built.gsc_pass == built.eps_fit.passed == (name != "two-term (0.3, 0.5)")


#: the gate map: the verdict grid's valid profiles, solved with f = t on
#: the coarse meshes where the model of g' has fewest samples
GATE_MESHES = tuple(itertools.product((1.0, 1.5, 2.0, 3.0), (2, 3, 4, 5, 6, 8, 16, 64)))

#: the (a0, a1, b, r, N) cases of the gate map whose solve the gate on g(0+)
#: refuses; it solves the other 1052. All are at N <= 6, on the steepest
#: profiles, where the first samples of g' leave g(0+) past the gate
GATE_REFUSALS = {
    (0.1, 0.5, 0.5, 1.0, 2),
    (0.1, 0.5, 0.5, 1.0, 3),
    (0.1, 0.5, 0.5, 1.5, 2),
    (0.1, 0.5, 1.0, 1.0, 2),
    (0.1, 0.5, 1.0, 1.0, 3),
    (0.1, 0.5, 1.0, 1.0, 4),
    (0.1, 0.5, 1.0, 1.0, 5),
    (0.1, 0.5, 1.0, 1.5, 3),
    (0.1, 0.8, 0.5, 1.0, 2),
    (0.1, 0.8, 0.5, 1.0, 3),
    (0.1, 0.8, 0.5, 1.5, 2),
    (0.1, 0.8, 0.5, 1.5, 3),
    (0.1, 0.8, 0.5, 2.0, 2),
    (0.1, 0.8, 0.5, 3.0, 2),
    (0.1, 0.8, 1.0, 1.0, 2),
    (0.1, 0.8, 1.0, 1.0, 3),
    (0.1, 0.8, 1.0, 1.0, 4),
    (0.1, 0.8, 1.0, 1.0, 5),
    (0.1, 0.8, 1.0, 1.0, 6),
    (0.1, 0.8, 1.0, 1.5, 2),
    (0.1, 0.8, 1.0, 1.5, 3),
    (0.1, 0.8, 1.0, 1.5, 4),
    (0.1, 0.8, 1.0, 2.0, 3),
    (0.1, 0.8, 1.0, 3.0, 2),
    (0.3, 0.5, 0.5, 1.0, 2),
    (0.3, 0.5, 1.0, 1.0, 2),
    (0.3, 0.5, 1.0, 1.0, 3),
    (0.3, 0.5, 1.0, 1.0, 4),
    (0.3, 0.8, 0.5, 1.0, 2),
    (0.3, 0.8, 0.5, 1.0, 3),
    (0.3, 0.8, 0.5, 1.5, 2),
    (0.3, 0.8, 0.5, 2.0, 2),
    (0.5, 0.8, 0.5, 1.0, 2),
    (0.5, 0.8, 0.5, 1.0, 3),
    (0.5, 0.8, 0.5, 1.5, 2),
    (0.5, 0.8, 0.5, 2.0, 2),
}


def test_gate_map():
    """solve_first_kind with f = t is refused by its gate on each of the
    1088 grid cases in GATE_REFUSALS and solves every other one; every
    case that changes is printed. A change to the gate on purpose updates
    GATE_REFUSALS and lists the flipped cases."""
    rhs = RhsSpec.from_polynomial((0.0, 1.0))
    changed = []
    cases = 0
    for a0, a1, b in VERDICT_PROFILES:
        if not 0.0 < min(a0, a0 + a1 * b) <= max(a0, a0 + a1 * b) < 1.0:
            continue
        pair = make_variable_exponent_pair(affine_exponent(a0, a1, b), b)
        for r, N in GATE_MESHES:
            case = (a0, a1, b, r, N)
            try:
                solve_first_kind(pair, rhs, graded_mesh(N, r, b))
                refused = False
            except GscConditionError:
                refused = True
            cases += 1
            if refused != (case in GATE_REFUSALS):
                changed.append(case)
                print(f"gate changed: a0, a1, b, r, N = {case}: now {'refused' if refused else 'solved'}")
    assert cases == 1088
    assert changed == []
