"""First-kind solves, the second-kind transformation, and discovery."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import sonine_kit.sonine as sonine
import sonine_kit.volterra as volterra
from conftest import EXP_MINUS_1, PROFILE_A, TWO_OVER_PI
from sonine_kit import (
    DomainError,
    GscConditionError,
    IllConditionedSystemError,
    KernelSpec,
    RhsSpec,
    SampledFunction,
    SoninePair,
    assemble_rhs,
    check_gsc,
    classical_abel_kernel,
    classical_solution,
    convergence_study,
    discover_associate,
    graded_mesh,
    kappa,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    affine_exponent,
    power_kernel,
    product_weights,
    solve_first_kind,
    solve_second_kind,
    stability_probe,
    stability_report,
    variable_exponent_kernel,
)


class TestRhsSpec:
    def test_polynomial_construction(self):
        rhs = RhsSpec.from_polynomial([1.0, -2.0, 3.0])
        assert rhs.f0 == 1.0
        assert rhs.eval(2.0) == 1.0 - 4.0 + 12.0
        assert rhs.eval_fprime(2.0) == -2.0 + 12.0
        rhs.validate(1.0)  # no raise

    def test_f0_is_f_at_zero(self):
        rhs = RhsSpec(f=lambda t: math.cos(t) + 0.5, fprime=lambda t: -math.sin(t))
        assert rhs.f0 == 1.5
        with pytest.raises(TypeError):
            RhsSpec(f=lambda t: t, fprime=lambda t: 1.0, f0=0.0)

    @pytest.mark.parametrize("at0", [math.inf, math.nan])
    def test_non_finite_f0_rejected(self, at0):
        with pytest.raises(DomainError, match="f\\(0\\) must be finite"):
            RhsSpec(f=lambda t: at0 if t == 0.0 else t, fprime=lambda t: 1.0)

    def test_wrong_derivative_is_caught(self):
        rhs = RhsSpec(f=lambda t: t * t, fprime=lambda t: 3.0 * t)
        with pytest.raises(DomainError):
            rhs.validate(1.0)

    def test_validate_is_deterministic(self):
        rhs = RhsSpec.from_polynomial([0.0, 0.0, 1.0, 0.5])
        rhs.validate(1.0)
        rhs.validate(1.0)  # same spot-check points every time

    @pytest.mark.parametrize("b", [0.37, 0.5, 1.0, 3.0])
    def test_spot_points_are_the_seeded_draw(self, b):
        """validate checks f' at fixed fractions of [2h, b - 2h], which
        equal a fresh seeded uniform draw on it bit for bit."""
        h = volterra.FD_STEP_FRAC * b
        want = np.random.default_rng(160693).uniform(2 * h, b - 2 * h, size=volterra.FD_SPOT_COUNT)
        seen = []
        rhs = RhsSpec(f=lambda t: t * t, fprime=lambda t: seen.append(t) or 2.0 * t)
        rhs.validate(b)
        np.testing.assert_array_equal(seen, want)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DomainError):
            RhsSpec.from_polynomial([])


class TestAssembleRhs:
    def test_constant_f_gives_kernel(self, classical_half):
        mesh = graded_mesh(64, 2.0, 1.0)
        F = assemble_rhs(classical_half.K, RhsSpec.from_polynomial([1.0]), mesh)
        np.testing.assert_allclose(
            F.values[1:], classical_half.K.eval(mesh.nodes[1:]), rtol=1e-12
        )
        assert np.isnan(F.values[0])

    def test_linear_f_closed_form(self, classical_half):
        mesh = graded_mesh(64, 2.0, 1.0)
        F = assemble_rhs(classical_half.K, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        np.testing.assert_allclose(
            F.values[1:], 2.0 * np.sqrt(mesh.nodes[1:]) / math.pi, rtol=1e-12
        )
        assert abs(F.values[-1] - TWO_OVER_PI) <= 1e-14
        assert F.values[0] == 0.0

    def test_quadratic_f_closed_form(self):
        K = power_kernel(1.0, 0.5, 1.0)
        mesh = graded_mesh(64, 2.0, 1.0)
        F = assemble_rhs(K, RhsSpec.from_polynomial([0.0, 0.0, 1.0]), mesh)
        exact = 8.0 / 3.0 * mesh.nodes[1:] ** 1.5
        np.testing.assert_allclose(F.values[1:], exact, rtol=1e-6)
        assert abs(F.values[-1] - 8.0 / 3.0) <= 1e-6


class TestSolveSecondKind:
    def test_zero_gprime_returns_F(self):
        mesh = graded_mesh(128, 2.0, 1.0)
        gp = SampledFunction(mesh=mesh, values=np.zeros(129))
        F = SampledFunction(mesh=mesh, values=np.cos(mesh.nodes))
        u = solve_second_kind(gp, F, mesh)
        np.testing.assert_array_equal(u.values, F.values)

    def test_exponential_decay_oracle(self):
        mesh = graded_mesh(512, 2.0, 1.0)
        gp = SampledFunction(mesh=mesh, values=np.ones(513))
        F = SampledFunction(mesh=mesh, values=np.ones(513))
        u = solve_second_kind(gp, F, mesh)
        assert abs(u.values[-1] - EXP_MINUS_1) <= 1e-4
        np.testing.assert_allclose(u.values[1:], np.exp(-mesh.nodes[1:]), atol=1e-4)

    def test_scaled_exponential_oracle(self):
        mesh = graded_mesh(512, 2.0, 0.5)
        gp = SampledFunction(mesh=mesh, values=np.full(513, 2.0))
        F = SampledFunction(mesh=mesh, values=np.ones(513))
        u = solve_second_kind(gp, F, mesh)
        assert abs(u.values[-1] - EXP_MINUS_1) <= 1e-4

    def test_ill_conditioned_step_detected(self):
        # a huge negative g' drives the diagonal through zero somewhere
        mesh = graded_mesh(8, 1.0, 1.0)
        w1 = 0.5 * (mesh.nodes[1] - mesh.nodes[0])
        gp = SampledFunction(mesh=mesh, values=np.full(9, -1.0 / w1))
        F = SampledFunction(mesh=mesh, values=np.ones(9))
        with pytest.raises(IllConditionedSystemError):
            solve_second_kind(gp, F, mesh)

    def test_mesh_mismatch_rejected(self):
        mesh = graded_mesh(8, 1.0, 1.0)
        other = graded_mesh(8, 2.0, 1.0)
        gp = SampledFunction(mesh=other, values=np.zeros(9))
        F = SampledFunction(mesh=mesh, values=np.ones(9))
        with pytest.raises(DomainError):
            solve_second_kind(gp, F, mesh)

    def test_eps_validation(self):
        mesh = graded_mesh(8, 1.0, 1.0)
        gp = SampledFunction(mesh=mesh, values=np.zeros(9))
        F = SampledFunction(mesh=mesh, values=np.ones(9))
        with pytest.raises(DomainError):
            solve_second_kind(gp, F, mesh, eps=0.99)
        with pytest.raises(DomainError):
            solve_second_kind(gp, F, mesh, eps=-0.1)


class TestSolveFirstKind:
    def test_classical_linear_f(self, classical_half):
        mesh = graded_mesh(1024, 3.0, 1.0)
        report = solve_first_kind(classical_half, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        ref = classical_solution(0.5, [0.0, 1.0], mesh.nodes[1:])
        sel = mesh.nodes[1:] >= 0.1
        rel = np.abs(report.u.values[1:][sel] - ref[sel]) / np.abs(ref[sel])
        assert np.max(rel) <= 1e-3
        assert abs(report.u.values[-1] - TWO_OVER_PI) <= 1e-3
        assert report.residual_second_kind <= 1e-10

    def test_classical_constant_f_recovers_associate(self, classical_half):
        mesh = graded_mesh(1024, 3.0, 1.0)
        report = solve_first_kind(classical_half, RhsSpec.from_polynomial([1.0]), mesh)
        i = int(np.argmin(np.abs(mesh.nodes - 0.25)))
        ref = 1.0 / (math.pi * math.sqrt(mesh.nodes[i]))
        assert abs(report.u.values[i] - ref) <= 1e-3 * ref
        assert np.isnan(report.u.values[0])
        assert math.isfinite(report.residual_first_kind)

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [1.0, 1.0]])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_classical_u_is_F_bit_for_bit(self, alpha, coeffs):
        """g' = 0 for a classical pair, so the sweep returns F as u, bit for
        bit: the folded f = 1 + t too, whose F(t_0) is NaN. The CLI's writer
        formats such twin columns once."""
        mesh = graded_mesh(256, 2.0, 0.5)
        pair = make_classical_abel_pair(alpha, 0.5)
        report = solve_first_kind(pair, RhsSpec.from_polynomial(coeffs), mesh)
        u, F = report.u.values, report.F.values
        assert u.dtype == F.dtype and u.shape == F.shape
        assert u.tobytes() == F.tobytes()
        assert np.isnan(F[0]) == bool(coeffs[0])

    def test_variable_u_differs_from_F(self, pair_a, mesh_512_half):
        report = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh_512_half)
        assert report.u.values.tobytes() != report.F.values.tobytes()

    def test_variable_profile_residual(self, pair_a):
        mesh = graded_mesh(1024, 2.0, 0.5)
        report = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        assert report.residual_first_kind <= 5e-3
        assert report.residual_second_kind <= 1e-12

    @pytest.mark.parametrize(
        "entry",
        [
            "solve_first_kind",
            "discover_associate",
            "stability_report",
            "convergence_study",
            "stability_report-bad-rhs",
        ],
    )
    def test_failing_pair_is_refused(self, entry):
        """Every entry point that transforms refuses a pair whose g(0+) is
        far from 1 (here g = k * k = pi). stability_report gates g(0+)
        before it checks the caller's data, so data whose fprime is not
        f's derivative is refused with the pair, not as data."""
        kk = power_kernel(1.0, 0.5, 1.0)
        pair = SoninePair(k=kk, K=kk)
        rhs, mesh = RhsSpec.from_polynomial([0.0, 1.0]), graded_mesh(64, 2.0, 1.0)
        bad = RhsSpec(f=lambda t: t, fprime=lambda t: 2.0 + 0.0 * t)
        with pytest.raises(DomainError, match="finite difference"):
            bad.validate(1.0)
        run = {
            "solve_first_kind": lambda: solve_first_kind(pair, rhs, mesh),
            "discover_associate": lambda: discover_associate(kk, kk, mesh),
            "stability_report": lambda: stability_report(pair, rhs, 1e-6, mesh),
            "convergence_study": lambda: convergence_study(pair, rhs, 64, 2.0),
            "stability_report-bad-rhs": lambda: stability_report(pair, bad, 1e-6, mesh),
        }[entry]
        with pytest.raises(GscConditionError):
            run()

    def test_linearity(self, pair_a, mesh_512_half):
        u1 = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh_512_half).u.values
        u2 = solve_first_kind(
            pair_a, RhsSpec.from_polynomial([0.0, 0.0, 1.0]), mesh_512_half
        ).u.values
        combo = solve_first_kind(
            pair_a, RhsSpec.from_polynomial([0.0, 2.0, -3.0]), mesh_512_half
        ).u.values
        expect = 2.0 * u1 - 3.0 * u2
        scale = np.maximum(1.0, np.abs(expect))
        assert np.max(np.abs(combo[1:] - expect[1:]) / scale[1:]) <= 1e-10

    def test_deterministic(self, pair_a, mesh_512_half):
        r1 = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh_512_half)
        r2 = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh_512_half)
        np.testing.assert_array_equal(r1.u.values[1:], r2.u.values[1:])
        assert r1.residual_first_kind == r2.residual_first_kind
        assert r1.residual_second_kind == r2.residual_second_kind

    def test_residual_refines_under_doubling(self, pair_a):
        residuals = []
        for n in (256, 512, 1024):
            mesh = graded_mesh(n, 2.0, 0.5)
            rep = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
            residuals.append(rep.residual_first_kind)
        assert residuals[1] <= residuals[0] / 1.5
        assert residuals[2] <= residuals[1] / 1.5


def _profile_less(pair):
    """The pair with k's exponent profile dropped, so g is known only
    pointwise, as for kernels given by samples."""
    return SoninePair(k=replace(pair.k, smooth_log_deriv=None), K=pair.K)


class TestSolveInputChecks:
    """A mesh past the pair's interval fails loudly, also for a classical
    pair, whose solve convolves nothing."""

    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_mesh_past_interval(self, which, classical_half, pair_a):
        pair = classical_half if which == "classical" else pair_a
        mesh = graded_mesh(64, 2.0, 2.0 * pair.b)
        rhs = RhsSpec.from_polynomial([0.0, 1.0])
        with pytest.raises(DomainError, match="exceeds"):
            solve_first_kind(pair, rhs, mesh)
        with pytest.raises(DomainError, match="exceeds"):
            discover_associate(pair.k, pair.K, mesh)
        with pytest.raises(DomainError, match="exceeds"):
            stability_report(pair, rhs, 1e-6, mesh)


class TestSolveReadsGateInputsOnly:
    """A solve measures only g(0+), g', its eps fit and its L1 norm, and
    gets exactly what a full check_gsc report gives."""

    @pytest.mark.parametrize("which", ["classical", "variable", "profile-less"])
    def test_same_as_with_full_report(self, which, classical_half, pair_a):
        pair = {
            "classical": classical_half,
            "variable": pair_a,
            "profile-less": _profile_less(pair_a),
        }[which]
        mesh = graded_mesh(128, 2.0, pair.b)
        rhs = RhsSpec.from_polynomial([0.0, 1.0, -0.5])
        got = solve_first_kind(pair, rhs, mesh)
        report = check_gsc(pair, mesh)
        eps = float(np.clip(report.eps_fit.eps, 0.0, sonine.EPS_CLIP_MAX))
        F = assemble_rhs(pair.K, rhs, mesh)
        np.testing.assert_array_equal(got.F.values, F.values)
        want = solve_second_kind(report.gprime, F, mesh, eps)
        np.testing.assert_array_equal(got.u.values, want.values)
        assert got.gprime_l1 == report.gprime_l1

    def test_no_g_on_the_mesh(self, monkeypatch, classical_half, pair_a):
        """Solves convolve no g, and evaluate the substituted g only at the
        eleven geometric times of the g(0+) fit; check_gsc convolves g once
        for a pair given pointwise, whose g' is differenced from it."""
        convolutions, substituted = [], []
        real_convolve, real_substituted = sonine.convolve_pair, sonine.compute_g_substituted

        def convolve(*args, **kwargs):
            convolutions.append(args)
            return real_convolve(*args, **kwargs)

        def substitute(pair, t, **kwargs):
            substituted.append(np.size(t))
            return real_substituted(pair, t, **kwargs)

        monkeypatch.setattr(sonine, "convolve_pair", convolve)
        monkeypatch.setattr(sonine, "compute_g_substituted", substitute)
        rhs = RhsSpec.from_polynomial([0.0, 1.0])
        for pair in (classical_half, pair_a):
            mesh = graded_mesh(128, 2.0, pair.b)
            solve_first_kind(pair, rhs, mesh)
            stability_report(pair, rhs, 1e-6, mesh)
            discover_associate(pair.k, pair.K, mesh)
        assert convolutions == []
        assert substituted == [11, 11, 11]
        check_gsc(_profile_less(pair_a), graded_mesh(128, 2.0, pair_a.b))
        assert len(convolutions) == 1


class TestHandBuiltPair:
    """A pair is its two kernels: SoninePair(k, K) built by hand, from a
    maker's kernels or from the same kernels built again, measures and
    solves as the maker's pair does, bit for bit."""

    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_same_report_and_solve_as_the_maker(self, which, classical_half, pair_a):
        made = classical_half if which == "classical" else pair_a
        sigma = made.k.local_exponent
        if which == "classical":
            k = classical_abel_kernel(sigma, made.b)
        else:
            k = variable_exponent_kernel(PROFILE_A, made.b)
        K = power_kernel(1.0 / kappa(sigma), 1.0 - sigma, made.b)
        mesh = graded_mesh(128, 2.0, made.b)
        rhs = RhsSpec.from_polynomial([1.0, 0.5])
        want_gsc, want = check_gsc(made, mesh), solve_first_kind(made, rhs, mesh)
        for pair in (SoninePair(made.k, made.K), SoninePair(k, K)):
            assert pair.is_classical == made.is_classical
            got_gsc, got = check_gsc(pair, mesh), solve_first_kind(pair, rhs, mesh)
            for name in ("g", "gprime"):
                np.testing.assert_array_equal(
                    getattr(got_gsc, name).values, getattr(want_gsc, name).values
                )
            for name in (
                "g0", "sc_residual", "g0_defect", "eps_fit", "gprime_l1", "route_diff", "gsc_pass"
            ):
                np.testing.assert_equal(getattr(got_gsc, name), getattr(want_gsc, name))
            for name in ("u", "F", "ku"):
                np.testing.assert_array_equal(
                    getattr(got, name).values, getattr(want, name).values
                )
            assert got.residual_first_kind == want.residual_first_kind
            assert got.residual_second_kind == want.residual_second_kind


class TestStabilityReport:
    def test_shift_is_the_response_to_delta_K(self, pair_a, mesh_512_half):
        """u + g' * u = F is linear and the shift moves F by dF = delta K,
        so the shift is the sweep of delta K alone, bit for bit, and the
        budget reads max |dF|."""
        delta, mesh = 1e-6, mesh_512_half
        report = stability_report(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), delta, mesh)
        gsc = check_gsc(pair_a, mesh)
        eps = float(np.clip(gsc.eps_fit.eps, 0.0, sonine.EPS_CLIP_MAX))
        dF = np.r_[np.nan, delta * pair_a.K.eval(mesh.nodes[1:])]
        du = solve_second_kind(gsc.gprime, SampledFunction(mesh=mesh, values=dF), mesh, eps)
        assert report.max_shift == np.max(np.abs(du.values[1:]))
        assert report.bound == math.exp(gsc.gprime_l1) * np.max(dF[1:])
        assert report.gprime_l1 == gsc.gprime_l1

    def test_shift_does_not_depend_on_f(self, pair_a):
        """Data with f(0) = 0, with f(0) != 0 and of degree 2 move u alike
        under f -> f + delta. Two solves, of f and of f + delta, differ
        here for f = t by 1.05e-3 relative: only the second folds the
        first panel onto node 1, and that change of discretisation is no
        response to the data."""
        mesh = graded_mesh(128, 2.0, pair_a.b)
        shifts = [
            stability_report(pair_a, RhsSpec.from_polynomial(coeffs), 1e-6, mesh).max_shift
            for coeffs in ([0.0, 1.0], [1.0, 0.5], [0.3, -1.0, 2.0])
        ]
        assert shifts[1] == pytest.approx(shifts[0], rel=1e-9, abs=0.0)
        assert shifts[2] == pytest.approx(shifts[0], rel=1e-9, abs=0.0)

    def test_sweep_and_budget_clip_eps_alike(self):
        # the budget's L1 norm of g' is valid only for the sweep's own eps
        assert volterra.EPS_CLIP_MAX is sonine.EPS_CLIP_MAX

    @pytest.mark.parametrize("which", ["paper", "classical"])
    def test_budget_and_sweep_share_one_eps(self, which, pair_a, classical_half, monkeypatch):
        """The gate clips the fitted eps once: the sweep gets that float,
        and the L1 norm of g' is the one whose weights are built at
        beta = 1 - eps. The weights here are each panel's moments of
        s^(beta-1) against its two hat functions, summed by fsum."""
        pair = pair_a if which == "paper" else classical_half
        mesh = graded_mesh(128, 2.0, pair.b)
        gate = sonine._gate_inputs(pair, mesh)
        assert gate.eps == np.clip(gate.eps_fit.eps, 0.0, sonine.EPS_CLIP_MAX)
        assert (gate.eps > 0.0) == (which == "paper")
        swept = []
        real = volterra._forward_sweep

        def recording(gprime, F, mesh, eps):
            swept.append(eps)
            return real(gprime, F, mesh, eps)

        monkeypatch.setattr(volterra, "_forward_sweep", recording)
        solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        assert swept == [gate.eps]
        beta = 1.0 - gate.eps
        nodes = mesh.nodes.tolist()
        m = [0.0] + [abs(g) * t**gate.eps for g, t in zip(gate.gprime.values[1:], nodes[1:])]
        terms = []
        for j, (a, c) in enumerate(zip(nodes, nodes[1:])):
            i0 = (c**beta - a**beta) / beta  # int_a^c s^(beta-1) ds
            i1 = (c ** (beta + 1.0) - a ** (beta + 1.0)) / (beta + 1.0)  # of s^beta
            terms += [(c * i0 - i1) / (c - a) * m[j], (i1 - a * i0) / (c - a) * m[j + 1]]
        assert gate.gprime_l1 == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)


def _second_kind_row_residual(report, gsc, mesh):
    """Max relative row residual of the discrete second-kind system for the
    report's u, with the system rebuilt from public weights.

    Row i reads sum_j w_ij m(t_i - t_j) u_j + u_i = F_i, where w_i are the
    product weights of the lag power tau^(-eps) (trapezoid weights when
    eps = 0) and m(tau) = g'(tau) tau^eps is interpolated linearly at the
    lags. When F(t_0) is undefined, the coefficient of u_0 is folded onto
    u_1.
    """
    nodes, u, F = mesh.nodes, report.u.values, report.F.values
    eps = float(np.clip(gsc.eps_fit.eps, 0.0, 0.95))
    m = np.empty(mesh.N + 1)
    m[1:] = gsc.gprime.values[1:] * nodes[1:] ** eps
    m[0] = 0.0 if eps > 0.0 else gsc.gprime.values[0]
    assert np.all(np.isfinite(m))
    fold = not np.isfinite(F[0])
    worst = 0.0
    for i in range(1, mesh.N + 1):
        if eps > 0.0:
            w = product_weights(mesh, i, 1.0 - eps)
        else:
            h = np.diff(nodes[: i + 1])
            w = np.concatenate(([0.0], h)) / 2.0 + np.concatenate((h, [0.0])) / 2.0
        row = w * np.interp(nodes[i] - nodes[: i + 1], nodes, m)
        if fold:
            row[1] += row[0]
            row[0] = 0.0
        lo = 1 if fold else 0
        r = math.fsum(row[lo:] * u[lo : i + 1]) + u[i] - F[i]
        worst = max(worst, abs(r) / max(1.0, abs(F[i]), abs(u[i])))
    return worst


class TestSecondKindResidual:
    """residual_second_kind comes from the forward-substitution sweep
    itself; it must be the row residual of an independently built system."""

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [1.0, 0.5]], ids=["f0=0", "f0=1"])
    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_matches_independent_system(self, which, coeffs, classical_half, pair_a):
        pair = classical_half if which == "classical" else pair_a
        mesh = graded_mesh(128, 2.0, pair.b)
        gsc = check_gsc(pair, mesh)
        report = solve_first_kind(pair, RhsSpec.from_polynomial(coeffs), mesh)
        assert np.isfinite(report.F.values[0]) == (coeffs[0] == 0.0)
        want = _second_kind_row_residual(report, gsc, mesh)
        assert want <= 1e-13  # u solves the rebuilt system to roundoff
        assert abs(report.residual_second_kind - want) <= 1e-15


class TestConvergenceStudy:
    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_errors_are_those_of_per_level_solves(self, which, classical_half, pair_a):
        """Each level's error is that of solve_first_kind's u against the
        closed form (classical) or the solve at 2N, bit for bit."""
        pair = classical_half if which == "classical" else pair_a
        rhs = RhsSpec.from_polynomial([0.0, 1.0])
        report = convergence_study(pair, rhs, 64, 2.0)
        assert report.N == (8, 16, 32, 64)
        fine = solve_first_kind(pair, rhs, graded_mesh(128, 2.0, pair.b)).u.values
        for n, err in zip(report.N, report.max_err):
            mesh = graded_mesh(n, 2.0, pair.b)
            u = solve_first_kind(pair, rhs, mesh).u.values[1:]
            if which == "classical":
                ref = classical_solution(0.5, [0.0, 1.0], mesh.nodes[1:])
            else:
                ref = fine[128 // n :: 128 // n]
            window = mesh.nodes[1:] >= pair.b / 10.0
            assert err == float(np.max(np.abs(u[window] - ref[window]) / np.abs(ref[window])))
        assert math.isnan(report.order[0]) and len(report.order) == 4

    def test_solves_without_push_back(self, monkeypatch, pair_a):
        """Only u enters the errors: no level pushes u back through k * u,
        and a variable pair sweeps five times (four levels and 2N)."""
        sweeps = []
        real = volterra._forward_sweep

        def counting(gprime, Fs, mesh, eps):
            sweeps.append(mesh.N)
            return real(gprime, Fs, mesh, eps)

        def no_push_back(*args):
            raise AssertionError("convergence_study pushed u back through k * u")

        monkeypatch.setattr(volterra, "_forward_sweep", counting)
        monkeypatch.setattr(volterra, "_first_kind_residual", no_push_back)
        report = convergence_study(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), 64, 2.0)
        assert sorted(sweeps) == [8, 16, 32, 64, 128]
        assert report.max_err[-1] < report.max_err[0] and report.fitted_order > 0.8

    @pytest.mark.parametrize("N, match", [(8, "too small"), (100, "divisible")])
    def test_levels_must_nest(self, N, match, pair_a):
        with pytest.raises(DomainError, match=match):
            convergence_study(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), N, 2.0)


class TestDiscoverAssociate:
    def test_classical_shortcut_is_exact(self, classical_half):
        mesh = graded_mesh(256, 2.0, 1.0)
        report = discover_associate(classical_half.k, classical_half.K, mesh)
        ref = classical_half.K.eval(mesh.nodes[1:])
        assert np.max(np.abs(report.u.values[1:] - ref)) <= 1e-6
        assert report.sc_residual_of_u is not None

    def test_variable_profile_recovers_classical_condition(self, pair_a):
        mesh = graded_mesh(1024, 2.0, 0.5)
        report = discover_associate(pair_a.k, pair_a.K, mesh)
        assert report.sc_residual_of_u <= 5e-3

    def test_second_profile(self, pair_b):
        mesh = graded_mesh(1024, 2.0, 0.5)
        report = discover_associate(pair_b.k, pair_b.K, mesh)
        assert report.sc_residual_of_u <= 5e-3

    def test_residual_equivalence(self, pair_a, mesh_512_half):
        """The recovered kernel's condition residual is the solve residual."""
        report = discover_associate(pair_a.k, pair_a.K, mesh_512_half)
        assert report.sc_residual_of_u <= 10.0 * report.residual_first_kind

    def test_push_back_uses_the_known_order(self, pair_a, monkeypatch):
        """u ~ t^(alpha(0) - 1) for f = 1, so the push-back wraps u with
        order 1 - k.local_exponent rather than fitting it from two nodes."""
        orders = []
        wrapped = KernelSpec.from_samples

        def recording(phi, sing_exponent=None):
            orders.append(sing_exponent)
            return wrapped(phi, sing_exponent)

        monkeypatch.setattr(KernelSpec, "from_samples", staticmethod(recording))
        discover_associate(pair_a.k, pair_a.K, graded_mesh(128, 2.0, 0.5))
        assert orders == [1.0 - pair_a.k.local_exponent]

    def test_hand_built_associate_is_swept(self):
        """Kg = (1 + t) t^(-1/2) / kappa(1/2) shares the classical associate's
        order and its value at 0 but is not a power, so its g' is not 0 and
        u must come from the sweep; taking u = F read sc_residual_of_u 0.25."""
        b = 0.5
        kap = kappa(0.5)
        Kg = KernelSpec(
            smooth_fn=lambda t: (1.0 + np.asarray(t, dtype=float)) / kap,
            smooth0=1.0 / kap,
            local_exponent=0.5,
            b=b,
        )
        report = discover_associate(classical_abel_kernel(0.5, b), Kg, graded_mesh(512, 2.0, b))
        assert not np.array_equal(report.u.values[1:], report.F.values[1:])
        assert report.sc_residual_of_u <= 1e-3

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_plain_power_k_is_classical(self, alpha):
        """A pure power k with the classical associate is a classical pair
        whatever built it: u = F, as for classical_abel_kernel, with no sweep."""
        b = 0.5
        mesh = graded_mesh(512, 2.0, b)
        K = power_kernel(1.0 / kappa(alpha), 1.0 - alpha, b)
        plain = discover_associate(power_kernel(1.0, alpha, b), K, mesh)
        classical = discover_associate(classical_abel_kernel(alpha, b), K, mesh)
        np.testing.assert_array_equal(plain.u.values, classical.u.values)
        assert plain.sc_residual_of_u == classical.sc_residual_of_u
        assert plain.residual_second_kind == 0.0 and plain.gprime_l1 == 0.0

    def test_associate_vanishing_at_0_is_refused(self):
        """Kg = t^(1/2) written as t^(-1/2) * t has smooth0 = 0, so no kappa
        normalises it; that is a DomainError, not a division by zero."""
        b = 0.5
        Kg = KernelSpec(
            smooth_fn=lambda t: np.asarray(t, dtype=float),
            smooth0=0.0,
            local_exponent=0.5,
            b=b,
        )
        with pytest.raises(DomainError, match="vanishes at 0"):
            discover_associate(classical_abel_kernel(0.5, b), Kg, graded_mesh(64, 2.0, b))

    def test_interval_mismatch_rejected(self, classical_half):
        other = power_kernel(1.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            discover_associate(classical_half.k, other, graded_mesh(64, 2.0, 1.0))


class TestStabilityProbe:
    def test_classical_shift_is_linear(self, classical_half, mesh_512_unit):
        delta = 1e-6
        got = stability_probe(
            classical_half, RhsSpec.from_polynomial([0.0, 1.0]), delta, mesh_512_unit
        )
        # u = F for a classical pair, so the largest shift is delta K(t_1)
        expect = delta * classical_half.K.eval(mesh_512_unit.nodes[1])
        assert abs(got - expect) <= 1e-6 * max(1.0, expect)

    def test_gronwall_budget_classical(self, classical_half, mesh_512_unit):
        delta = 1e-6
        report = check_gsc(classical_half, mesh_512_unit)
        got = stability_probe(
            classical_half, RhsSpec.from_polynomial([0.0, 1.0]), delta, mesh_512_unit
        )
        bound = (
            math.exp(report.gprime_l1)
            * delta
            * classical_half.K.eval(mesh_512_unit.nodes[1])
        )
        assert got <= bound * (1.0 + 1e-9)

    def test_gronwall_budget_variable(self, pair_a, mesh_512_half):
        delta = 1e-6
        report = check_gsc(pair_a, mesh_512_half)
        got = stability_probe(
            pair_a, RhsSpec.from_polynomial([0.0, 1.0]), delta, mesh_512_half
        )
        bound = (
            math.exp(report.gprime_l1) * delta * pair_a.K.eval(mesh_512_half.nodes[1])
        )
        assert got <= bound

    def test_delta_validation(self, classical_half, mesh_512_unit):
        for bad in (0.0, -1e-6, float("nan")):
            with pytest.raises(DomainError):
                stability_probe(
                    classical_half, RhsSpec.from_polynomial([0.0, 1.0]), bad, mesh_512_unit
                )


class TestClassicalSolution:
    def test_linear_f(self):
        ts = np.array([0.04, 0.25, 1.0])
        np.testing.assert_allclose(
            classical_solution(0.5, [0.0, 1.0], ts), 2.0 * np.sqrt(ts) / math.pi, rtol=1e-14
        )

    def test_constant_f_gives_associate(self):
        ts = np.array([0.04, 0.25, 1.0])
        np.testing.assert_allclose(
            classical_solution(0.5, [1.0], ts), ts**-0.5 / math.pi, rtol=1e-14
        )

    def test_solves_the_equation(self):
        """k * u computed adaptively must reproduce f for a cubic f."""
        scipy_integrate = pytest.importorskip("scipy.integrate")
        alpha, coeffs = 0.3, [0.0, 1.0, -0.5, 0.25]
        for t in (0.3, 0.8):
            val, _ = scipy_integrate.quad(
                lambda s, _t=t: classical_solution(alpha, coeffs, s), 0.0, t,
                weight="alg", wvar=(0.0, -alpha), limit=200,
            )
            f_t = sum(c * t**k for k, c in enumerate(coeffs))
            assert abs(val - f_t) <= 1e-8 * max(1.0, abs(f_t))

    def test_any_degree_against_mpmath(self):
        """Degree 60 takes k! / Gamma(k + alpha) past gamma's range (50)."""
        mp = pytest.importorskip("mpmath")
        alpha, ts = 0.3, [0.2, 0.7, 1.0]
        for coeffs in ([0.0] * 60 + [1.0], [1.0 / (k + 1) for k in range(61)]):
            got = classical_solution(alpha, coeffs, np.array(ts))
            with mp.workdps(40):
                a = mp.mpf(alpha)
                for t, g in zip(ts, got):
                    want = mp.fsum(
                        mp.mpf(c) * mp.factorial(k) / mp.gamma(k + a) * mp.mpf(t) ** (k + a - 1)
                        for k, c in enumerate(coeffs)
                    ) / mp.gamma(1 - a)
                    assert abs(g - want) <= 1e-13 * abs(want)

    def test_validation(self):
        with pytest.raises(DomainError):
            classical_solution(1.5, [1.0], 0.5)
        with pytest.raises(DomainError):
            classical_solution(0.5, [], 0.5)
        with pytest.raises(DomainError):
            classical_solution(0.5, [1.0], 0.0)


class TestRhsArrayEvaluation:
    """``RhsSpec.eval``/``eval_fprime`` call f once on the whole array where
    f takes arrays, and once per element where it does not."""

    def test_polynomial_is_one_call_and_bitwise_per_element(self):
        calls = []
        poly = RhsSpec.from_polynomial([0.5, -1.0, 2.0, 0.25])
        rhs = RhsSpec(
            f=lambda t: calls.append("f") or poly.f(t),
            fprime=lambda t: calls.append("fprime") or poly.fprime(t),
        )
        ts = graded_mesh(300, 2.0, 0.5).nodes
        calls.clear()
        got_f, got_fp = rhs.eval(ts), rhs.eval_fprime(ts)
        assert calls == ["f", "fprime"]
        np.testing.assert_array_equal(got_f, [float(poly.f(v)) for v in ts])
        np.testing.assert_array_equal(got_fp, [float(poly.fprime(v)) for v in ts])

    def test_scalar_only_callables_fall_back(self):
        rhs = RhsSpec(f=lambda t: math.sin(t), fprime=lambda t: math.cos(t))
        ts = np.array([[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(rhs.eval(ts), [[math.sin(v) for v in row] for row in ts])
        np.testing.assert_array_equal(rhs.eval_fprime(ts), [[math.cos(v) for v in row] for row in ts])
        assert rhs.eval(0.5) == math.sin(0.5)

    def test_constant_data_fill_the_array(self):
        rhs = RhsSpec(f=lambda t: 2.0, fprime=lambda t: 0.0)
        np.testing.assert_array_equal(rhs.eval(np.linspace(0.0, 1.0, 5)), np.full(5, 2.0))
        np.testing.assert_array_equal(rhs.eval_fprime(np.linspace(0.0, 1.0, 5)), np.zeros(5))
