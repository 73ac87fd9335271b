"""First-kind solves, the second-kind transformation, and discovery."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import sonine_kit.kernels as kernels
import sonine_kit.sonine as sonine
import sonine_kit.volterra as volterra
from conftest import EXP_MINUS_1, PROFILE_A, TWO_OVER_PI, two_term_pair
from sonine_kit import (
    DomainError,
    GscConditionError,
    IllConditionedSystemError,
    KernelSpec,
    Mesh,
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
        h = kernels.FD_STEP_FRAC * b
        want = np.random.default_rng(160693).uniform(2 * h, b - 2 * h, size=kernels.FD_SPOT_COUNT)
        seen = []
        rhs = RhsSpec(f=lambda t: t * t, fprime=lambda t: seen.append(t) or 2.0 * t)
        rhs.validate(b)
        np.testing.assert_array_equal(np.ravel(seen), want)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DomainError):
            RhsSpec.from_polynomial([])

    def test_polynomial_data_are_checked_for_overflow(self):
        """The derivative of polynomial data is exact, so validate checks
        that f and f' cannot overflow on [0, b]: the sum of each one's
        terms' magnitudes at b is a finite float."""
        cube = RhsSpec.from_polynomial([0.0, 0.0, 0.0, 1.0])
        cube.validate(1e102)  # no raise
        with pytest.raises(DomainError, match=r"polynomial f overflows on \[0, 1e\+103\]"):
            cube.validate(1e103)
        # finite values on [0, 1], but not the sum of the magnitudes
        with pytest.raises(DomainError, match="polynomial f overflows"):
            RhsSpec.from_polynomial([1e308, -1e308]).validate(1.0)
        with pytest.raises(DomainError, match="polynomial fprime overflows"):
            RhsSpec.from_polynomial([0.0, 0.0, 1e308]).validate(0.25)

    def test_polynomials_with_a_wrong_derivative_are_spot_checked(self):
        square, wrong = volterra._Polynomial((0.0, 0.0, 1.0)), volterra._Polynomial((0.0, 3.0))
        rhs = RhsSpec(f=square, fprime=wrong)
        with pytest.raises(DomainError, match="fprime disagrees"):
            rhs.validate(1.0)


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
    def test_power_blow_up_sweeps_with_its_limit(self):
        """The two-term pair (0.9, 0.3, 2, 0.5) has g' = 2 t^(-0.1) /
        Gamma(0.9). Its sweep reads m(0) = C from the model of g' near 0,
        and f = t solves to a first-kind residual of 2.3e-5 at N = 128;
        with m(0) = 0, right only for a log blow-up, it read 3.1e-3."""
        pair = two_term_pair(0.9, 0.3, 2.0, 0.5)
        mesh = graded_mesh(128, 2.0, 0.5)
        report = solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        assert report.residual_first_kind <= 1e-4

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
            "stability_probe-bad-rhs",
        ],
    )
    def test_failing_pair_is_refused(self, entry):
        """Every entry point that transforms refuses a pair whose g(0+) is
        far from 1 (here g = k * k = pi). stability_probe gates g(0+)
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
            "stability_report": lambda: stability_report(pair, 1e-6, mesh),
            "convergence_study": lambda: convergence_study(pair, rhs, 64, 2.0),
            "stability_probe-bad-rhs": lambda: stability_probe(pair, bad, 1e-6, mesh),
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

    @pytest.mark.parametrize(
        "a0, a1, r, N",
        [(0.5, 0.4, 1.0, 16), (0.1, 0.6, 1.0, 32), (0.1, 0.6, 1.5, 16), (0.1, 0.6, 2.0, 8)],
    )
    def test_coarse_and_uniform_meshes_solve(self, a0, a1, r, N):
        """Steep profiles on (0, 1] on uniform and coarse meshes pass the
        gate: g(0+) reads at most 4.7e-4 here (a model of g' whose error
        spreads over every panel, s^(-eps) times a line, read 0.049 to
        0.26), and f = t gives first-kind residuals of 0.011, 0.0099, 0.042
        and 0.080, as when g(0+) was fitted to g at geometric times."""
        pair = make_variable_exponent_pair(affine_exponent(a0, a1, 1.0), 1.0)
        result = solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), graded_mesh(N, r, 1.0))
        assert result.residual_first_kind <= 0.1

    def test_two_term_pair_past_the_eps_margin_solves(self):
        """The two-term pair (a, beta, lambda) = (0.3, 0.5, 1) on (0, 1] has
        g(0) = 1 exactly but eps = 0.7 past check_gsc's margin. The fit of g
        at geometric times read its g(0+) 0.138 off, so the gate refused it;
        with f = t the residual reads 0.129, 0.085 and 0.056."""
        pair = two_term_pair(0.3, 0.5, 1.0, 1.0)
        rhs = RhsSpec.from_polynomial([0.0, 1.0])
        residuals = [
            solve_first_kind(pair, rhs, graded_mesh(n, 2.0, 1.0)).residual_first_kind
            for n in (128, 512, 2048)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 0.06


def _profile_less(pair):
    """The pair with k's exponent profile dropped, so g' has no rule."""
    return SoninePair(k=replace(pair.k, smooth_log_deriv=None), K=pair.K)


class TestSolveInputChecks:
    """A mesh past the pair's interval fails loudly, also for a classical
    pair, whose solve convolves nothing; so do a mesh of one panel and a
    kernel that is not finite."""

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
            stability_report(pair, 1e-6, mesh)

    @pytest.mark.parametrize("which", ["classical", "variable"])
    def test_one_panel_mesh_is_refused(self, which, classical_half, pair_a):
        """The g(0+) reading's model of g' goes through two interior nodes."""
        pair = classical_half if which == "classical" else pair_a
        mesh = Mesh(nodes=np.array([0.0, pair.b]))
        with pytest.raises(DomainError, match="two interior nodes"):
            check_gsc(pair, mesh)
        with pytest.raises(DomainError, match="two interior nodes"):
            solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), mesh)

    @pytest.mark.parametrize(
        "route, nan_below, message",
        [
            ("pointwise", False, "smooth_log_deriv"),
            ("substituted", False, "smooth_log_deriv / t disagrees"),
            ("substituted", True, "g at the first node"),
        ],
    )
    def test_non_finite_kernel_is_refused(self, route, nan_below, message):
        """A k whose bounded factor is NaN past b/2 makes g NaN there. Given
        pointwise, it is refused before anything is convolved, since its g'
        has no rule. With a t S'(t), the kernel is refused as it is built:
        the spot-check of t S'(t) against S meets the NaN. NaN below
        b/1000, under every spot point, makes g at the first node NaN,
        which the gate refuses before anything reads a g(0+) from it.
        check_gsc refuses as the solve does."""
        b = 0.5

        def smooth(t):
            t = np.asarray(t)
            return np.where(t < b / 1000 if nan_below else t > b / 2, np.nan, np.exp(-t))

        def build():
            return KernelSpec(
                smooth_fn=smooth,
                smooth0=1.0,
                local_exponent=0.5,
                b=b,
                smooth_log_deriv=(lambda t: -t * np.exp(-t)) if route == "substituted" else None,
            )

        if route == "substituted" and not nan_below:
            with pytest.raises(DomainError, match=message):
                build()
            return
        k = build()
        pair = SoninePair(k=k, K=power_kernel(1.0 / kappa(0.5), 0.5, b))
        mesh = graded_mesh(64, 2.0, b)
        with pytest.raises(DomainError, match=message):
            check_gsc(pair, mesh)
        with pytest.raises(DomainError, match=message):
            solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), mesh)


class TestSolveReadsGateInputsOnly:
    """A solve measures only g(0+), g', its near-origin model and its L1
    norm, and gets exactly what a full check_gsc report gives."""

    @pytest.mark.parametrize("which", ["classical", "variable", "profile-less", "two-term"])
    def test_same_as_with_full_report(self, which, classical_half, pair_a):
        """The sweep reads the gate's factored g'. For a log or bounded g'
        that is solve_second_kind's m(0) rule at the gate's eps; a power
        blow-up's m(0) is the model's limit instead. A pair without k's
        t S'(t) is refused by both."""
        pair = {
            "classical": classical_half,
            "variable": pair_a,
            "profile-less": _profile_less(pair_a),
            "two-term": two_term_pair(0.7, 0.5, 1.0, 1.0),
        }[which]
        mesh = graded_mesh(128, 2.0, pair.b)
        rhs = RhsSpec.from_polynomial([0.0, 1.0, -0.5])
        if which == "profile-less":
            for run in (lambda: solve_first_kind(pair, rhs, mesh), lambda: check_gsc(pair, mesh)):
                with pytest.raises(DomainError, match="smooth_log_deriv"):
                    run()
            return
        got = solve_first_kind(pair, rhs, mesh)
        report = check_gsc(pair, mesh)
        gate = sonine._gate_inputs(pair, mesh)
        np.testing.assert_array_equal(gate.gprime.values, report.gprime.values)
        assert gate.eps_fit == report.eps_fit
        F = assemble_rhs(pair.K, rhs, mesh)
        np.testing.assert_array_equal(got.F.values, F.values)
        want, _ = volterra._forward_sweep(gate.m, F, mesh, gate.eps)
        np.testing.assert_array_equal(got.u.values, want.values)
        assert got.gprime_l1 == report.gprime_l1
        public = solve_second_kind(report.gprime, F, mesh, gate.eps)
        if which == "two-term":
            assert gate.eps == report.eps_fit.eps and gate.m.values[0] == report.eps_fit.C > 0.0
            assert not np.array_equal(got.u.values, public.values)
        else:
            np.testing.assert_array_equal(got.u.values, public.values)

    def test_no_g_on_the_mesh(self, monkeypatch, classical_half, pair_a):
        """Solves convolve no g, and evaluate g once, at the first node t_1,
        where g(0+) is read as g(t_1) minus the integral of g' over [0,
        t_1]; check_gsc refuses a pair given pointwise, whose g' has no
        rule, before it convolves anything. Rows of the rule on K * k are
        counted: g' and the rule's error on k's leading term convolve other
        kernels."""
        profile_less = _profile_less(pair_a)
        g_rows = []
        real = sonine._pair_convolution

        def counting(K, k, t, M):
            if any(k is pair.k for pair in (classical_half, pair_a, profile_less)):
                g_rows.append(np.asarray(t).tolist())
            return real(K, k, t, M)

        monkeypatch.setattr(sonine, "_pair_convolution", counting)
        rhs = RhsSpec.from_polynomial([0.0, 1.0])
        for pair in (classical_half, pair_a):
            mesh = graded_mesh(128, 2.0, pair.b)
            solve_first_kind(pair, rhs, mesh)
            stability_report(pair, 1e-6, mesh)
            discover_associate(pair.k, pair.K, mesh)
        mesh = graded_mesh(128, 2.0, pair_a.b)
        assert g_rows == [[mesh.nodes[1]]] * 3
        g_rows.clear()
        with pytest.raises(DomainError, match="smooth_log_deriv"):
            check_gsc(profile_less, mesh)
        assert g_rows == []


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
        report = stability_report(pair_a, delta, mesh)
        gate = sonine._gate_inputs(pair_a, mesh)
        dF = np.r_[np.nan, delta * pair_a.K.eval(mesh.nodes[1:])]
        dF_s = SampledFunction(mesh=mesh, values=dF)
        du, _ = volterra._forward_sweep(gate.m, dF_s, mesh, gate.eps)
        assert report.max_shift == np.max(np.abs(du.values[1:]))
        assert report.bound == math.exp(gate.gprime_l1) * np.max(dF[1:])
        assert report.gprime_l1 == check_gsc(pair_a, mesh).gprime_l1

    def test_sweep_and_budget_clip_eps_alike(self):
        # the budget's L1 norm of g' is valid only for the sweep's own eps
        assert volterra.EPS_CLIP_MAX is sonine.EPS_CLIP_MAX

    @pytest.mark.parametrize("which", ["paper", "classical", "two-term"])
    def test_budget_and_sweep_share_one_eps(self, which, pair_a, classical_half, monkeypatch):
        """The gate factors g' once, as t^(-eps) m(t): the sweep gets that
        eps and that m, and the L1 norm of g' is the one whose weights are
        built at beta = 1 - eps. eps is the window slope of a log-singular
        g' (the paper pair) with m(0) = 0, 0 for the classical g' = 0, and
        a power blow-up's own eps = 1 - a with m(0) its limit C (the
        two-term pair). The weights here are each panel's moments of
        s^(beta-1) against its two hat functions, summed by fsum."""
        pair = {"paper": pair_a, "classical": classical_half}.get(which)
        pair = pair or two_term_pair(0.7, 0.5, 1.0, 1.0)
        mesh = graded_mesh(128, 2.0, pair.b)
        gate = sonine._gate_inputs(pair, mesh)
        eps, m0 = {
            "paper": (gate.eps, 0.0),
            "classical": (0.0, 0.0),
            "two-term": (gate.eps_fit.eps, gate.eps_fit.C),
        }[which]
        assert gate.eps == eps and gate.m.values[0] == m0
        assert 0.0 < gate.eps < sonine.EPS_CLIP_MAX or which == "classical"
        if which == "two-term":
            assert abs(gate.eps - 0.3) <= 1e-6
        np.testing.assert_array_equal(
            gate.m.values[1:], gate.gprime.values[1:] * mesh.nodes[1:] ** gate.eps
        )
        swept = []
        real = volterra._forward_sweep

        def recording(m, F, mesh, eps):
            swept.append((m, eps))
            return real(m, F, mesh, eps)

        monkeypatch.setattr(volterra, "_forward_sweep", recording)
        solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        assert [eps for _, eps in swept] == [gate.eps]
        np.testing.assert_array_equal(swept[0][0].values, gate.m.values)
        beta = 1.0 - gate.eps
        nodes, m = mesh.nodes.tolist(), np.abs(gate.m.values).tolist()
        terms = []
        for j, (a, c) in enumerate(zip(nodes, nodes[1:])):
            i0 = (c**beta - a**beta) / beta  # int_a^c s^(beta-1) ds
            i1 = (c ** (beta + 1.0) - a ** (beta + 1.0)) / (beta + 1.0)  # of s^beta
            terms += [(c * i0 - i1) / (c - a) * m[j], (i1 - a * i0) / (c - a) * m[j + 1]]
        assert gate.gprime_l1 == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)


def _second_kind_row_residual(report, gate, mesh):
    """Max relative row residual of the discrete second-kind system for the
    report's u, with the system rebuilt from public weights.

    Row i reads sum_j w_ij m(t_i - t_j) u_j + u_i = F_i, where w_i are the
    product weights of the lag power tau^(-eps) (trapezoid weights when
    eps = 0) and m(tau) = g'(tau) tau^eps, the gate's, is interpolated
    linearly at the lags. When F(t_0) is undefined, the coefficient of u_0
    is folded onto u_1.
    """
    nodes, u, F = mesh.nodes, report.u.values, report.F.values
    eps, m = gate.eps, gate.m.values
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
        gate = sonine._gate_inputs(pair, mesh)
        report = solve_first_kind(pair, RhsSpec.from_polynomial(coeffs), mesh)
        assert np.isfinite(report.F.values[0]) == (coeffs[0] == 0.0)
        want = _second_kind_row_residual(report, gate, mesh)
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

        def counting(m, Fs, mesh, eps):
            sweeps.append(mesh.N)
            return real(m, Fs, mesh, eps)

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


#: max |u - t| of the variable solve of the manufactured u = t on nested
#: r = 2 meshes of (0, 0.5] at N = MANUFACTURED_SIZES, per affine profile
#: (a0, a1) of k = t^(-(a0 + a1 t))
MANUFACTURED_SIZES = (128, 256, 512, 1024)
MANUFACTURED = {
    (0.5, 0.2): (1.052e-3, 5.881e-4, 3.245e-4, 1.774e-4),
    (0.4, 0.4): (2.391e-3, 1.334e-3, 7.358e-4, 4.022e-4),
    (0.3, 0.6): (3.925e-3, 2.188e-3, 1.206e-3, 6.596e-4),
}


def manufactured_rhs(a0, a1):
    """The data of u = t for k = t^(-(a0 + a1 t)): f(t) = int_0^t (t - x)
    k(x) dx and f'(t) = int_0^t k(x) dx, from scipy's quad with the
    algebraic weight x^(-a0) (t - x)^p, p = 1 and 0, against k's bounded
    factor x^(-a1 x) written out here. Each time is integrated once, so
    nested meshes share their nodes' values."""
    quad = pytest.importorskip("scipy.integrate").quad
    cache = {0.0: (0.0, 0.0)}

    def moments(t):
        if t not in cache:
            cache[t] = tuple(
                quad(lambda x: x ** (-a1 * x), 0.0, t, weight="alg", wvar=(-a0, p),
                     epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for p in (1.0, 0.0)
            )
        return cache[t]

    def by_quad(i):
        return lambda t: np.vectorize(lambda s: moments(float(s))[i], otypes=[float])(t)

    return RhsSpec(f=by_quad(0), fprime=by_quad(1))


@pytest.fixture(scope="module")
def manufactured_errors():
    """max |u - t| per profile of MANUFACTURED, at each of MANUFACTURED_SIZES."""
    out = {}
    for a0, a1 in MANUFACTURED:
        pair = make_variable_exponent_pair(affine_exponent(a0, a1, 0.5), 0.5)
        rhs = manufactured_rhs(a0, a1)
        out[a0, a1] = [
            float(np.max(np.abs(solve_first_kind(pair, rhs, mesh).u.values - mesh.nodes)))
            for mesh in (graded_mesh(N, 2.0, 0.5) for N in MANUFACTURED_SIZES)
        ]
    return out


class TestManufacturedSolution:
    """u = t against its variable solves: the oracle is the data, built by
    adaptive quadrature outside the package. The floor is linear
    interpolation of g', which is log-singular at 0, so the order is
    below 1 (0.84-0.87)."""

    @pytest.mark.parametrize("profile", list(MANUFACTURED))
    def test_error_and_order(self, profile, manufactured_errors):
        errs = manufactured_errors[profile]
        np.testing.assert_allclose(errs, MANUFACTURED[profile], rtol=0.05)
        orders = np.log2(np.divide(errs[:-1], errs[1:]))
        assert orders.min() >= 0.8, orders


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
        u must come from the sweep; taking u = F read sc_residual_of_u 0.25.
        Its t A'(t) = t / kappa(1/2) gives g' its rule."""
        b = 0.5
        kap = kappa(0.5)
        Kg = KernelSpec(
            smooth_fn=lambda t: (1.0 + np.asarray(t, dtype=float)) / kap,
            smooth0=1.0 / kap,
            local_exponent=0.5,
            b=b,
            smooth_log_deriv=lambda t: np.asarray(t, dtype=float) / kap,
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
    def test_shift_does_not_depend_on_f(self, pair_a):
        """Data with f(0) = 0, with f(0) != 0 and of degree 2 move u alike
        under f -> f + delta: the probe returns the report's max_shift, bit
        for bit. Two solves, of f and of f + delta, differ here for f = t
        by 1.05e-3 relative: only the second folds the first panel onto
        node 1, and that change of discretisation is no response to the
        data."""
        mesh = graded_mesh(128, 2.0, pair_a.b)
        want = stability_report(pair_a, 1e-6, mesh).max_shift
        for coeffs in ([0.0, 1.0], [1.0, 0.5], [0.3, -1.0, 2.0]):
            got = stability_probe(pair_a, RhsSpec.from_polynomial(coeffs), 1e-6, mesh)
            assert got == want

    def test_bad_rhs_is_refused(self, pair_a):
        """f is never solved, but data whose fprime is not f's derivative
        is refused as a solve of it would be."""
        bad = RhsSpec(f=lambda t: t, fprime=lambda t: 2.0 + 0.0 * t)
        with pytest.raises(DomainError, match="finite difference"):
            stability_probe(pair_a, bad, 1e-6, graded_mesh(64, 2.0, pair_a.b))

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_t(self, bad):
        """It returned NaN for t = NaN and inf for t = inf."""
        with pytest.raises(DomainError, match="finite t > 0"):
            classical_solution(0.5, [0.0, 1.0], bad)
        with pytest.raises(DomainError, match="finite t > 0"):
            classical_solution(0.5, [0.0, 1.0], np.array([0.25, bad, 0.5]))


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
