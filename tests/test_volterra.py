"""First-kind solves, the second-kind transformation, and discovery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import EXP_MINUS_1, TWO_OVER_PI
from sonine_kit import (
    DomainError,
    GscConditionError,
    IllConditionedSystemError,
    RhsSpec,
    SampledFunction,
    SoninePair,
    assemble_rhs,
    check_gsc,
    classical_solution,
    discover_associate,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    affine_exponent,
    power_kernel,
    product_weights,
    solve_first_kind,
    solve_second_kind,
    stability_probe,
)


class TestRhsSpec:
    def test_polynomial_construction(self):
        rhs = RhsSpec.from_polynomial([1.0, -2.0, 3.0])
        assert rhs.f0 == 1.0
        assert rhs.eval(2.0) == 1.0 - 4.0 + 12.0
        assert rhs.eval_fprime(2.0) == -2.0 + 12.0
        rhs.validate(1.0)  # no raise

    def test_f0_must_match_f(self):
        with pytest.raises(DomainError):
            RhsSpec(f=lambda t: t + 1.0, fprime=lambda t: 1.0, f0=0.0)

    def test_wrong_derivative_is_caught(self):
        rhs = RhsSpec(f=lambda t: t * t, fprime=lambda t: 3.0 * t, f0=0.0)
        with pytest.raises(DomainError):
            rhs.validate(1.0)

    def test_validate_is_deterministic(self):
        rhs = RhsSpec.from_polynomial([0.0, 0.0, 1.0, 0.5])
        rhs.validate(1.0)
        rhs.validate(1.0)  # same spot-check points every time

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

    def test_variable_profile_residual(self, pair_a):
        mesh = graded_mesh(1024, 2.0, 0.5)
        report = solve_first_kind(pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh)
        assert report.residual_first_kind <= 5e-3
        assert report.residual_second_kind <= 1e-12

    def test_failing_pair_is_refused(self):
        kk = power_kernel(1.0, 0.5, 1.0)
        pair = SoninePair(k=kk, K=kk, kappa=float("nan"), is_classical=False)
        with pytest.raises(GscConditionError):
            solve_first_kind(pair, RhsSpec.from_polynomial([0.0, 1.0]), graded_mesh(64, 2.0, 1.0))

    def test_linearity(self, pair_a, mesh_512_half):
        report = check_gsc(pair_a, mesh_512_half)
        u1 = solve_first_kind(
            pair_a, RhsSpec.from_polynomial([0.0, 1.0]), mesh_512_half, gsc=report
        ).u.values
        u2 = solve_first_kind(
            pair_a, RhsSpec.from_polynomial([0.0, 0.0, 1.0]), mesh_512_half, gsc=report
        ).u.values
        combo = solve_first_kind(
            pair_a, RhsSpec.from_polynomial([0.0, 2.0, -3.0]), mesh_512_half, gsc=report
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
        report = solve_first_kind(pair, RhsSpec.from_polynomial(coeffs), mesh, gsc=gsc)
        assert np.isfinite(report.F.values[0]) == (coeffs[0] == 0.0)
        want = _second_kind_row_residual(report, gsc, mesh)
        assert want <= 1e-13  # u solves the rebuilt system to roundoff
        assert abs(report.residual_second_kind - want) <= 1e-15


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

    def test_validation(self):
        with pytest.raises(DomainError):
            classical_solution(1.5, [1.0], 0.5)
        with pytest.raises(DomainError):
            classical_solution(0.5, [], 0.5)
        with pytest.raises(DomainError):
            classical_solution(0.5, [1.0], 0.0)
