"""Kernel objects, exponent profiles, and the gamma/kappa helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GAMMA_REFS,
    KAPPA_025,
    KAPPA_05,
    KAPPA_075,
    PROFILE_A,
    VAR_KERNEL_AT_025,
    hand_built_power,
    two_term_pair,
)
from sonine_kit import (
    DomainError,
    ExponentFunction,
    KernelSpec,
    Mesh,
    SampledFunction,
    SoninePair,
    affine_exponent,
    check_gsc,
    classical_abel_kernel,
    discover_associate,
    gamma,
    graded_mesh,
    kappa,
    leading_term_pair,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    power_kernel,
    variable_exponent_kernel,
)
from sonine_kit.kernels import _is_classical


class TestGamma:
    def test_reference_values(self):
        for x, ref in GAMMA_REFS:
            assert abs(gamma(x) - ref) <= 1e-12 * abs(ref), x

    def test_domain_errors(self):
        for bad in (0.0, -1.0, 50.5, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                gamma(bad)
        with pytest.raises(DomainError):
            gamma("0.5")
        with pytest.raises(DomainError):
            gamma(True)

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=49.0))
    def test_recurrence(self, x):
        assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-11 * abs(x * gamma(x))


class TestKappa:
    def test_reference_values(self):
        assert abs(kappa(0.25) - KAPPA_025) <= 1e-12 * KAPPA_025
        assert abs(kappa(0.5) - KAPPA_05) <= 1e-12 * KAPPA_05
        assert abs(kappa(0.75) - KAPPA_075) <= 1e-12 * KAPPA_075

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_reflection_formula(self, a):
        ref = math.pi / math.sin(math.pi * a)
        assert abs(kappa(a) - ref) <= 1e-12 * abs(ref)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_symmetry(self, a):
        # 1.0 - a rounds, so the reflected argument is a few ulps off a
        assert abs(kappa(a) - kappa(1.0 - a)) <= 1e-14 * kappa(a)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7, float("nan")):
            with pytest.raises(DomainError):
                kappa(bad)


class TestExponentFunction:
    def test_affine_basics(self):
        af = affine_exponent(0.5, 0.2, 0.5)
        assert af.eval(0.0) == 0.5
        assert af.eval(0.5) == 0.6
        assert af.deriv(0.25) == 0.2
        af.validate(0.5)  # no raise

    def test_affine_range_rejected(self):
        with pytest.raises(DomainError):
            affine_exponent(0.5, 2.0, 0.5)  # alpha(b) = 1.5
        with pytest.raises(DomainError):
            affine_exponent(0.0, 0.1, 1.0)  # alpha(0) = 0
        with pytest.raises(DomainError):
            affine_exponent(0.9, 0.3, 1.0)  # exits above 1

    def test_profile_leaving_the_unit_interval_is_refused(self):
        """alpha(t) = 0.5 + 10 t (0.5 - t) is 0.5 at both ends of [0, 0.5]
        but 1.125 at t = 0.25, so no kernel is built on it there; on [0,
        0.05] it stays below 0.725. A derivative that is not finite is
        refused too."""

        def bump(t):
            t = np.asarray(t, dtype=float)
            return 0.5 + 10.0 * t * (0.5 - t)

        af = ExponentFunction(fn=bump, dfn=lambda t: 5.0 - 20.0 * np.asarray(t, dtype=float))
        with pytest.raises(DomainError, match="leaves"):
            af.validate(0.5)
        with pytest.raises(DomainError, match="leaves"):
            variable_exponent_kernel(af, 0.5)
        af.validate(0.05)  # no raise
        no_slope = ExponentFunction(
            fn=bump, dfn=lambda t: np.full_like(np.asarray(t, dtype=float), np.nan)
        )
        with pytest.raises(DomainError, match="derivative"):
            no_slope.validate(0.05)

    def test_vector_eval(self):
        af = affine_exponent(0.5, 0.2, 0.5)
        ts = np.array([0.0, 0.25, 0.5])
        np.testing.assert_allclose(af.eval(ts), [0.5, 0.55, 0.6], rtol=0, atol=0)


class TestKernelSpec:
    def test_classical_values(self):
        k = classical_abel_kernel(0.5, 1.0)
        assert k.eval(0.25) == 0.25**-0.5
        assert k.smooth(0.0) == 1.0
        assert k.local_exponent == 0.5

    def test_zero_is_domain_error(self):
        k = classical_abel_kernel(0.5, 1.0)
        with pytest.raises(DomainError):
            k.eval(0.0)
        with pytest.raises(DomainError):
            k.eval(1.5)
        with pytest.raises(DomainError):
            k.eval(-0.1)

    def test_variable_kernel_value(self):
        af = affine_exponent(0.5, 0.2, 0.5)
        k = variable_exponent_kernel(af, 0.5)
        assert abs(k.eval(0.25) - VAR_KERNEL_AT_025) <= 1e-12 * VAR_KERNEL_AT_025
        # the factored order is alpha(0), not the sup of alpha
        assert k.local_exponent == 0.5
        assert k.smooth(0.0) == 1.0

    @pytest.mark.parametrize("which", ["power", "variable", "tabulated"])
    def test_eval_is_the_factored_form(self, which):
        """A kernel's value is its bounded factor times t^(-local_exponent),
        bit for bit; for a pure power that is c t^(-sigma) itself."""
        ts = np.array([1e-9, 0.01, 0.3, 0.5])
        if which == "power":
            k = power_kernel(0.7, 0.3, 0.5)
            np.testing.assert_array_equal(k.eval(ts), 0.7 * ts**-0.3)
        elif which == "variable":
            k = variable_exponent_kernel(affine_exponent(0.5, 0.2, 0.5), 0.5)
        else:
            m = graded_mesh(32, 2.0, 0.5)
            vals = np.full(33, np.nan)
            vals[1:] = m.nodes[1:] ** -0.3 * (1.0 + m.nodes[1:])
            k = KernelSpec.from_samples(SampledFunction(mesh=m, values=vals), 0.3)
        np.testing.assert_array_equal(k.eval(ts), k.smooth(ts) * ts ** -k.local_exponent)

    def test_variable_kernel_log_derivative(self):
        """t E'(t) for E(t) = t^(alpha(0) - alpha(t)) = t^(-a1 t) is
        -a1 t (ln t + 1) E(t), and tends to 0 at the origin. Near 0 the
        rounding of alpha(0) - alpha(t) shows: 1.2e-13 relative at 1e-4."""
        a1 = 0.2
        k = variable_exponent_kernel(affine_exponent(0.5, a1, 0.5), 0.5)
        ts = np.array([1e-4, 0.01, 0.3, 0.5])
        want = -a1 * ts * (np.log(ts) + 1.0) * ts ** (-a1 * ts)
        np.testing.assert_allclose(k.smooth_log_deriv(ts), want, rtol=1e-12, atol=0.0)
        assert 0.0 < k.smooth_log_deriv(np.array([1e-300]))[0] <= 1e-297
        assert classical_abel_kernel(0.5, 1.0).smooth_log_deriv is None

    @pytest.mark.parametrize("t", [1e-300, 1e-4, 0.1, 0.5])
    def test_log_derivative_of_a_scalar(self, t):
        """A Python float and a 0-d array give a float, the 1-element
        array's value bit for bit; the in-place exp once refused both."""
        k = variable_exponent_kernel(affine_exponent(0.5, 0.2, 0.5), 0.5)
        want = k.smooth_log_deriv(np.array([t]))[0]
        for scalar in (t, np.array(t), np.float64(t)):
            got = k.smooth_log_deriv(scalar)
            assert type(got) is float
            assert np.array([got]).tobytes() == np.array([want]).tobytes()

    def test_smooth_factor_consistency(self):
        af = affine_exponent(0.5, 0.2, 0.5)
        k = variable_exponent_kernel(af, 0.5)
        for t in (1e-6, 0.01, 0.3, 0.5):
            assert abs(k.smooth(t) - k.eval(t) * t**k.local_exponent) <= 1e-12

    @pytest.mark.parametrize("which", ["classical", "variable", "tabulated"])
    def test_smooth_shapes_and_origin(self, which):
        if which == "classical":
            k = classical_abel_kernel(0.3, 0.5)
        elif which == "variable":
            k = variable_exponent_kernel(affine_exponent(0.5, 0.2, 0.5), 0.5)
        else:
            m = graded_mesh(32, 2.0, 0.5)
            vals = np.full(33, np.nan)
            vals[1:] = m.nodes[1:] ** -0.3 * (1.0 + m.nodes[1:])
            k = KernelSpec.from_samples(SampledFunction(mesh=m, values=vals), 0.3)
        ts = np.array([[0.0, 0.1, 0.5], [0.25, 0.0, 1e-9]])
        got = k.smooth(ts)
        assert got.shape == (2, 3)
        assert got[0, 0] == k.smooth0 and got[1, 1] == k.smooth0
        for idx in [(0, 1), (0, 2), (1, 0), (1, 2)]:
            assert got[idx] == k.smooth(float(ts[idx]))
        assert isinstance(k.smooth(0.0), float) and k.smooth(0.0) == k.smooth0
        assert isinstance(k.smooth(0.1), float)
        assert k.smooth(np.float64(0.1)) == k.smooth(0.1)
        assert k.smooth([0.1]).shape == (1,)
        assert k.smooth(np.array([])).shape == (0,)
        for bad in (-1e-12, 0.6, [0.1, -0.2]):
            with pytest.raises(DomainError):
                k.smooth(bad)

    def test_nan_does_not_hide_a_refusal(self):
        """The two reductions that settle the usual domain check read NaN
        for an input holding one, so such input takes the elementwise check."""
        k = variable_exponent_kernel(affine_exponent(0.5, 0.2, 0.5), 0.5)
        for bad in ([np.nan, -0.1], [0.6, np.nan], [np.nan, 0.0]):
            with pytest.raises(DomainError):
                k.eval(bad)
        with pytest.raises(DomainError):
            k.smooth([np.nan, -0.1])
        got = k.smooth([np.nan, 0.0, 0.25])
        assert np.isnan(got[0]) and got[1] == k.smooth0 and got[2] == k.smooth(0.25)

    def test_smooth_never_returns_its_input(self):
        ident = KernelSpec(smooth_fn=lambda t: t, smooth0=0.0, local_exponent=0.5, b=1.0)
        ts = np.array([0.25, 0.5])
        out = ident.smooth(ts)
        np.testing.assert_array_equal(out, ts)
        out[0] = 7.0
        assert ts[0] == 0.25

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_smooth0_is_refused(self, bad):
        """A kernel's bounded factor has a finite value at 0; a NaN there
        made the pair rule return NaN without a warning."""
        with pytest.raises(DomainError, match="smooth0"):
            KernelSpec(smooth_fn=np.ones_like, smooth0=bad, local_exponent=0.5, b=1.0)

    def test_power_kernel_rejects_bad_args(self):
        with pytest.raises(DomainError):
            power_kernel(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            power_kernel(1.0, 1.2, 1.0)
        # 1 - 1e-20 is 1.0: beta = 1 took the SOE path to math.gamma(0)
        with pytest.raises(DomainError, match="1 - local_exponent < 1"):
            power_kernel(1.0, 1e-20, 1.0)
        assert power_kernel(1.0, 2.0**-53, 1.0).local_exponent == 2.0**-53
        with pytest.raises(DomainError):
            power_kernel(1.0, 0.5, -1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, -0.5, math.nan])
    def test_classical_pair_refuses_alpha_outside_unit_interval(self, alpha):
        """The kernel owns the range rule, and the maker reports it."""
        for build in (classical_abel_kernel, make_classical_abel_pair):
            with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
                build(alpha, 1.0)

    def test_from_samples_roundtrip(self):
        mesh = graded_mesh(64, 2.0, 1.0)
        vals = np.empty(65)
        vals[0] = np.nan
        vals[1:] = 0.7 * mesh.nodes[1:] ** -0.3
        tab = KernelSpec.from_samples(SampledFunction(mesh=mesh, values=vals), 0.3)
        assert tab.local_exponent == 0.3
        np.testing.assert_allclose(tab.smooth(mesh.nodes[1:]), 0.7, rtol=1e-14, atol=0.0)
        for t in (0.01, 0.2, 0.9):
            assert abs(tab.eval(t) - 0.7 * t**-0.3) <= 1e-3 * abs(0.7 * t**-0.3)

    def test_from_samples_needs_enough_nodes(self):
        """The continuation to t = 0 reads the first two interior nodes."""
        mesh = Mesh(nodes=np.array([0.0, 1.0]))
        vals = np.array([np.nan, 1.0])
        with pytest.raises(DomainError, match="two interior nodes"):
            KernelSpec.from_samples(SampledFunction(mesh=mesh, values=vals), 0.5)


def _tabulated_K():
    """The paper pair's K from node samples: close to the same values, but
    its bounded factor is an interpolant, not a constant."""
    pair = make_variable_exponent_pair(affine_exponent(0.5, 0.2, 0.5), 0.5)
    mesh = graded_mesh(64, 2.0, 0.5)
    samples = np.full(65, np.nan)
    samples[1:] = pair.K.eval(mesh.nodes[1:])
    return KernelSpec.from_samples(SampledFunction(mesh=mesh, values=samples), 0.5)


def _kernels(pair):
    return pair.k, pair.K


#: (k, K) builders and whether K * k = 1 holds analytically
CLASSICAL_TABLE = {
    "abel": (lambda: _kernels(make_classical_abel_pair(0.4, 1.0)), True),
    "scaled powers": (
        lambda: (power_kernel(2.0, 0.4, 1.0), power_kernel(0.5 / kappa(0.4), 0.6, 1.0)),
        True,
    ),
    "constant profile": (
        lambda: _kernels(make_variable_exponent_pair(affine_exponent(0.37, 0.0, 1.0), 1.0)),
        True,
    ),
    "constant factor, zero log-derivative": (
        lambda: (
            KernelSpec(
                smooth_fn=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
                smooth0=2.0,
                local_exponent=0.4,
                b=1.0,
                smooth_log_deriv=np.zeros_like,
            ),
            power_kernel(0.5 / kappa(0.4), 0.6, 1.0),
        ),
        True,
    ),
    "constant factor, no log-derivative": (
        lambda: (hand_built_power(2.0, 0.4, 1.0), power_kernel(0.5 / kappa(0.4), 0.6, 1.0)),
        False,
    ),
    "paper profile": (
        lambda: _kernels(make_variable_exponent_pair(affine_exponent(0.5, 0.2, 0.5), 0.5)),
        False,
    ),
    "tabulated K": (lambda: (classical_abel_kernel(0.5, 0.5), _tabulated_K()), False),
    # orders summing to 1, but K * k = pi
    "K = k": (lambda: (power_kernel(1.0, 0.5, 1.0),) * 2, False),
    "orders not summing to 1": (
        lambda: (classical_abel_kernel(0.5, 1.0), power_kernel(1.0 / kappa(0.5), 0.3, 1.0)),
        False,
    ),
}

#: the kernels of CLASSICAL_TABLE, as (case, index in (k, K)), that are
#: not pure powers: a bounded factor that varies, or a constant one given
#: without t S'(t)
NOT_PURE_POWERS = {
    ("constant factor, no log-derivative", 0), ("paper profile", 0), ("tabulated K", 1),
}


class TestPowerCoef:
    @pytest.mark.parametrize("case", list(CLASSICAL_TABLE))
    def test_constant_factors_are_pure_powers(self, case):
        """Whether a kernel is a pure power c t^(-sigma) has one answer,
        the field KernelSpec derives once, which _is_classical and every
        pure-power fast path read: c = smooth0 for a factor of
        power_kernel or a t S'(t) that is 0, else None."""
        for i, x in enumerate(CLASSICAL_TABLE[case][0]()):
            expected = None if (case, i) in NOT_PURE_POWERS else x.smooth0
            assert x.power_coef == expected


class TestSoninePair:
    def test_classical_pair_structure(self):
        pair = make_classical_abel_pair(0.5, 1.0)
        assert pair.is_classical
        assert abs(pair.K.power_coef * math.pi - 1.0) <= 1e-12
        assert abs(pair.K.eval(0.25) - 0.25**-0.5 / math.pi) <= 1e-14
        assert pair.b == 1.0

    def test_variable_pair_structure(self):
        af = affine_exponent(0.5, 0.2, 0.5)
        pair = make_variable_exponent_pair(af, 0.5)
        assert not pair.is_classical
        assert pair.k.smooth_log_deriv is not None
        assert abs(1.0 / pair.K.power_coef - KAPPA_05) <= 1e-12 * KAPPA_05
        # associate has the constant order 1 - alpha(0)
        assert pair.K.local_exponent == 0.5

    @pytest.mark.parametrize("a0, b", [(0.05, 0.5), (0.37, 1.0), (0.5, 0.5), (0.93, 3.0)])
    def test_constant_profiles_stay_classical(self, a0, b):
        """alpha(t) = a0 + 0 t gives a bounded factor whose log-derivative is
        exactly 0 on the grid, also where ln t > 0; a slope of 1e-300, which
        leaves every alpha(t) at a0, does not."""
        assert make_variable_exponent_pair(affine_exponent(a0, 0.0, b), b).is_classical
        assert not make_variable_exponent_pair(affine_exponent(a0, 1e-300, b), b).is_classical

    def test_mismatched_intervals_rejected(self):
        k1 = classical_abel_kernel(0.5, 1.0)
        k2 = classical_abel_kernel(0.5, 2.0)
        with pytest.raises(DomainError):
            SoninePair(k=k1, K=k2)

    @pytest.mark.parametrize("case", list(CLASSICAL_TABLE))
    def test_is_classical_is_derived(self, case):
        """The solvers skip the sweep for a classical pair, so whether it is
        one is read from the two kernels: constant bounded factors, orders
        summing to 1 and c_k c_K kappa(sigma) = 1."""
        build, expected = CLASSICAL_TABLE[case]
        k, K = build()
        assert SoninePair(k, K).is_classical == _is_classical(k, K) == expected

    def test_is_classical_cannot_be_set(self):
        k, K = _kernels(make_classical_abel_pair(0.5, 1.0))
        with pytest.raises(TypeError):
            SoninePair(k=k, K=K, is_classical=False)

    def test_scaled_classical_pair_skips_the_sweep(self):
        k = power_kernel(2.0, 0.4, 1.0)
        K = power_kernel(0.5 / kappa(0.4), 0.6, 1.0)
        assert discover_associate(k, K, graded_mesh(64, 2.0, 1.0)).gprime_l1 == 0.0


def _tempered_kernel(smooth0: float) -> KernelSpec:
    """k = smooth0 t^(-1/2) e^(-2t) on (0, 0.5], with its t S'(t)."""

    def smooth(t):
        return smooth0 * np.exp(-2.0 * np.asarray(t, dtype=float))

    return KernelSpec(
        smooth_fn=smooth,
        smooth0=smooth0,
        local_exponent=0.5,
        b=0.5,
        smooth_log_deriv=lambda t: -2.0 * t * smooth(t),
    )


#: kernels k with (S(0), sigma, b) written out, and whether k is a pure power
LEADING_TERMS = {
    "classical 0.3": (lambda: classical_abel_kernel(0.3, 0.5), 1.0, 0.3, 0.5, True),
    "classical 0.5": (lambda: classical_abel_kernel(0.5, 0.5), 1.0, 0.5, 0.5, True),
    "classical 0.8": (lambda: classical_abel_kernel(0.8, 0.5), 1.0, 0.8, 0.5, True),
    "paper": (lambda: variable_exponent_kernel(PROFILE_A, 0.5), 1.0, 0.5, 0.5, False),
    "constant profile": (
        lambda: variable_exponent_kernel(affine_exponent(0.4, 0.0, 0.5), 0.5), 1.0, 0.4, 0.5, True
    ),
    "two-term": (lambda: two_term_pair(0.7, 0.5, 1.0, 1.0).k, 1.0, 0.5, 1.0, False),
    "tempered S(0) = 2": (lambda: _tempered_kernel(2.0), 2.0, 0.5, 0.5, False),
}


class TestLeadingTermPair:
    """leading_term_pair(k) pairs k with K = t^(sigma - 1) / (S(0)
    kappa(sigma)), the associate of k's leading term S(0) t^(-sigma)."""

    @pytest.mark.parametrize("case", list(LEADING_TERMS))
    def test_associate_is_the_hand_formula(self, case):
        build, s0, sigma, b, pure = LEADING_TERMS[case]
        k = build()
        pair = leading_term_pair(k)
        assert pair.k is k
        assert pair.K.power_coef == 1.0 / (s0 * kappa(sigma))
        assert pair.K.local_exponent == 1.0 - sigma
        assert pair.K.b == b
        assert pair.is_classical == pure
        assert check_gsc(pair, graded_mesh(512, 2.0, b)).g0_defect <= 1e-3

    def test_kernel_without_leading_term_is_refused(self):
        """A tabulated kernel of a finite phi has S(0) = 0: a DomainError,
        not the ZeroDivisionError of 1 / (S(0) kappa(sigma))."""
        mesh = graded_mesh(16, 2.0, 1.0)
        phi = SampledFunction(mesh=mesh, values=1.0 + mesh.nodes)
        k = KernelSpec.from_samples(phi, 0.5)
        assert k.smooth0 == 0.0
        with pytest.raises(DomainError, match="smooth0 = 0"):
            leading_term_pair(k)


class TestLogDerivativeCheck:
    """A kernel's t S'(t) is spot-checked against a central difference of
    S, since the analytic g' and the classical shortcut trust it."""

    def test_wrong_log_derivative_is_refused(self):
        """k = t^(-1/2) (1 + t) with t S'(t) given as 0 read as classical,
        passed check_gsc and solved with a first-kind residual of 0.0625;
        its S' is 1 where the given t S'(t) / t reads 0."""
        with pytest.raises(DomainError, match="smooth_log_deriv / t disagrees"):
            KernelSpec(
                smooth_fn=lambda t: 1.0 + np.asarray(t, dtype=float),
                smooth0=1.0,
                local_exponent=0.5,
                b=0.5,
                smooth_log_deriv=np.zeros_like,
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: variable_exponent_kernel(affine_exponent(0.5, 0.2, 0.5), 0.5),
            lambda: variable_exponent_kernel(affine_exponent(0.1, 0.8, 1.0), 1.0),
            lambda: variable_exponent_kernel(affine_exponent(0.5, 2e-4, 1e3), 1e3),
            lambda: KernelSpec(
                smooth_fn=lambda t: np.exp(-2.0 * np.asarray(t, dtype=float)),
                smooth0=1.0,
                local_exponent=0.5,
                b=0.5,
                smooth_log_deriv=lambda t: -2.0 * t * np.exp(-2.0 * np.asarray(t, dtype=float)),
            ),
            lambda: two_term_pair(0.7, 0.5, 1.0, 1.0).k,
            lambda: two_term_pair(0.03, 0.5, 1.0, 1.0).k,
        ],
        ids=["paper", "steep", "b=1e3", "tempered", "two-term", "two-term a=0.03"],
    )
    def test_true_log_derivatives_pass(self, build):
        """They agree with the difference to 4.4e-8 relative at most."""
        assert build().smooth_log_deriv is not None
