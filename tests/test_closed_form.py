"""Pure-power convolutions in closed form, and the two-term pair's
associate.

For a pure-power associate K = c t^(-sigma) and polynomial data,
``assemble_rhs``'s K * f' is a sum of Beta functions, and a classical
push-back of an unbounded u splits off its leading power, which k maps to
a constant. The oracle is mpmath at 40 digits, tabulated once for the
module; the quadrature paths that stay (hand-built data, tabulated or
variable kernels) are checked against the closed form and against the
doubly singular rule they replace. The two-term pair's associate is a
Mittag-Leffler function, summed by mpmath at 30 digits.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

import sonine_kit.volterra as volterra
from sonine_kit import (
    KernelSpec,
    RhsSpec,
    SampledFunction,
    affine_exponent,
    assemble_rhs,
    classical_solution,
    convolve_pair,
    discover_associate,
    graded_mesh,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    power_kernel,
    solve_first_kind,
)
from conftest import two_term_pair
from sonine_kit.quadrature import SOE_MIN_N

R = 2.0
SIZES = (256, 2048)

#: f = t and f = 0.5 - t + 2t^2 + 3t^3
DATA = {"t": (0.0, 1.0), "cubic": (0.5, -1.0, 2.0, 3.0)}

#: the associates K: classical alpha = 0.3 and 0.7 on (0, 1], and the
#: paper pair's (alpha(t) = 0.5 + t/5 on (0, 0.5])
ASSOCIATES = {
    "classical 0.3": lambda: make_classical_abel_pair(0.3, 1.0).K,
    "classical 0.7": lambda: make_classical_abel_pair(0.7, 1.0).K,
    "paper": lambda: make_variable_exponent_pair(affine_exponent(0.5, 0.2, 0.5), 0.5).K,
}


def _mp_F(K: KernelSpec, coeffs, t) -> list:
    """F = f(0) K + K * f' at each t, 40 digits, with mpmath's own Beta:
    K * s^m = c B(1 - sigma, m + 1) t^(m + 1 - sigma)."""
    with mp.workdps(40):
        c, sigma = mp.mpf(K.power_coef), mp.mpf(K.local_exponent)
        terms = [
            m * coeffs[m] * mp.beta(1 - sigma, m) for m in range(1, len(coeffs))
        ]  # f' = sum_m m a_m s^(m-1)
        out = []
        for x in t:
            x = mp.mpf(x)
            poly = sum(a * x**j for j, a in enumerate(terms))
            out.append(float(c * x ** (-sigma) * (coeffs[0] + x * poly)))
        return out


@pytest.fixture(scope="module")
def oracle():
    """The mpmath F at every interior node of the N = 2048 mesh, per
    associate and data; the N = 256 nodes are every eighth of them (graded
    meshes nest bit for bit)."""
    table = {}
    for name, make in ASSOCIATES.items():
        K = make()
        mesh = graded_mesh(max(SIZES), R, K.b)
        for data, coeffs in DATA.items():
            table[name, data] = np.array(_mp_F(K, coeffs, mesh.nodes[1:]))
    return table


def _on_mesh(table_row: np.ndarray, N: int) -> np.ndarray:
    """The entries of a table over the interior nodes of a finer nested
    mesh that fall on the nodes of the N-panel mesh."""
    stride = len(table_row) // N
    return table_row[stride - 1 :: stride]


class TestOracle:
    def test_beta_form_is_the_convolution(self):
        """The oracle's Beta sum against a direct 40-digit quadrature of
        f0 K(t) + int_0^t K(x) f'(t - x) dx at three times, with the power
        substituted away: x = y^p, p = 1 / (1 - sigma), turns c x^(-sigma)
        dx into c p dy."""
        K = ASSOCIATES["classical 0.3"]()
        coeffs = DATA["cubic"]
        c, sigma = K.power_coef, mp.mpf(K.local_exponent)

        def fp(s):
            return sum(m * coeffs[m] * s ** (m - 1) for m in range(1, len(coeffs)))

        with mp.workdps(40):
            p = 1 / (1 - sigma)
            for t in (1e-3, 0.37, 1.0):
                t_mp = mp.mpf(t)
                conv = c * p * mp.quad(lambda y: fp(t_mp - y**p), [0, t_mp ** (1 / p)])
                want = coeffs[0] * c * t_mp ** (-sigma) + conv
                assert abs(_mp_F(K, coeffs, [t])[0] - want) <= 1e-15 * abs(want)


class TestClosedFormF:
    @pytest.mark.parametrize("N", SIZES)
    @pytest.mark.parametrize("data", DATA)
    @pytest.mark.parametrize("name", ASSOCIATES)
    def test_matches_mpmath_at_every_node(self, name, data, N, oracle):
        K = ASSOCIATES[name]()
        mesh = graded_mesh(N, R, K.b)
        F = assemble_rhs(K, RhsSpec.from_polynomial(DATA[data]), mesh)
        want = _on_mesh(oracle[name, data], N)
        assert np.max(np.abs(F.values[1:] - want) / np.abs(want)) <= 1e-14

    def test_high_degree_does_not_overflow(self):
        """f = t^300: Gamma(m + 2 - sigma) overflows from m = 170, the
        recurrence of Beta values does not."""
        K = power_kernel(1.0, 0.4, 1.0)
        mesh = graded_mesh(64, R, 1.0)
        coeffs = [0.0] * 300 + [1.0]
        F = assemble_rhs(K, RhsSpec.from_polynomial(coeffs), mesh)
        with mp.workdps(40):
            b = mp.beta(mp.mpf(0.6), 300)
            want = [float(300 * b * mp.mpf(t) ** (300 - mp.mpf(0.4))) for t in mesh.nodes[-4:]]
        assert np.all(np.isfinite(F.values[1:]))
        np.testing.assert_allclose(F.values[-4:], want, rtol=1e-13)

    def test_polynomial_data_skip_the_quadrature(self, monkeypatch):
        calls = []
        real = volterra.convolve_weakly_singular
        monkeypatch.setattr(
            volterra, "convolve_weakly_singular", lambda *a: calls.append(1) or real(*a)
        )
        K = ASSOCIATES["paper"]()
        assemble_rhs(K, RhsSpec.from_polynomial(DATA["cubic"]), graded_mesh(512, R, K.b))
        assert calls == []


def _hand_built(coeffs) -> RhsSpec:
    """The data of :meth:`RhsSpec.from_polynomial` as plain callables."""
    poly = RhsSpec.from_polynomial(coeffs)
    return RhsSpec(f=lambda t: poly.f(t), fprime=lambda t: poly.fprime(t))


class TestQuadraturePathKept:
    """Hand-built data and a tabulated K take the quadrature, which is
    exact to rounding on a constant f' (f' of a linear f)."""

    @pytest.mark.parametrize("N", [SOE_MIN_N // 2, SOE_MIN_N, 4 * SOE_MIN_N])
    @pytest.mark.parametrize("coeffs", [(0.0, 1.0), (0.5, 3.0)])
    @pytest.mark.parametrize("name", ASSOCIATES)
    def test_hand_built_data_agree(self, name, coeffs, N, monkeypatch):
        K = ASSOCIATES[name]()
        mesh = graded_mesh(N, R, K.b)
        exact = assemble_rhs(K, RhsSpec.from_polynomial(coeffs), mesh).values[1:]
        calls = []
        real = volterra.convolve_weakly_singular
        monkeypatch.setattr(
            volterra, "convolve_weakly_singular", lambda *a: calls.append(1) or real(*a)
        )
        quad = assemble_rhs(K, _hand_built(coeffs), mesh).values[1:]
        assert calls == [1]
        assert np.max(np.abs(quad - exact) / np.abs(exact)) <= 1e-14

    def test_hand_built_nonlinear_f_converges_to_the_closed_form(self):
        """On the cubic the quadrature interpolates f' linearly, so it
        errs by O(h^2); the error falls by about 4 per doubling."""
        K = ASSOCIATES["classical 0.3"]()
        errs = []
        for N in (128, 256, 512):
            mesh = graded_mesh(N, 1.0, K.b)
            exact = assemble_rhs(K, RhsSpec.from_polynomial(DATA["cubic"]), mesh).values[1:]
            quad = assemble_rhs(K, _hand_built(DATA["cubic"]), mesh).values[1:]
            errs.append(np.max(np.abs(quad - exact) / np.abs(exact)))
        assert errs[0] > 1e-7
        assert errs[1] < errs[0] / 3.5 and errs[2] < errs[1] / 3.5

    @pytest.mark.parametrize("N", [SOE_MIN_N // 2, 4 * SOE_MIN_N])
    def test_tabulated_K_agrees(self, N):
        K = ASSOCIATES["classical 0.7"]()
        mesh = graded_mesh(N, R, K.b)
        samples = np.full(N + 1, np.nan)
        samples[1:] = K.eval(mesh.nodes[1:])
        K_tab = KernelSpec.from_samples(
            SampledFunction(mesh=mesh, values=samples), sing_exponent=K.local_exponent
        )
        assert K_tab.power_coef is None
        rhs = RhsSpec.from_polynomial(DATA["t"])
        exact = assemble_rhs(K, rhs, mesh).values[1:]
        quad = assemble_rhs(K_tab, rhs, mesh).values[1:]
        assert np.max(np.abs(quad - exact) / np.abs(exact)) <= 1e-14


class TestClassicalSolves:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_cubic_data_match_the_closed_form_solution(self, alpha):
        """f = 1 + t^3: u = F exactly, since g' = 0; the quadrature's F
        read 1.2e-6 off at alpha = 0.3."""
        b = 0.5
        mesh = graded_mesh(512, R, b)
        coeffs = [1.0, 0.0, 0.0, 1.0]
        report = solve_first_kind(
            make_classical_abel_pair(alpha, b), RhsSpec.from_polynomial(coeffs), mesh
        )
        sel = mesh.nodes >= b / 10
        ref = classical_solution(alpha, coeffs, mesh.nodes[sel])
        assert np.max(np.abs(report.u.values[sel] - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("N", [128, 2048])
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_discover_reads_rounding(self, alpha, N):
        """The rule's own 6.7e-10 to 9.2e-10 was the floor before the split."""
        pair = make_classical_abel_pair(alpha, 1.0)
        report = discover_associate(pair.k, pair.K, graded_mesh(N, R, 1.0))
        assert report.sc_residual_of_u <= 1e-14

    @pytest.mark.parametrize("N", [128, SOE_MIN_N, 1024])
    @pytest.mark.parametrize("coeffs", [(1.0,), (0.5, -1.0, 2.0), (1.0, 0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_split_push_back_beats_the_pair_rule(self, alpha, coeffs, N):
        """f(0) != 0 makes u unbounded; its push-back is no worse than the
        doubly singular rule on u tabulated with its known order."""
        b = 0.5
        pair = make_classical_abel_pair(alpha, b)
        mesh = graded_mesh(N, R, b)
        rhs = RhsSpec.from_polynomial(coeffs)
        report = solve_first_kind(pair, rhs, mesh)
        assert np.isnan(report.u.values[0])
        u_tab = KernelSpec.from_samples(report.u, sing_exponent=1.0 - alpha)
        ku = convolve_pair(u_tab, pair.k, mesh)
        i0 = volterra.RESID_FIRST_INDEX
        ref = float(np.max(np.abs(ku.values[i0:] - rhs.eval(mesh.nodes[i0:]))))
        assert report.residual_first_kind <= ref
        assert np.isnan(report.ku.values[0])


class TestPushBackRoute:
    @staticmethod
    def _count_pair_rule(monkeypatch) -> list:
        calls = []
        real = volterra.convolve_pair

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(volterra, "convolve_pair", counting)
        return calls

    def test_leading_term_is_the_tabulated_limit(self, monkeypatch):
        """m0 is u's bounded factor continued to 0 as
        KernelSpec.from_samples continues it."""
        seen = []
        real = volterra._power_convolution
        monkeypatch.setattr(volterra, "_power_convolution", lambda *a: seen.append(a) or real(*a))
        pair = make_classical_abel_pair(0.3, 0.5)
        report = solve_first_kind(
            pair, RhsSpec.from_polynomial([1.0, -1.0, 2.0]), graded_mesh(128, R, 0.5)
        )
        (m0,) = seen[-1][2]
        assert seen[-1][3] == pair.k.local_exponent - 1.0
        assert m0 == KernelSpec.from_samples(report.u, sing_exponent=0.7).smooth0

    def test_variable_k_keeps_the_pair_rule(self, pair_a, monkeypatch):
        calls = self._count_pair_rule(monkeypatch)
        solve_first_kind(pair_a, RhsSpec.from_polynomial([1.0, 1.0]), graded_mesh(128, R, pair_a.b))
        assert calls == [1]

    def test_classical_k_splits(self, classical_half, monkeypatch):
        calls = self._count_pair_rule(monkeypatch)
        mesh = graded_mesh(128, R, 1.0)
        solve_first_kind(classical_half, RhsSpec.from_polynomial([1.0, 1.0]), mesh)
        discover_associate(classical_half.k, classical_half.K, mesh)
        assert calls == []


class TestPolynomialData:
    def test_array_in_array_out(self):
        """A constant f has f' = 0 as an array, so no per-node fallback."""
        t = np.linspace(0.0, 1.0, 7)
        for coeffs in ([1.0], [2.0, -1.0], [0.5, -1.0, 2.0, 3.0]):
            rhs = RhsSpec.from_polynomial(coeffs)
            for fn in (rhs.f, rhs.fprime):
                out = fn(t)
                assert isinstance(out, np.ndarray) and out.shape == t.shape
            assert isinstance(rhs.fprime(0.3), float)
        np.testing.assert_array_equal(RhsSpec.from_polynomial([1.0]).fprime(t), np.zeros(7))

    def test_horner_bit_for_bit(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=6)
        t = rng.uniform(0.0, 2.0, size=50)
        want = np.zeros_like(t)
        for v in reversed(coeffs):
            want = want * t + v
        np.testing.assert_array_equal(RhsSpec.from_polynomial(coeffs).f(t), want)

    def test_discover_data_are_polynomial(self, classical_half, monkeypatch):
        calls = []
        real = volterra._power_convolution
        monkeypatch.setattr(
            volterra, "_power_convolution", lambda *a: calls.append(a[3]) or real(*a)
        )
        discover_associate(classical_half.k, classical_half.K, graded_mesh(64, R, 1.0))
        # K * f' (q = 0) and the push-back's leading power (q = alpha - 1)
        assert calls == [0.0, -0.5]



#: the two-term pair (a, beta, lambda, b) whose g' = lambda t^(a-1) / Gamma(a)
#: is an exact power blow-up, eps = 1 - a = 0.3, and the discover meshes
TWO_TERM = (0.7, 0.5, 1.0, 1.0)
DISCOVER_SIZES = (64, 128, 256, 512)

#: the residual max |k * u - 1| of the exact associate u of each two-term
#: pair, pushed back through k at DISCOVER_SIZES: the second pair has a
#: weaker blow-up of u, t^(-0.7), and a steeper g', eps = 0.1
PUSH_BACK = {
    TWO_TERM: (1.352e-4, 3.592e-5, 1.327e-5, 5.021e-6),
    (0.9, 0.3, 2.0, 0.5): (1.357e-4, 3.437e-5, 9.037e-6, 2.339e-6),
}


@pytest.fixture(scope="module")
def two_term_associates():
    """Per pair of PUSH_BACK, t^(1 - beta) u(t) = E_(a,beta)(-lambda t^a) /
    Gamma(1 - beta), the bounded factor of the associate of the two-term
    k, at every interior node of the finest discover mesh (the coarser
    ones nest in it). The alternating series converges fast for lambda
    t^a <= 1.07."""
    out = {}
    for params in PUSH_BACK:
        a, beta, lam, b = (mp.mpf(v) for v in params)
        values = []
        with mp.workdps(30):
            for t in graded_mesh(max(DISCOVER_SIZES), R, params[3]).nodes[1:]:
                x, n, total, term = lam * mp.mpf(t) ** a, 0, mp.mpf(0), mp.mpf(1)
                while abs(term) > mp.mpf(10) ** -28:
                    term = (-x) ** n * mp.rgamma(a * n + beta)
                    total += term
                    n += 1
                values.append(float(total * mp.rgamma(1 - beta)))
        out[params] = np.array(values)
    return out


class TestTwoTermDiscover:
    def test_converges_at_order_one(self, two_term_associates):
        """max |u - u_exact| t^(1 - beta) over the nodes is 9.1e-4, 4.5e-4,
        2.3e-4 and 1.1e-4 at N = 64 to 512: order 1.00, the r beta cap of
        linear product integration of u ~ t^(beta - 1). The sweep reads
        the power blow-up's own m(0) = C; with m(0) = 0, right only for a
        log blow-up, it read 5.2e-3 to 1.1e-3, order 0.74."""
        pair = two_term_pair(*TWO_TERM)
        errs = []
        for N in DISCOVER_SIZES:
            mesh = graded_mesh(N, R, pair.b)
            u = discover_associate(pair.k, pair.K, mesh).u.values[1:]
            want = _on_mesh(two_term_associates[TWO_TERM], N)
            errs.append(np.max(np.abs(u * mesh.nodes[1:] ** (1.0 - TWO_TERM[1]) - want)))
        order = -np.polyfit(np.log2(DISCOVER_SIZES), np.log2(errs), 1)[0]
        assert order >= 0.95 and errs[-1] <= 2e-4, errs

    @pytest.mark.parametrize("params", list(PUSH_BACK))
    def test_push_back_of_the_exact_associate(self, params, two_term_associates):
        """The exact associate u, unbounded at 0 and so wrapped as a
        tabulated singular kernel of order 1 - beta, pushed back through
        the two-term k that is not a pure power: k * u = 1 to within 10%
        of PUSH_BACK at every N. Splitting u's leading power off in
        closed form, as for a pure-power k, read 6.8e-4, 1.3e-4 and
        2.5e-5 at N = 128, 512 and 2048 on the first pair, against the
        tabulated route's 3.6e-5, 5.0e-6 and 7.2e-7."""
        pair = two_term_pair(*params)
        got = []
        for N in DISCOVER_SIZES:
            mesh = graded_mesh(N, R, pair.b)
            u = np.full(N + 1, np.nan)
            u[1:] = _on_mesh(two_term_associates[params], N) / mesh.nodes[1:] ** (1.0 - params[1])
            u = SampledFunction(mesh=mesh, values=u)
            got.append(volterra._first_kind_residual(pair.k, u, RhsSpec.from_polynomial([1.0]))[0])
        np.testing.assert_allclose(got, PUSH_BACK[params], rtol=0.1)
