"""Generalized Sonine condition: computing g = K * k and checking it.

g and g' come from the quadrature's split-at-t/2 rule for two singular
factors (:func:`sonine_kit.quadrature.convolve_pair`). g is the rule less
its error delta on k's leading term where K convolves that term to
exactly 1 (``route_diff`` = |delta|, see :func:`_defect`). g' is the same
rule on t g' = K_A * k + K * k_B, from the kernels' t S'(t)
(:func:`_gprime_terms`); a pair off it is checked and solved only if it
is classical. On a mesh, g and t g' are smooth in ln t (they go as t ln t
and t near 0), so the rule runs at the quadrature's 64 Chebyshev points in ln t and an
interpolant carries it to every node, unless its coefficients show it
unresolved (:func:`sonine_kit.quadrature._in_log_t`); delta stays a
direct sum.

The condition has three parts: g(0+) = 1, an integrable derivative, and
a finite weighted L1 norm of g' used later as a stability budget. One
model of g' near 0, a log or a power blow-up, gives g(0+) (g at the first
node less its integral), judges integrability, and factors g' for the
L1 norm and the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec, SoninePair, _extrapolate_to_zero, _is_classical, power_kernel
from .mesh import Mesh, SampledFunction
from .quadrature import (
    _in_log_t,
    _mirrored_moments,
    _pair_convolution,
    _pair_panels,
)

__all__ = [
    "EpsFit",
    "GscReport",
    "compute_g",
    "check_gsc",
]

#: default tolerance on |g(0) - 1| for the overall verdict
G0_TOL_DEFAULT = 1e-3

#: a log-singular g' takes the sweep's and the L1 norm's eps from the nodes
#: with t <= b * EPS_WINDOW_FRACTION (:func:`_window_slope`), which keeps
#: every profile table. eps = EPS_CLIP_MAX would delete that fit and cut
#: residuals 2.5-3x at r <= 3: batch-small's residual_first_kind_max
#: 3.47e-3 to 2.00e-3, its converge_order_min 1.142 to 1.262, and the
#: errors of u = t on 0.5 + 0.2t (r = 2, N = 128 to 1024) 2.2-2.7x, order
#: 0.84-0.87 to 0.96. But at r = 4, whose far weights are noise, discover
#: on the 34 valid profiles of the verdict grid passes 30/26/14/11 times
#: at N = 128/256/512/1024, against 25/28/20/12 with the slope (r = 3:
#: 27/28/28/28 against 23/28/28/28)
EPS_WINDOW_FRACTION = 0.25

#: a power model's eps must stay below 1 - sigma, k's order, by this margin
EPS_MARGIN = 0.01

#: eps is clipped to [0, this] for the weighted L1 norm of g' and for the
#: second-kind weights; the Gronwall budget holds only if both use the
#: same eps
EPS_CLIP_MAX = 0.95

#: samples of g' near 0 whose spread is at most this times their largest
#: magnitude are constant to the rule's accuracy (g' errs by up to 1.1e-8
#: relative at interior nodes, more at the first nodes of steep meshes), so
#: their model's R^2, a ratio of two noise levels, is reported as 1: on the
#: tempered pair t^(-1/2) e^(-2t), b = 0.5, r = 3, the spread is 3.5e-7 at
#: N = 512 (R^2 0.9999997) and 5.2e-9 at N = 2048, where R^2 read -4.12
FLAT_RTOL = 1e-7


@dataclass(frozen=True, slots=True)
class EpsFit:
    """The model of g' near t = 0 (:func:`_near_origin_model`): C and eps of
    a power blow-up |g'| ~ C t^(-eps), or eps = 0 and C = |g'(t_1)| for a
    log or bounded g'. ``passed`` means it is conclusive and g' integrable;
    ``r_squared`` is its R^2 over the samples it was fitted and judged on,
    1 when those are constant to within FLAT_RTOL.
    """

    C: float
    eps: float
    passed: bool
    r_squared: float


@dataclass(frozen=True, slots=True)
class GscReport:
    """Everything measured about one pair on one mesh.

    ``sc_residual`` is max |g - 1| over interior nodes (small only for a
    classical pair); ``g0_defect`` is |g(0+) - 1| (see :func:`_gate_inputs`);
    ``gprime_l1`` integrates |g'| over [0, b] with the singular part
    handled by product weights, from the factored g' = t^(-eps) m(t) that
    a solve's sweep reads; ``route_diff`` is |delta| (:func:`compute_g`);
    ``gprime`` is g' at the interior nodes by the analytic rule
    (:func:`_gprime_terms`), or 0 for a classical pair, and NaN at t_0,
    where g' need not exist. ``gsc_pass`` is the generalized
    verdict: g(0) = 1 within tolerance, a conclusive model of g' near 0
    that makes it integrable (``eps_fit``), and a finite weighted L1 norm.
    """

    g: SampledFunction
    gprime: SampledFunction
    g0: float
    sc_residual: float
    g0_defect: float
    eps_fit: EpsFit
    gprime_l1: float
    route_diff: float
    gsc_pass: bool


def _defect(pair: SoninePair, M: int) -> float | None:
    """The g rule's delta = Q[K * k0] - 1, the error of the split-at-t/2
    rule on k's leading term k0 = S(0) t^(-sigma) where K convolves it to
    exactly 1 (:func:`sonine_kit.kernels._is_classical`), else None. A
    classical pair is its own leading term. The rule scales exactly with
    t, so one time serves every t."""
    k, K = pair.k, pair.K
    k0 = power_kernel(k.smooth0, k.local_exponent, pair.b) if k.smooth0 else None
    if k0 is None or not _is_classical(k0, K):
        return None
    return float(_pair_convolution(K, k0, np.array([K.b]), M)[0]) - 1.0


#: the refusal of a pair off the g' rule (:func:`_gprime_terms`) by the
#: gate of the condition and the solves (:func:`_gate_inputs`)
_NO_GPRIME = (
    "an analytic g' needs orders that sum to 1 and a known t S'(t) "
    "(KernelSpec.smooth_log_deriv) of every kernel but a pure power"
)


def _gprime_terms(pair: SoninePair) -> list[tuple[KernelSpec, KernelSpec]] | None:
    """The g' rule: the pairs whose convolutions sum to t g'(t), or None
    where there is none. Differentiating g(t) = t^(1 - sigma_K
    - sigma_k) int_0^1 (1 - z)^(-sigma_K) z^(-sigma_k) A(t (1 - z)) B(t z)
    dz, for K = t^(-sigma_K) A and k = t^(-sigma_k) B, under the integral
    gives t g' = (1 - sigma_K - sigma_k) g + K_A * k + K * k_B, where K_A
    has K's order and the bounded factor t A'(t), k_B likewise. So it
    needs orders that sum to 1 and ``smooth_log_deriv`` on every kernel
    but a pure power, which adds no term."""
    K, k = pair.K, pair.k
    if K.local_exponent != 1.0 - k.local_exponent or any(
        x.power_coef is None and x.smooth_log_deriv is None for x in (K, k)
    ):
        return None

    def derived(x: KernelSpec) -> KernelSpec:
        return replace(x, smooth_fn=x.smooth_log_deriv, smooth0=0.0, smooth_log_deriv=None)

    terms = [(derived(K), k)] if K.power_coef is None else []
    if k.power_coef is None:
        terms.append((K, derived(k)))
    return terms


def compute_g(pair: SoninePair, mesh: Mesh) -> tuple[SampledFunction, float]:
    """g = K * k at the interior mesh nodes, and ``route_diff``.

    g is :func:`convolve_pair`'s rule less delta (:func:`_defect`) where
    that exists; route_diff is |delta| where k also carries t S'(t), else
    NaN. Where g' is analytic (:func:`_gprime_terms`) and some factor
    varies, the rule runs at the quadrature's Chebyshev points in ln t and
    is interpolated to the mesh, where the interpolant resolves it (see
    :func:`sonine_kit.quadrature._in_log_t`). The mesh fixes the panel
    count, as in :func:`convolve_pair`. g(t_0) is NaN.
    """
    M = _pair_panels(pair.K, pair.k, mesh)
    return _g_on_mesh(pair, mesh, M, _defect(pair, M), _gprime_terms(pair))


def _g_on_mesh(pair: SoninePair, mesh: Mesh, M: int, delta, terms) -> tuple[SampledFunction, float]:
    """:func:`compute_g` given the panel count, :func:`_defect` and
    :func:`_gprime_terms`."""
    g = np.full(mesh.N + 1, np.nan)
    sample = _in_log_t if terms else (lambda f, t: f(t))
    g[1:] = sample(lambda t: _pair_convolution(pair.K, pair.k, t, M), mesh.nodes[1:])
    g[1:] -= delta or 0.0
    route = delta is not None and pair.k.smooth_log_deriv is not None
    return SampledFunction(mesh=mesh, values=g), abs(delta) if route else float("nan")


def _gprime_from_terms(terms: list, flat: np.ndarray, M: int) -> np.ndarray:
    """g' at strictly positive times, increasing ones when there are 4 *
    LOG_T_POINTS or more, from the g' rule's ``terms``
    (:func:`_gprime_terms`) with ``M`` panels per half. t g', which goes
    as t ln t near 0, is sampled in ln t (see
    :func:`sonine_kit.quadrature._in_log_t`) and then divided by t."""

    def t_gprime(t):
        return sum((_pair_convolution(A, B, t, M) for A, B in terms), np.zeros(len(t)))

    return _in_log_t(t_gprime, flat) / flat


def _window_slope(tw: np.ndarray, gp: np.ndarray) -> float:
    """A log-singular g''s eps: minus the slope of ln |g'| against ln t on
    the window, clipped to [0, EPS_CLIP_MAX]; 0 below three nonzero g'."""
    mask = np.abs(gp) > 0.0
    if int(mask.sum()) < 3:
        return 0.0
    slope = np.polyfit(np.log(tw[mask]), np.log(np.abs(gp[mask])), 1)[0]
    return float(np.clip(-float(slope), 0.0, EPS_CLIP_MAX))


def _bounded_factor(
    gprime: SampledFunction, eps: float, m0: float | None = None
) -> SampledFunction:
    """m = g' t^eps at the nodes, the bounded factor of g' = t^(-eps) m that
    the L1 norm of g' and the sweep read. m(0) is ``m0`` when given, a power
    model's limit; else 0 for eps > 0, a log blow-up's limit, and for eps =
    0 g'(t_0) if finite, else the first panel continued linearly."""
    nodes = gprime.mesh.nodes
    m = np.empty(len(nodes))
    m[1:] = gprime.values[1:] * nodes[1:] ** eps
    if m0 is not None:
        m[0] = m0
    elif eps > 0.0:
        m[0] = 0.0
    elif np.isfinite(gprime.values[0]):
        m[0] = gprime.values[0]
    else:
        m[0] = _extrapolate_to_zero(nodes, m)
    return SampledFunction(mesh=gprime.mesh, values=m)


def _near_origin_model(
    t: np.ndarray, y: np.ndarray, sigma: float
) -> tuple[float, EpsFit, float | None]:
    """The integral of g' over [0, t_1] under a model of g' near 0, the
    model as an :class:`EpsFit`, and a power model's m(0) = lim s^eps g'
    (else None), from ``y``, g' at the nodes ``t``.

    In x = s / t_1 two models compete. c0 + c1 ln x + c2 (x - 1), fitted
    to the first three samples, holds a log blow-up, the profile pair's,
    and a bounded g'. C x^(-eps) with eps in [0, EPS_CLIP_MAX], fitted to
    the first two where they fall off as such a power can, is exact for a
    power blow-up, the two-term pair's. The model that predicts the
    fourth sample more closely is chosen. With fewer samples there is
    nothing to judge by, and the first model is read without c2. A log or
    bounded g' is integrable; a power, when eps <= 1 - sigma - EPS_MARGIN
    for k's order ``sigma``. Too few samples, or first ones that
    fall off as fast as x^(-EPS_CLIP_MAX), are not conclusive.
    """
    x, y = t[1:5] / t[1], y[1:5]
    A = np.column_stack([np.ones_like(x), np.log(x), x - 1.0])
    judged = len(y) == 4
    k = 3 if judged else min(len(y), 2)
    c = np.linalg.solve(A[:k, :k], y[:k])
    models = [(A[:, :k] @ c, float(c @ np.array([1.0, -1.0, -0.5])[:k]), (0.0, None))]

    x2 = float(x[1])  # a power's second sample over its first is x2^(-eps)
    # by signs and magnitudes: the product y[0] y[1] can overflow
    falling = judged and np.sign(y[0]) == np.sign(y[1]) != 0.0 and abs(y[1]) < abs(y[0])
    steep = falling and y[1] / y[0] <= x2**-EPS_CLIP_MAX
    if falling and not steep:
        lo, hi = 0.0, EPS_CLIP_MAX
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:  # bisection, down to adjacent floats
            lo, hi = (mid, hi) if x2**-mid > y[1] / y[0] else (lo, mid)
            mid = 0.5 * (lo + hi)
        C = float(y[0])  # the power is 1 at x = 1
        models.append((C * x**-lo, C / (1.0 - lo), (lo, float(C * t[1] ** lo))))
    if judged:
        models.sort(key=lambda model: abs(model[0][3] - y[3]))
    fit, integral, (eps, m0) = models[0]
    n = len(y) if judged else k
    top = np.max(np.abs(y[:n]))
    if np.ptp(y[:n]) <= FLAT_RTOL * top:
        r2 = 1.0
    else:
        # scaled by a power of two, exactly, so the squares of a tiny g'
        # do not underflow to 0 / 0
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        res, dev = (fit[:n] - y[:n]) * scale, (y[:n] - y[:n].mean()) * scale
        r2 = 1.0 - float(np.sum(res**2) / np.sum(dev**2))
    if m0 is None:  # a log or bounded g'
        return float(t[1] * integral), EpsFit(abs(float(y[0])), eps, judged and not steep, r2), None
    passed = eps <= 1.0 - sigma - EPS_MARGIN
    return float(t[1] * integral), EpsFit(abs(m0), eps, passed, r2), m0


@dataclass(frozen=True, slots=True)
class _GateInputs:
    """The part of a :class:`GscReport` a second-kind solve reads (see
    :func:`_gate_inputs`). g' is factored as t^(-eps) m(t): ``eps`` and
    ``m``, m(0) included, are what ``gprime_l1`` was computed from and
    what the sweep reads. :func:`check_gsc`'s g reuses the panel count
    ``M``, ``terms`` (:func:`_gprime_terms`) and ``delta`` (:func:`_defect`,
    left None for a classical pair, whose g(t_1) is 1)."""

    gprime: SampledFunction
    g0: float
    g0_defect: float
    eps_fit: EpsFit
    eps: float
    m: SampledFunction
    gprime_l1: float
    M: int
    terms: list | None
    delta: float | None


def _gate_inputs(pair: SoninePair, mesh: Mesh) -> _GateInputs:
    """g(0+), g' at the nodes, the model of g' near 0 and the weighted L1
    norm of g', as :func:`check_gsc` reports them.

    g' is 0 at the interior nodes for a classical pair and else the
    analytic rule's (:func:`_gprime_from_terms`) with the mesh's panel
    count, and NaN at t_0 for every pair; a pair off that rule
    (:func:`_gprime_terms`) is refused with a DomainError naming
    ``smooth_log_deriv``. g on the mesh is not computed.

    One model of g' near 0 (:func:`_near_origin_model`), from g' at the
    first nodes, gives g(0+) as g(t_1) less its integral over [0, t_1]
    (g(t_1) is 1 for a classical pair, else one row of the g rule less
    delta (:func:`_defect`)); the verdict, whose eps margin reads k's
    order; and g' = t^(-eps) m(t) for the L1 norm and
    the sweep: a power's own eps and m(0), or for a log or bounded g' the
    window slope (:func:`_window_slope`) and :func:`_bounded_factor`'s m(0).

    Refuses what :func:`convolve_pair` refuses: kernels on different
    intervals and a mesh past their end; a mesh of one panel, since the
    model of g' needs two interior nodes; and a g(t_1) or an interior g'
    that is not finite.
    """
    M = _pair_panels(pair.K, pair.k, mesh)
    if mesh.N < 2:
        raise DomainError("the g(0+) reading needs at least two interior nodes")
    nodes = mesh.nodes
    interior = nodes[1:]
    terms = _gprime_terms(pair)
    delta = None
    if pair.is_classical:
        g_first = 1.0
        gp = np.r_[np.nan, np.zeros(mesh.N)]
    elif terms is None:
        raise DomainError(_NO_GPRIME)
    else:
        delta = _defect(pair, M)
        g_first = float(_pair_convolution(pair.K, pair.k, interior[:1], M)[0]) - (delta or 0.0)
        gp = np.r_[np.nan, _gprime_from_terms(terms, interior, M)]
    if not (math.isfinite(g_first) and np.all(np.isfinite(gp[1:]))):
        raise DomainError("g at the first node and g' at the interior nodes must be finite")
    integral, eps_fit, m0 = _near_origin_model(nodes, gp, pair.k.local_exponent)
    g0 = g_first - integral
    window = (interior <= pair.b * EPS_WINDOW_FRACTION) & (np.arange(1, mesh.N + 1) >= 2)
    eps = eps_fit.eps if m0 is not None else _window_slope(interior[window], gp[1:][window])
    gprime = SampledFunction(mesh=mesh, values=gp)
    m = _bounded_factor(gprime, eps, m0)
    w_l1 = _mirrored_moments(nodes - nodes[0], np.diff(nodes), 1.0 - eps)
    return _GateInputs(
        gprime=gprime,
        g0=g0,
        g0_defect=abs(g0 - 1.0),
        eps_fit=eps_fit,
        eps=eps,
        m=m,
        gprime_l1=float(math.fsum(w_l1 * np.abs(m.values))),
        M=M,
        terms=terms,
        delta=delta,
    )


def check_gsc(pair: SoninePair, mesh: Mesh, g0_tol: float = G0_TOL_DEFAULT) -> GscReport:
    """Measure g = K * k on the mesh and decide the generalized condition.

    The verdict requires |g(0+) - 1| <= g0_tol, a model of g' near 0 that
    makes it integrable, and a finite weighted L1 norm of g' (see
    :func:`_gate_inputs`), which refuses a pair that is neither classical
    nor on the analytic g' rule, and g itself is :func:`compute_g`'s.
    This is the full diagnostic; a solve reads only the g(0+), g', model
    and L1 parts and does not compute g on the mesh.
    """
    if not math.isfinite(g0_tol) or g0_tol <= 0.0:
        raise DomainError(f"g0_tol must be positive, got {g0_tol!r}")
    gate = _gate_inputs(pair, mesh)
    delta = _defect(pair, gate.M) if pair.is_classical else gate.delta
    g, route_diff = _g_on_mesh(pair, mesh, gate.M, delta, gate.terms)
    sc_residual = float(np.max(np.abs(g.values[1:] - 1.0)))
    gsc_pass = bool(
        gate.g0_defect <= g0_tol and gate.eps_fit.passed and math.isfinite(gate.gprime_l1)
    )
    return GscReport(
        g=g,
        gprime=gate.gprime,
        g0=gate.g0,
        sc_residual=sc_residual,
        g0_defect=gate.g0_defect,
        eps_fit=gate.eps_fit,
        gprime_l1=gate.gprime_l1,
        route_diff=route_diff,
        gsc_pass=gsc_pass,
    )
