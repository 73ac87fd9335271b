"""Generalized Sonine condition: computing g = K * k and checking it.

g and g' come from the quadrature's split-at-t/2 rule for two singular
factors (:func:`sonine_kit.quadrature.convolve_pair`). For k = t^(-sigma)
S(t) with S(0) = 1 and K = t^(sigma - 1) / kappa(sigma), the classical
part t^(-sigma) of k convolves with K to exactly 1; the rule's error on
it, delta, is the same at every t, and the substituted g subtracts it
(``route_diff`` = |delta|); so does the g of a pair of pure powers that
convolve to 1. g' is the same rule on t g'(t) = (K * q)(t).
On a mesh, g and t g' are smooth in ln t (they go as t ln t and t near 0),
so the rule runs at the quadrature's 64 Chebyshev points in ln t and an
interpolant carries it to every node, unless its coefficients show it
unresolved (:func:`sonine_kit.quadrature._in_log_t`); g at the geometric
times of the g(0+) fit, delta and :func:`compute_g_substituted` stay
direct sums.

The condition has three parts: g(0) = 1 (checked through extrapolation of
g along a geometric sequence of times), an integrable derivative (checked
through a power-law fit of |g'| near 0), and a finite weighted L1 norm of
g' used later as a stability budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec, SoninePair, classical_abel_kernel, kappa
from .mesh import Mesh, SampledFunction
from .quadrature import (
    REF_PANELS,
    _check_panels,
    _in_log_t,
    _moments,
    _pair_convolution,
    _pair_panels,
    convolve_pair,
)

__all__ = [
    "EpsFit",
    "GscReport",
    "compute_g",
    "compute_g_substituted",
    "estimate_gprime",
    "estimate_g0",
    "check_gsc",
]

#: default tolerance on |g(0) - 1| for the overall verdict
G0_TOL_DEFAULT = 1e-3

#: the |g'| power fit uses nodes with t <= b * EPS_WINDOW_FRACTION
EPS_WINDOW_FRACTION = 0.25

#: minimum R^2 for the power fit to count as conclusive
EPS_FIT_MIN_R2 = 0.9

#: fitted exponent must stay below 1 - sigma, k's order, by this margin
EPS_MARGIN = 0.01

#: |g'| below this is treated as identically zero
GPRIME_FLOOR = 1e-12

#: the fitted eps is clipped to [0, this] for the weighted L1 norm of g'
#: and for the second-kind weights; the Gronwall budget holds only if both
#: use the same eps
EPS_CLIP_MAX = 0.95

#: fitted amplitude below this means g' is negligible however it scales
AMPLITUDE_FLOOR = 1e-6

_GEOMETRIC_LEVELS = range(2, 13)


@dataclass(frozen=True, slots=True)
class EpsFit:
    """Result of fitting |g'(t)| ~ C * t^(-eps) near t = 0.

    ``passed`` means the fit is conclusive and the exponent is compatible
    with an integrable derivative.
    """

    C: float
    eps: float
    passed: bool
    r_squared: float


@dataclass(frozen=True, slots=True)
class GscReport:
    """Everything measured about one pair on one mesh.

    ``sc_residual`` is max |g - 1| over interior nodes (small only for a
    classical pair); ``g0_defect`` is |g(0+) - 1| from extrapolation;
    ``gprime_l1`` integrates |g'| over [0, b] with the singular part
    handled by product weights; ``route_diff`` is |delta|, the rule's error
    on the classical part that the substituted g takes out (NaN for a pair
    without the substituted route). ``gsc_pass`` is the generalized
    verdict: g(0) = 1 within tolerance, a conclusive integrability fit,
    and a finite weighted L1 norm.
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


def _substituted_route(pair: SoninePair, required: bool = False) -> float | None:
    """sigma = k.local_exponent when the substituted route computes pair.K
    * pair.k, else None, or DomainError when ``required``.

    The route splits k = t^(-sigma) S, whose classical part t^(-sigma)
    convolves with K = t^(sigma - 1) / kappa(sigma) to exactly 1, so it
    applies only when S(0) = k.smooth0 is 1, pair.K is that power and t
    S'(t) is known (``k.smooth_log_deriv``); every other pair, a K scaled
    or replaced, takes the pointwise route.
    """
    k, K, sigma = pair.k, pair.K, pair.k.local_exponent
    if k.smooth_log_deriv is not None and k.smooth0 == 1.0 and (
        K.local_exponent == 1.0 - sigma and K.power_coef == 1.0 / kappa(sigma)
    ):
        return sigma
    if required:
        raise DomainError(
            "this route needs k = t^(-sigma) S(t) with S(0) = 1 and a known "
            "t S'(t) (KernelSpec.smooth_log_deriv), and K = t^(sigma - 1) / "
            "kappa(sigma); use convolve_pair for kernels given only pointwise"
        )
    return None


def _classical_defect(K: KernelSpec, k: KernelSpec, M: int) -> float:
    """delta = Q[K * k] - 1, the error of the split-at-t/2 rule on two
    kernels of constant bounded factors whose exact convolution is 1
    (:attr:`SoninePair.is_classical`).

    The rule scales exactly with t, so one time serves every t.
    """
    return float(_pair_convolution(K, k, np.array([K.b]), M)[0]) - 1.0


def compute_g_substituted(pair: SoninePair, t, M: int = REF_PANELS):
    """g(t) for a pair on the substituted route (:func:`_substituted_route`):
    :func:`convolve_pair`'s rule minus its error delta on the classical
    part t^(-sigma) of k (:func:`_classical_defect`).

    With k = t^(-sigma) (1 + (S - 1)), that leaves the rule's error on the
    small, well-behaved correction K * t^(-sigma) (S - 1) alone.

    ``t`` may be a scalar or an array inside (0, b]; the result matches
    its shape. ``M`` defaults to REF_PANELS, not a mesh's min(N/2, 256):
    below N = 512 these values differ from :func:`check_gsc`'s.
    """
    sigma = _substituted_route(pair, required=True)
    _check_panels(M)
    t_arr = np.asarray(t, dtype=float)
    flat = np.ravel(t_arr)
    if not np.all((flat > 0.0) & (flat <= pair.b * (1.0 + 1e-12))):  # NaN fails both
        raise DomainError(f"t must lie in (0, {pair.b!r}]")
    delta = _classical_defect(pair.K, classical_abel_kernel(sigma, pair.b), M)
    out = _pair_convolution(pair.K, pair.k, flat, M) - delta
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def compute_g(pair: SoninePair, mesh: Mesh) -> tuple[SampledFunction, float]:
    """g = K * k at the interior mesh nodes, and ``route_diff``.

    g is :func:`convolve_pair`'s, minus the classical defect delta where
    the substituted route applies (see :func:`compute_g_substituted`) or
    the pair is classical (:attr:`SoninePair.is_classical`);
    route_diff is |delta| on the substituted route and NaN elsewhere. On
    that route the rule runs at the quadrature's Chebyshev points in ln t
    and is interpolated to the mesh, where the interpolant resolves it
    (see :func:`sonine_kit.quadrature._in_log_t`). The mesh fixes the
    panel count, as in :func:`convolve_pair`. g(t_0) is NaN.
    """
    M = _pair_panels(pair.K, pair.k, mesh, None)
    sigma = _substituted_route(pair)
    if sigma is None:
        g = convolve_pair(pair.K, pair.k, mesh, M=M)
        if pair.is_classical:
            g = SampledFunction(mesh=mesh, values=g.values - _classical_defect(pair.K, pair.k, M))
        return g, float("nan")
    delta = _classical_defect(pair.K, classical_abel_kernel(sigma, pair.b), M)
    g = np.full(mesh.N + 1, np.nan)
    g[1:] = _in_log_t(lambda t: _pair_convolution(pair.K, pair.k, t, M), mesh.nodes[1:])
    g[1:] -= delta
    return SampledFunction(mesh=mesh, values=g), abs(delta)


def _gprime_flat(pair: SoninePair, flat: np.ndarray, M: int) -> np.ndarray:
    """g' at strictly positive times, increasing ones when there are 4 *
    LOG_T_POINTS or more. Differentiating the substituted form under the
    integral (d/dt S(t z) = z S'(t z)) and putting s = t z back gives
    t g'(t) = (K * q)(t) for q(s) = s^(1 - sigma) S'(s), a kernel of
    local order sigma whose bounded factor s S'(s), k.smooth_log_deriv,
    vanishes at 0. t g', which goes as t ln t near 0, is sampled in ln t
    (see :func:`sonine_kit.quadrature._in_log_t`) and then divided by t."""
    sigma = _substituted_route(pair, required=True)
    q = KernelSpec(
        smooth_fn=pair.k.smooth_log_deriv,
        smooth0=0.0,
        local_exponent=sigma,
        b=pair.b,
    )
    return _in_log_t(lambda t: _pair_convolution(pair.K, q, t, M), flat) / flat


def estimate_gprime(pair: SoninePair, mesh: Mesh) -> SampledFunction:
    """g' at the interior mesh nodes of a pair on the substituted route,
    from the analytically differentiated substituted form (no finite
    differencing), with the mesh's panel count, as in :func:`check_gsc`.

    g'(t_0) is undefined (NaN): the derivative need not exist at 0, only
    be integrable near it.
    """
    vals = np.full(mesh.N + 1, np.nan)
    vals[1:] = _gprime_flat(pair, mesh.nodes[1:], _pair_panels(pair.K, pair.k, mesh, None))
    return SampledFunction(mesh=mesh, values=vals)


def estimate_g0(samples) -> float:
    """Extrapolate g to t = 0 from (t, g(t)) pairs on a decreasing
    geometric sequence of times.

    Least-squares fit of the near-origin model g(t) = g0 + c1 t |ln t| +
    c2 t (see :func:`_fit_g0`). Needs at least three strictly decreasing
    positive times with roughly geometric spacing.
    """
    return _fit_g0(samples)[0]


def _fit_g0(samples) -> tuple[float, float, float]:
    """(g0, c1, c2) of :func:`estimate_g0`'s fit.

    For a variable exponent, g(t) = 1 + a t ln t + b t + O(t ln^2 t) near 0
    with a = -alpha'(0) B(2 - alpha0, alpha0) / kappa(alpha0), so c1 fits
    -a; c2 also absorbs the t ln^2 t term, which the samples cannot tell
    from t. A fit without the t basis function leaves b and that term in
    g0: 2.6e-4 off on alpha(t) = 0.5 + t/5 over (0, 0.5], against 9e-7.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise DomainError("need at least three (t, g) samples")
    t = np.array([float(p[0]) for p in pts])
    g = np.array([float(p[1]) for p in pts])
    if np.any(~np.isfinite(t)) or np.any(~np.isfinite(g)) or np.any(t <= 0.0):
        raise DomainError("samples must be finite with strictly positive times")
    ratios = t[1:] / t[:-1]
    if np.any(ratios >= 0.95):
        raise DomainError(
            "times must decrease geometrically (each at most 0.95 of the last); "
            "extrapolation from nearly equal times is ill-conditioned"
        )
    # centered regression on the basis {1, t |ln t|, t}: exact when the
    # data is constant, equivalent to least squares otherwise
    phi = np.column_stack([t * np.abs(np.log(t)), t])
    n = len(t)
    phi_bar = phi.mean(axis=0)
    g_bar = math.fsum(g) / n
    c, _, rank, _ = np.linalg.lstsq(phi - phi_bar, g - g_bar, rcond=None)
    if rank < 2:
        raise DomainError("extrapolation basis is degenerate on these times")
    return float(g_bar - phi_bar @ c), float(c[0]), float(c[1])


def _fit_eps(tw: np.ndarray, gp: np.ndarray, sigma: float | None) -> EpsFit:
    """Power-law fit |g'| ~ C t^(-eps) on the near-origin window."""
    amax = float(np.max(np.abs(gp))) if len(gp) else 0.0
    if amax <= GPRIME_FLOOR:
        return EpsFit(C=0.0, eps=0.0, passed=True, r_squared=1.0)
    mask = np.abs(gp) > 0.0
    if int(mask.sum()) < 3:
        return EpsFit(C=amax, eps=0.0, passed=False, r_squared=0.0)
    x = np.log(tw[mask])
    y = np.log(np.abs(gp[mask]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    eps = -float(slope)
    C = float(math.exp(intercept))
    if C <= AMPLITUDE_FLOOR:
        return EpsFit(C=C, eps=0.0, passed=True, r_squared=r2)
    ok = r2 >= EPS_FIT_MIN_R2
    if sigma is not None:
        ok = ok and eps <= 1.0 - sigma - EPS_MARGIN
    return EpsFit(C=C, eps=eps, passed=bool(ok), r_squared=r2)


def _fd_gprime(nodes: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Differences of g at the interior nodes of a mesh (N >= 2): forward
    at node 1, centred inside, backward at node N; NaN at t_0."""
    out = np.full(len(nodes), np.nan)
    out[1] = (g[2] - g[1]) / (nodes[2] - nodes[1])
    out[2:-1] = (g[3:] - g[1:-2]) / (nodes[3:] - nodes[1:-2])
    out[-1] = (g[-1] - g[-2]) / (nodes[-1] - nodes[-2])
    return out


@dataclass(frozen=True, slots=True)
class _GateInputs:
    """The part of a :class:`GscReport` a second-kind solve reads (see
    :func:`_gate_inputs`). ``eps`` is the fitted eps clipped to [0,
    EPS_CLIP_MAX], the one ``gprime_l1`` was computed with and the sweep
    uses. ``g`` is the samples of g on the mesh when g' was differenced
    from them, else None."""

    gprime: SampledFunction
    g0: float
    g0_defect: float
    eps_fit: EpsFit
    eps: float
    gprime_l1: float
    g: SampledFunction | None


def _gate_inputs(pair: SoninePair, mesh: Mesh) -> _GateInputs:
    """g(0+) from the geometric samples, g' at the nodes, its eps fit and
    its weighted L1 norm, as :func:`check_gsc` reports them.

    g itself on the mesh is computed only for a pair the substituted route
    does not apply to (:func:`_substituted_route`) and that is not
    classical, whose g' is differenced from it. The eps fit's margin reads
    k's order when k has a ``smooth_log_deriv``.
    Refuses what :func:`convolve_pair` refuses: kernels on different
    intervals and a mesh past their end.
    """
    M = _pair_panels(pair.K, pair.k, mesh, None)
    nodes = mesh.nodes
    interior = nodes[1:]
    substituted = _substituted_route(pair) is not None
    t_geo = pair.b * 0.5 ** np.arange(
        _GEOMETRIC_LEVELS.start, _GEOMETRIC_LEVELS.stop, dtype=float
    )
    g = None
    if pair.is_classical:
        g_geo = np.ones_like(t_geo)
        gp = np.zeros(mesh.N + 1)
    elif substituted:
        g_geo = compute_g_substituted(pair, t_geo, M=M)
        gp = np.full(mesh.N + 1, np.nan)
        gp[1:] = _gprime_flat(pair, interior, M)
    else:
        g_geo = _pair_convolution(pair.K, pair.k, t_geo, M)
        g = convolve_pair(pair.K, pair.k, mesh, M=M)
        gp = _fd_gprime(nodes, g.values)
    g0 = estimate_g0(zip(t_geo, g_geo))

    window = (interior <= pair.b * EPS_WINDOW_FRACTION) & (np.arange(1, mesh.N + 1) >= 2)
    sigma = pair.k.local_exponent if pair.k.smooth_log_deriv is not None else None
    eps_fit = _fit_eps(interior[window], gp[1:][window], sigma)

    eps = float(np.clip(eps_fit.eps, 0.0, EPS_CLIP_MAX))
    w_l1 = _moments(nodes - nodes[0], np.diff(nodes), 1.0 - eps, "left")
    m_fac = np.zeros(mesh.N + 1)
    m_fac[1:] = np.abs(gp[1:]) * interior**eps
    gprime_l1 = float(math.fsum(w_l1 * m_fac)) if np.all(np.isfinite(gp[1:])) else float("nan")
    return _GateInputs(
        gprime=SampledFunction(mesh=mesh, values=gp),
        g0=g0,
        g0_defect=abs(g0 - 1.0),
        eps_fit=eps_fit,
        eps=eps,
        gprime_l1=gprime_l1,
        g=g,
    )


def check_gsc(pair: SoninePair, mesh: Mesh, g0_tol: float = G0_TOL_DEFAULT) -> GscReport:
    """Measure g = K * k on the mesh and decide the generalized condition.

    The verdict requires |g(0+) - 1| <= g0_tol, a conclusive power fit of
    |g'| compatible with integrability, and a finite weighted L1 norm of
    g'. Where the substituted route applies it provides g(0) samples, the
    analytic g' and g itself (see :func:`compute_g`).
    This is the full diagnostic; a solve reads only the g(0+), g', fit and
    L1 parts and does not compute g on the mesh.
    """
    if not math.isfinite(g0_tol) or g0_tol <= 0.0:
        raise DomainError(f"g0_tol must be positive, got {g0_tol!r}")
    gate = _gate_inputs(pair, mesh)
    g, route_diff = (gate.g, float("nan")) if gate.g is not None else compute_g(pair, mesh)
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
