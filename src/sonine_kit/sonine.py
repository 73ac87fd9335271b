"""Generalized Sonine condition: computing g = K * k and checking it.

Two independent routes to g exist for variable-exponent pairs: the direct
double-singular convolution (:func:`sonine_kit.quadrature.convolve_pair`,
re-exported here so callers take both routes from this module) and a
substituted single-integral form implemented here, obtained by
rescaling the convolution to a fixed reference interval. Their agreement
is reported as ``route_diff`` and is itself a correctness check.

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
from .kernels import SoninePair
from .mesh import Mesh, SampledFunction, default_grading
from .quadrature import (
    _check_panels,
    _default_panels,
    _moments,
    _pair_convolution,
    _pair_panels,
    _reference_rule,
    _row_blocks,
    convolve_pair,
)

__all__ = [
    "EpsFit",
    "GscReport",
    "compute_g_substituted",
    "estimate_gprime",
    "estimate_g0",
    "check_gsc",
    "convolve_pair",
]

#: default tolerance on |g(0) - 1| for the overall verdict
G0_TOL_DEFAULT = 1e-3

#: the |g'| power fit uses nodes with t <= b * EPS_WINDOW_FRACTION
EPS_WINDOW_FRACTION = 0.25

#: minimum R^2 for the power fit to count as conclusive
EPS_FIT_MIN_R2 = 0.9

#: fitted exponent must stay below 1 - alpha(0) by this margin
EPS_MARGIN = 0.01

#: |g'| below this is treated as identically zero
GPRIME_FLOOR = 1e-12

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
    handled by product weights; ``route_diff`` compares the two g routes
    (NaN when only one route applies). ``gsc_pass`` is the generalized
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


def _require_profile(pair: SoninePair) -> tuple:
    af = pair.exponent
    if af is None:
        raise DomainError(
            "this route needs an exponent profile attached to the pair; "
            "use convolve_pair for kernels given only pointwise"
        )
    return af, float(af.eval(0.0))


def _em1(af, alpha0: float, x: np.ndarray) -> np.ndarray:
    """E(x) - 1 for x > 0, where E(x) = x^(alpha0 - alpha(x)) tends to 1 at 0."""
    return np.expm1((alpha0 - af.eval(x)) * np.log(x))


def _dE(af, alpha0: float, x: np.ndarray) -> np.ndarray:
    """Derivative of E(x) = x^(alpha0 - alpha(x)) for x > 0.

    E'(x) = E(x) * (-alpha'(x) ln x + (alpha0 - alpha(x)) / x); the second
    term tends to -alpha'(0), the first diverges only logarithmically.
    """
    x = np.asarray(x, dtype=float)
    lx = np.log(x)
    q = alpha0 - af.eval(x)
    return np.exp(q * lx) * (-af.deriv(x) * lx + q / x)


def _substituted_integral(pair: SoninePair, t, M: int, fn, power: int) -> np.ndarray:
    """(1/kappa) int_0^1 fn(t z) z^(power - alpha0) (1 - z)^(alpha0 - 1) dz
    at every time of ``t``, raveled.

    The integral is split at z = 1/2; on each half a graded reference rule
    absorbs the endpoint singularity, and its weights times the rest of
    the z-only factor make one weight vector. For a block of times the
    values of fn form one matrix per half, summed by a matrix-vector
    product.
    """
    af, alpha0 = _require_profile(pair)
    _check_panels(M)
    flat = np.ravel(np.asarray(t, dtype=float))
    if np.any(~np.isfinite(flat)) or np.any(flat <= 0.0) or np.any(
        flat > pair.b * (1.0 + 1e-12)
    ):
        raise DomainError(f"t must lie in (0, {pair.b!r}]")
    r_ref = default_grading(alpha0, 1.0 - alpha0)
    vL, wL = _reference_rule(alpha0, M, r_ref)
    vR, wR = _reference_rule(1.0 - alpha0, M, r_ref)
    c = 0.5
    # z = 0 adds nothing (E(0) - 1 = 0 for g, the factor z vanishes for g'),
    # so the left half skips it and fn only sees positive arguments
    zL = c * vL[1:]  # z in (0, 1/2], singular weight z^(-alpha0)
    zR = 1.0 - c * vR  # z in [1/2, 1], singular weight (1 - z)^(alpha0 - 1)
    wl = c ** (1.0 - alpha0) * wL[1:] * zL**power * (1.0 - zL) ** (alpha0 - 1.0)
    wr = c**alpha0 * wR * zR ** (power - alpha0)
    out = np.empty(len(flat))
    for rows in _row_blocks(len(flat), M + 1):
        tb = flat[rows, None]
        out[rows] = fn(af, alpha0, tb * zL) @ wl + fn(af, alpha0, tb * zR) @ wr
    return out / pair.kappa


def compute_g_substituted(pair: SoninePair, t, M: int = 256):
    """g(t) for a variable-exponent pair via the rescaled one-integral form.

    Substituting s = t z in (K * k)(t) turns the convolution into an
    integral over the fixed interval [0, 1] whose kernel-free part has
    unit mass. Writing the remaining factor as 1 + (E - 1) makes the
    constant-exponent case exact and leaves a small, well-behaved
    correction to integrate: endpoint singularities are absorbed by
    product weights on graded reference meshes, one per endpoint, split
    at z = 1/2.

    ``t`` may be a scalar or an array inside (0, b]; the result matches
    its shape.
    """
    t_arr = np.asarray(t, dtype=float)
    out = 1.0 + _substituted_integral(pair, t_arr, M, _em1, 0)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _gprime_flat(pair: SoninePair, flat: np.ndarray, M: int) -> np.ndarray:
    """g' at strictly positive times, by differentiating under the integral:
    d/dt E(t z) = z E'(t z)."""
    return _substituted_integral(pair, flat, M, _dE, 1)


def estimate_gprime(pair: SoninePair, mesh: Mesh, M: int = 256) -> SampledFunction:
    """g' at the interior mesh nodes for a variable-exponent pair, from the
    analytically differentiated substituted form (no finite differencing).

    g'(t_0) is undefined (NaN): the derivative need not exist at 0, only
    be integrable near it.
    """
    if mesh.b > pair.b * (1.0 + 1e-12):
        raise DomainError(f"mesh endpoint {mesh.b!r} exceeds the pair's interval")
    vals = np.full(mesh.N + 1, np.nan)
    vals[1:] = _gprime_flat(pair, mesh.nodes[1:], M)
    return SampledFunction(mesh=mesh, values=vals)


def estimate_g0(samples) -> float:
    """Extrapolate g to t = 0 from (t, g(t)) pairs on a decreasing
    geometric sequence of times.

    Least-squares fit of the near-origin model g(t) = g0 + c * t |ln t|,
    whose second basis function is the leading deviation a variable
    exponent produces. Needs at least three strictly decreasing positive
    times with roughly geometric spacing.
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
    # centered simple regression on the basis {1, t |ln t|}: exact when the
    # data is constant, equivalent to least squares otherwise
    phi = t * np.abs(np.log(t))
    n = len(t)
    phi_bar = math.fsum(phi) / n
    g_bar = math.fsum(g) / n
    dphi = phi - phi_bar
    den = math.fsum(dphi * dphi)
    if den == 0.0:
        raise DomainError("extrapolation basis is degenerate on these times")
    c = math.fsum(dphi * (g - g_bar)) / den
    return float(g_bar - c * phi_bar)


def _fit_eps(tw: np.ndarray, gp: np.ndarray, alpha0: float | None) -> EpsFit:
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
    if alpha0 is not None:
        ok = ok and eps <= 1.0 - alpha0 - EPS_MARGIN
    return EpsFit(C=C, eps=eps, passed=bool(ok), r_squared=r2)


def _fd_gprime(nodes: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Centered differences of g at interior nodes; NaN where undefined."""
    n = len(nodes)
    out = np.full(n, np.nan)
    for i in range(1, n):
        if i == 1 or not np.isfinite(g[i - 1]):
            lo = i
        else:
            lo = i - 1
        hi = i + 1 if i < n - 1 else i
        if hi > lo and np.isfinite(g[lo]) and np.isfinite(g[hi]):
            out[i] = (g[hi] - g[lo]) / (nodes[hi] - nodes[lo])
    return out


@dataclass(frozen=True, slots=True)
class _GateInputs:
    """The part of a :class:`GscReport` a second-kind solve reads (see
    :func:`_gate_inputs`). ``g`` is the samples of g on the mesh when g'
    was differenced from them, else None."""

    gprime: SampledFunction
    g0: float
    g0_defect: float
    eps_fit: EpsFit
    gprime_l1: float
    g: SampledFunction | None


def _gate_inputs(pair: SoninePair, mesh: Mesh, M: int | None = None) -> _GateInputs:
    """g(0+) from the geometric samples, g' at the nodes, its eps fit and
    its weighted L1 norm, as :func:`check_gsc` reports them.

    g itself on the mesh is computed only for a pair given pointwise (no
    exponent profile, not classical), whose g' is differenced from it.
    Refuses what :func:`convolve_pair` refuses: kernels on different
    intervals, a mesh past their end and a bad ``M``.
    """
    m_used = _pair_panels(pair.K, pair.k, mesh, M)
    nodes = mesh.nodes
    interior = nodes[1:]
    has_profile = pair.exponent is not None
    t_geo = pair.b * 0.5 ** np.arange(
        _GEOMETRIC_LEVELS.start, _GEOMETRIC_LEVELS.stop, dtype=float
    )
    g = None
    if pair.is_classical:
        g_geo = np.ones_like(t_geo)
        gp = np.zeros(mesh.N + 1)
    elif has_profile:
        g_geo = compute_g_substituted(pair, t_geo, M=m_used)
        gp = np.full(mesh.N + 1, np.nan)
        gp[1:] = _gprime_flat(pair, interior, m_used)
    else:
        g_geo = _pair_convolution(pair.K, pair.k, t_geo, m_used)
        g = convolve_pair(pair.K, pair.k, mesh, M=m_used)
        gp = _fd_gprime(nodes, g.values)
    g0 = estimate_g0(zip(t_geo, g_geo))

    window = (interior <= pair.b * EPS_WINDOW_FRACTION) & (np.arange(1, mesh.N + 1) >= 2)
    alpha0 = float(pair.exponent.eval(0.0)) if has_profile else None
    eps_fit = _fit_eps(interior[window], gp[1:][window], alpha0)

    eps_c = float(np.clip(eps_fit.eps, 0.0, 0.95))
    w_l1 = _moments(nodes - nodes[0], np.diff(nodes), 1.0 - eps_c, "linear", "left")
    m_fac = np.zeros(mesh.N + 1)
    m_fac[1:] = np.abs(gp[1:]) * interior**eps_c
    gprime_l1 = float(math.fsum(w_l1 * m_fac)) if np.all(np.isfinite(gp[1:])) else float("nan")
    return _GateInputs(
        gprime=SampledFunction(mesh=mesh, values=gp),
        g0=g0,
        g0_defect=abs(g0 - 1.0),
        eps_fit=eps_fit,
        gprime_l1=gprime_l1,
        g=g,
    )


def check_gsc(
    pair: SoninePair, mesh: Mesh, M: int | None = None, g0_tol: float = G0_TOL_DEFAULT
) -> GscReport:
    """Measure g = K * k on the mesh and decide the generalized condition.

    The verdict requires |g(0+) - 1| <= g0_tol, a conclusive power fit of
    |g'| compatible with integrability, and a finite weighted L1 norm of
    g'. For variable-exponent pairs the substituted route provides g(0)
    samples, the analytic g', and an independent cross-check of g itself.
    This is the full diagnostic; a solve reads only the g(0+), g', fit and
    L1 parts and does not compute g on the mesh.
    """
    if not math.isfinite(g0_tol) or g0_tol <= 0.0:
        raise DomainError(f"g0_tol must be positive, got {g0_tol!r}")
    gate = _gate_inputs(pair, mesh, M)
    g = gate.g if gate.g is not None else convolve_pair(pair.K, pair.k, mesh, M=M)
    sc_residual = float(np.max(np.abs(g.values[1:] - 1.0)))
    if pair.exponent is not None:
        m_used = M if M is not None else _default_panels(mesh.N)
        route_diff = float(
            np.max(np.abs(g.values[1:] - compute_g_substituted(pair, mesh.nodes[1:], M=m_used)))
        )
    else:
        route_diff = float("nan")
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
