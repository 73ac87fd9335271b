"""First-kind Volterra equations with weakly singular kernels.

The pipeline: a first-kind equation k * u = f is transformed to the
second-kind equation u + g' * u = F, where g = K * k for an associate K
and F collects the data. The second-kind form is solved by forward
substitution on a graded mesh, and the solution is pushed back through
the original convolution to measure the first-kind residual.

Solving with f = 1 constructively recovers the classical Sonine
associate of k whenever the generalized condition holds
(:func:`discover_associate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, GscConditionError, IllConditionedSystemError
from .kernels import KernelSpec, SoninePair, gamma, kappa
from .mesh import Mesh, SampledFunction
from .quadrature import _triangle_blocks, convolve_pair, convolve_weakly_singular
from .sonine import GscReport, _gate_inputs, _GateInputs

__all__ = [
    "RhsSpec",
    "SolveReport",
    "StabilityReport",
    "assemble_rhs",
    "solve_second_kind",
    "solve_first_kind",
    "discover_associate",
    "stability_probe",
    "stability_report",
    "classical_solution",
]

#: a solve refuses to proceed when |g(0+) - 1| exceeds this. Looser than
#: check_gsc's verdict (1e-3, a conclusive eps fit, a finite L1 norm) on
#: purpose: the transformation needs g(0+) near 1 and a finite g', and a
#: coarse mesh can miss the eps fit's margin on a pair that solves and
#: converges (see _second_kind_solve)
GATE_G0_TOL = 1e-2

#: forward substitution aborts when a diagonal entry falls below this
DIAG_TOL = 1e-8

#: first node index included in first-kind residual norms
RESID_FIRST_INDEX = 3

#: derivative spot-check: sample count, relative step, tolerance
FD_SPOT_COUNT = 16
FD_STEP_FRAC = 1e-6
FD_TOL = 1e-5

#: singular exponents for second-kind weights are clipped to [0, this]
EPS_CLIP_MAX = 0.95


@dataclass(frozen=True, slots=True)
class RhsSpec:
    """Right-hand side f of a first-kind equation, with its derivative.

    ``f0`` must equal f(0); ``fprime`` must be the derivative of ``f``.
    Both claims are spot-checked by :meth:`validate` before a solve.
    """

    f: Callable
    fprime: Callable
    f0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.f0):
            raise DomainError(f"f0 must be finite, got {self.f0!r}")
        at0 = float(self.f(0.0))
        if abs(at0 - self.f0) > 1e-12 * max(1.0, abs(self.f0)):
            raise DomainError(f"f0={self.f0!r} disagrees with f(0)={at0!r}")

    def eval(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.array([float(self.f(v)) for v in np.atleast_1d(t_arr)])
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def eval_fprime(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.array([float(self.fprime(v)) for v in np.atleast_1d(t_arr)])
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def validate(self, b: float) -> None:
        """Spot-check that fprime differentiates f on (0, b).

        Sixteen fixed pseudo-random interior points (seeded, so every run
        checks the same ones) with a central difference of step 1e-6 * b.
        """
        if not math.isfinite(b) or b <= 0.0:
            raise DomainError(f"endpoint b must be positive, got {b!r}")
        rng = np.random.default_rng(160693)
        h = FD_STEP_FRAC * b
        ts = rng.uniform(2 * h, b - 2 * h, size=FD_SPOT_COUNT)
        for t in ts:
            fd = (float(self.f(t + h)) - float(self.f(t - h))) / (2.0 * h)
            if abs(fd - float(self.fprime(t))) > FD_TOL * max(1.0, abs(fd)):
                raise DomainError(
                    f"fprime disagrees with a finite difference of f at t={t!r}: "
                    f"{self.fprime(t)!r} vs {fd!r}"
                )

    @staticmethod
    def from_polynomial(coeffs) -> "RhsSpec":
        """f(t) = sum_k coeffs[k] t^k with the exact derivative."""
        c = [float(v) for v in coeffs]
        if len(c) == 0 or not all(math.isfinite(v) for v in c):
            raise DomainError("polynomial coefficients must be a nonempty finite list")
        dc = [k * c[k] for k in range(1, len(c))]

        def f(t, _c=tuple(c)):
            acc = 0.0
            for v in reversed(_c):
                acc = acc * t + v
            return acc

        def fprime(t, _dc=tuple(dc)):
            acc = 0.0
            for v in reversed(_dc):
                acc = acc * t + v
            return acc

        return RhsSpec(f=f, fprime=fprime, f0=c[0])


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of one first-kind solve on one mesh.

    ``residual_second_kind`` is the relative row residual of the discrete
    triangular system (should sit at roundoff); ``residual_first_kind``
    pushes u back through the original convolution and compares with f,
    excluding the first two interior nodes where interpolating a singular
    u is least accurate. ``ku`` holds the node samples of that push-back,
    k * u (0 at t_0 for a bounded u, NaN for an unbounded one).
    ``sc_residual_of_u`` is set only by
    :func:`discover_associate`.
    """

    u: SampledFunction
    F: SampledFunction
    residual_first_kind: float
    residual_second_kind: float
    mesh: Mesh
    gprime_l1: float
    ku: SampledFunction
    sc_residual_of_u: float | None = None


@dataclass(frozen=True, slots=True)
class StabilityReport:
    """Outcome of one data-shift probe (:func:`stability_report`).

    ``max_shift`` is max |du| over interior nodes under f -> f + delta;
    ``bound`` is the discrete Gronwall budget exp(gprime_l1) * max |dF|;
    ``holds`` says max_shift <= bound up to a relative 1e-12.
    """

    delta: float
    max_shift: float
    gprime_l1: float
    bound: float
    holds: bool


def assemble_rhs(K: KernelSpec, rhs: RhsSpec, mesh: Mesh) -> SampledFunction:
    """Transformed right-hand side F = f(0) K + K * f'.

    This is the derivative of the smoothing integral of f taken by parts,
    exact for f in C^1, so no numerical differentiation enters. F(t_0) is
    0 when f(0) = 0 and undefined (NaN) otherwise, since K blows up at 0.
    """
    return _assemble_rhs_at(K, rhs, mesh, (rhs.f0,))[0]


def _assemble_rhs_at(
    K: KernelSpec, rhs: RhsSpec, mesh: Mesh, f0s: tuple[float, ...]
) -> list[SampledFunction]:
    """:func:`assemble_rhs`'s F for the data f - f(0) + c, for each c of
    ``f0s``. They share f', so K * f' is convolved once."""
    fp = SampledFunction(mesh=mesh, values=rhs.eval_fprime(mesh.nodes))
    conv = convolve_weakly_singular(K, fp, mesh).values[1:]
    K_nodes = K.eval(mesh.nodes[1:])
    out = []
    for c in f0s:
        F = np.empty(mesh.N + 1)
        F[0] = 0.0 if c == 0.0 else np.nan
        F[1:] = c * K_nodes + conv
        out.append(SampledFunction(mesh=mesh, values=F))
    return out


def solve_second_kind(
    gprime: SampledFunction, F: SampledFunction, mesh: Mesh, eps: float = 0.0
) -> SampledFunction:
    """Solve u + g' * u = F by forward substitution on the mesh.

    The convolution is discretized with product weights for the factored
    kernel g'(tau) = tau^(-eps) m(tau), m interpolated linearly between
    nodes, so the lag m(t_i - t_j) never evaluates g' off the sample
    grid. eps = 0 means g' is treated as bounded. u(t_0) adopts F(t_0)
    as a limit convention; when F(t_0) is undefined the first panel's
    mass is folded onto node 1 instead of touching the undefined value.
    """
    return _forward_sweep(gprime, F, mesh, eps)[0]


def _forward_sweep(
    gprime: SampledFunction, F: SampledFunction, mesh: Mesh, eps: float
) -> tuple[SampledFunction, float]:
    """:func:`solve_second_kind`'s u, and the relative row residual of the
    discrete system.

    Blocked forward substitution over :func:`_triangle_blocks`; each
    block's row residuals come from the same coefficient block once its u
    are set. g' = 0 leaves u = F and a zero residual without a sweep.
    """
    if not (gprime.mesh.same_nodes(mesh) and F.mesh.same_nodes(mesh)):
        raise DomainError("g' and F must be sampled on the solve mesh")
    if not (math.isfinite(eps) and 0.0 <= eps <= EPS_CLIP_MAX):
        raise DomainError(f"eps must lie in [0, {EPS_CLIP_MAX}], got {eps!r}")
    nodes = mesh.nodes
    # node samples of the bounded factor m(tau) = g'(tau) tau^eps
    m = np.empty(len(nodes))
    m[1:] = gprime.values[1:] * nodes[1:] ** eps
    if eps > 0.0:
        m[0] = 0.0  # tau^eps kills the fitted blow-up at 0
    elif np.isfinite(gprime.values[0]):
        m[0] = gprime.values[0]
    else:
        # eps = 0 with g' unsampled at 0: extend linearly from the first panel
        m[0] = m[1] - nodes[1] * (m[2] - m[1]) / (nodes[2] - nodes[1])
    if not np.all(np.isfinite(m)):
        raise DomainError("g' samples must be finite at interior nodes")
    f = F.values
    if not m.any():  # g' = 0, as for a classical pair: u = F exactly
        return SampledFunction(mesh=mesh, values=f.copy()), 0.0
    u = np.empty(mesh.N + 1)
    u[0] = f[0]
    fold = not np.isfinite(f[0])
    lo = 1 if fold else 0
    worst = 0.0
    m_at = partial(np.interp, xp=nodes, fp=m)
    for i0, i1, C in _triangle_blocks(nodes, 1.0 - eps, "linear", m_at):
        if fold:
            C[:, 1] += C[:, 0]
            C[:, 0] = 0.0
        diag = 1.0 + C[np.arange(i1 - i0), np.arange(i0, i1)]
        bad = np.flatnonzero(np.abs(diag) < DIAG_TOL)
        if bad.size:
            raise IllConditionedSystemError(
                f"near-singular step at node {i0 + bad[0]}: 1 + w g' = {diag[bad[0]]!r}"
            )
        # forward substitution: the columns before the block in one product,
        # then the block's own triangle row by row
        history = C[:, lo:i0] @ u[lo:i0]
        for r in range(i1 - i0):
            i = i0 + r
            u[i] = (f[i] - (history[r] + np.dot(C[r, i0:i], u[i0:i]))) / diag[r]
        # row residuals of the block, now that its u are set (C is 0 past the diagonal)
        res = C[:, lo:i1] @ u[lo:i1] + u[i0:i1] - f[i0:i1]
        scale = np.maximum(1.0, np.maximum(np.abs(f[i0:i1]), np.abs(u[i0:i1])))
        worst = max(worst, float(np.max(np.abs(res) / scale)))
    return SampledFunction(mesh=mesh, values=u), worst


def _first_kind_residual(
    k: KernelSpec, u: SampledFunction, rhs: RhsSpec, mesh: Mesh, M: int | None
) -> tuple[float, SampledFunction]:
    """max |(k * u)(t_i) - f(t_i)| over nodes i >= RESID_FIRST_INDEX, and
    the node samples of k * u.

    A u that is finite at t_0 convolves directly; an unbounded u is
    wrapped as a tabulated singular kernel so its blow-up is integrated
    by the doubly singular route.
    """
    if np.isfinite(u.values[0]):
        ku = convolve_weakly_singular(k, u, mesh)
    else:
        u_tab = KernelSpec.from_samples(u)
        ku = convolve_pair(u_tab, k, mesh, M=M)
    i0 = min(RESID_FIRST_INDEX, mesh.N)
    f_nodes = rhs.eval(mesh.nodes[i0:])
    return float(np.max(np.abs(ku.values[i0:] - f_nodes))), ku


def solve_first_kind(
    pair: SoninePair,
    rhs: RhsSpec,
    mesh: Mesh,
    M: int | None = None,
    gsc: GscReport | None = None,
) -> SolveReport:
    """Solve k * u = f through the second-kind transformation.

    Measures what the transformation needs of the generalized condition
    first, g(0+) and g' with its fit and L1 norm, without the rest of
    :func:`check_gsc` (g on the mesh, its route check); ``gsc`` reuses a
    report the caller already has for this pair and mesh. Refuses to
    transform when g(0+) strays from 1 (see :func:`_second_kind_solve`).
    """
    gate = gsc if gsc is not None else _gate_inputs(pair, mesh, M)
    [(u, F, r2)] = _second_kind_solve(pair, rhs, mesh, gate, (rhs.f0,))
    r1, ku = _first_kind_residual(pair.k, u, rhs, mesh, M)
    return SolveReport(
        u=u,
        F=F,
        residual_first_kind=r1,
        residual_second_kind=r2,
        mesh=mesh,
        gprime_l1=gate.gprime_l1,
        ku=ku,
    )


def _second_kind_solve(
    pair: SoninePair,
    rhs: RhsSpec,
    mesh: Mesh,
    gate: GscReport | _GateInputs,
    f0s: tuple[float, ...],
) -> list[tuple[SampledFunction, SampledFunction, float]]:
    """u, F and the second-kind residual of :func:`solve_first_kind` for the
    data f - f(0) + c, for each c of ``f0s``, after the gate on g(0+): the
    reformulation divides by g(0), so a failing pair produces an equation
    for a different problem.

    The gate is looser than :func:`check_gsc`'s verdict, which asks for
    |g(0+) - 1| <= 1e-3, a conclusive eps fit and a finite L1 norm. A
    coarse mesh can miss the eps fit's margin on a pair that solves: for
    alpha(t) = 0.693966 + 0.168935 t on (0, 0.5], the N=32 level of a
    ``converge`` run fits eps 9e-4 past the margin (still below
    1 - alpha(0)), and its error halves at N=64 like the finer levels'.
    A g' that is not finite at the nodes already makes
    :func:`_forward_sweep` raise DomainError, and the L1 norm is NaN only
    where g' is not finite.
    """
    if not math.isfinite(gate.g0_defect) or gate.g0_defect > GATE_G0_TOL:
        raise GscConditionError(
            f"pair fails the generalized condition: |g(0+) - 1| = "
            f"{gate.g0_defect!r} exceeds {GATE_G0_TOL}; the second-kind "
            "transformation is not available"
        )
    rhs.validate(pair.b)
    eps = float(np.clip(gate.eps_fit.eps, 0.0, EPS_CLIP_MAX))
    out = []
    for F in _assemble_rhs_at(pair.K, rhs, mesh, f0s):
        u, r2 = _forward_sweep(gate.gprime, F, mesh, eps)
        out.append((u, F, r2))
    return out


def _constant_rhs(value: float) -> RhsSpec:
    return RhsSpec(f=lambda t, _v=value: _v, fprime=lambda t: 0.0, f0=float(value))


def discover_associate(k: KernelSpec, Kg: KernelSpec, mesh: Mesh) -> SolveReport:
    """Recover the classical Sonine associate of k, constructively.

    Solving k * u = 1 with the generalized associate Kg yields the kernel
    u that satisfies the classical condition u * k = 1; the report's
    ``sc_residual_of_u`` measures exactly that, on the same trailing-node
    window as the first-kind residual (for f = 1 they are the same
    number).
    """
    if k.b != Kg.b:
        raise DomainError(f"kernels live on different intervals: {k.b!r} vs {Kg.b!r}")
    is_classical = (
        k.kind == "classical_abel"
        and abs(k.local_exponent + Kg.local_exponent - 1.0) <= 1e-12
        and abs(Kg.smooth0 * kappa(k.local_exponent) - 1.0) <= 1e-12
    )
    pair = SoninePair(
        k=k,
        K=Kg,
        kappa=1.0 / Kg.smooth0,
        is_classical=is_classical,
        exponent=k.exponent,
    )
    report = solve_first_kind(pair, _constant_rhs(1.0), mesh)
    return replace(report, sc_residual_of_u=report.residual_first_kind)


def stability_report(
    pair: SoninePair, rhs: RhsSpec, delta: float, mesh: Mesh
) -> StabilityReport:
    """Probe u under a constant data shift f -> f + delta and measure the
    shift against its Gronwall budget. Both solves share one measurement
    of the condition, so the probe isolates the data perturbation, and one
    K * f', since the shift leaves f' alone. Only u and F enter, so neither
    solve pushes u back through k * u."""
    if not (math.isfinite(delta) and delta > 0.0 and math.isfinite(rhs.f0 + delta)):
        raise DomainError(f"delta must be a small positive number, got {delta!r}")
    gate = _gate_inputs(pair, mesh)
    (u, F, _), (u_moved, F_moved, _) = _second_kind_solve(
        pair, rhs, mesh, gate, (rhs.f0, rhs.f0 + delta)
    )
    max_shift = float(np.max(np.abs(u_moved.values[1:] - u.values[1:])))
    max_dF = float(np.max(np.abs(F_moved.values[1:] - F.values[1:])))
    bound = math.exp(gate.gprime_l1) * max_dF
    return StabilityReport(
        delta=delta,
        max_shift=max_shift,
        gprime_l1=gate.gprime_l1,
        bound=bound,
        holds=bool(max_shift <= bound * (1.0 + 1e-12)),
    )


def stability_probe(pair: SoninePair, rhs: RhsSpec, delta: float, mesh: Mesh) -> float:
    """Max node change of u under a constant shift f -> f + delta, the
    ``max_shift`` of :func:`stability_report`."""
    return stability_report(pair, rhs, delta, mesh).max_shift


def classical_solution(alpha: float, coeffs, t):
    """Closed-form solution of t^(-alpha) * u = f for polynomial f.

    For f(t) = sum_k c_k t^k the solution is
    u(t) = (Gamma(alpha) / kappa(alpha)) * sum_k c_k k! t^(k+alpha-1) /
    Gamma(k+alpha); each monomial is smoothed by the associate kernel and
    differentiated in closed form. Used as a convergence reference.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    c = [float(v) for v in coeffs]
    if len(c) == 0 or not all(math.isfinite(v) for v in c):
        raise DomainError("polynomial coefficients must be a nonempty finite list")
    t_arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t_arr)
    if np.any(flat <= 0.0):
        raise DomainError("the classical solution is evaluated for t > 0")
    lead = gamma(alpha) / kappa(alpha)
    out = np.zeros_like(flat)
    for kdeg, ck in enumerate(c):
        if ck == 0.0:
            continue
        out += ck * math.factorial(kdeg) / gamma(kdeg + alpha) * flat ** (kdeg + alpha - 1.0)
    out *= lead
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)
