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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GscConditionError, IllConditionedSystemError
from .kernels import (
    KernelSpec,
    SoninePair,
    _check_derivative,
    _constant_factor,
    _evaluate,
    _extrapolate_to_zero,
    gamma,
    kappa,
)
from .mesh import Mesh, SampledFunction, graded_mesh
from .quadrature import _triangle_blocks, convolve_pair, convolve_weakly_singular
from .sonine import EPS_CLIP_MAX, _bounded_factor, _gate_inputs, _GateInputs

__all__ = [
    "ConvergenceReport",
    "RhsSpec",
    "SolveReport",
    "StabilityReport",
    "assemble_rhs",
    "solve_second_kind",
    "solve_first_kind",
    "convergence_study",
    "discover_associate",
    "stability_probe",
    "stability_report",
    "classical_solution",
]

#: a solve refuses to proceed when |g(0+) - 1| exceeds this: the
#: reformulation divides by g(0), so a failing pair produces an equation for
#: a different problem. Looser than check_gsc's verdict (1e-3, a conclusive
#: model of g' near 0, a finite L1 norm) on purpose: the transformation
#: needs g(0+) near 1 and a finite g', and a coarse mesh can leave the
#: model inconclusive on a pair that solves. For alpha(t) = 0.3 - 0.1 t on
#: (0, 1], N = 8 at r = 1, the first samples of g' fall off faster than
#: x^(-EPS_CLIP_MAX), while g(0+) reads 5.6e-5 and f = t solves to a
#: first-kind residual of 2.4e-2. The gate itself refuses a g(t_1) or an
#: interior g' that is not finite with DomainError.
GATE_G0_TOL = 1e-2

#: forward substitution aborts when a diagonal entry falls below this
DIAG_TOL = 1e-8

#: first node index included in first-kind residual norms
RESID_FIRST_INDEX = 3

#: mesh levels of a convergence study (N/8, N/4, N/2, N)
CONVERGE_LEVELS = 4

#: errors at or below this count as converged to rounding in order fits
ORDER_FLOOR = 1e-12


@dataclass(frozen=True, slots=True)
class _Polynomial:
    """t -> sum_j coeffs[j] t^j by Horner's rule, for a nonempty ``coeffs``:
    a float for a scalar t, an array of t's shape for an array t.
    :func:`assemble_rhs` recognises polynomial data by this type, as
    :attr:`KernelSpec.power_coef` recognises a pure power."""

    coeffs: tuple[float, ...]

    def __call__(self, t):
        acc = 0.0
        for v in reversed(self.coeffs):
            acc = acc * t + v
        return acc

    def derivative(self) -> "_Polynomial":
        """The exact derivative; a constant's is the zero polynomial (0.0,)."""
        c = self.coeffs
        return _Polynomial(tuple(k * c[k] for k in range(1, len(c))) or (0.0,))


@dataclass(frozen=True, slots=True)
class RhsSpec:
    """Right-hand side f of a first-kind equation, with its derivative.

    ``fprime`` must be the derivative of ``f``, as :meth:`validate`
    checks before a solve; ``f0`` = f(0) is derived and must be finite.
    The data of :meth:`from_polynomial` carry their coefficients, so a pure
    power K convolves f' in closed form (:func:`assemble_rhs`); data
    given as other callables, even of the same values, take the quadrature.
    """

    f: Callable
    fprime: Callable
    f0: float = field(init=False)

    def __post_init__(self) -> None:
        f0 = float(self.f(0.0))
        if not math.isfinite(f0):
            raise DomainError(f"f(0) must be finite, got {f0!r}")
        object.__setattr__(self, "f0", f0)

    def eval(self, t):
        return _evaluate(self.f, t)

    def eval_fprime(self, t):
        return _evaluate(self.fprime, t)

    def validate(self, b: float) -> None:
        """Refuse data that a solve on (0, b] cannot use. The data of
        :meth:`from_polynomial`, whose derivative is exact, must not
        overflow on [0, b]: Horner's rule on the absolute coefficients of f
        and of fprime stays finite at b. Other data are spot-checked, that
        fprime differentiates f (:func:`sonine_kit.kernels._check_derivative`)."""
        if not math.isfinite(b) or b <= 0.0:
            raise DomainError(f"endpoint b must be positive, got {b!r}")
        if not (isinstance(self.f, _Polynomial) and self.fprime == self.f.derivative()):
            _check_derivative(self.f, self.fprime, b, "fprime")
            return
        for name, p in (("f", self.f), ("fprime", self.fprime)):
            if not math.isfinite(_Polynomial(tuple(map(abs, p.coeffs)))(b)):
                raise DomainError(
                    f"polynomial {name} overflows on [0, {b!r}]: the sum of its "
                    "terms' magnitudes at b is not a finite float"
                )

    @staticmethod
    def from_polynomial(coeffs) -> "RhsSpec":
        """f(t) = sum_k coeffs[k] t^k with the exact derivative, both
        :class:`_Polynomial` (the derivative of a constant is the zero
        polynomial (0.0,))."""
        try:
            c = tuple(float(v) for v in coeffs)
        except OverflowError:  # an integer past the float range
            c = ()
        if len(c) == 0 or not all(math.isfinite(v) for v in c):
            raise DomainError("polynomial coefficients must be a nonempty finite list")
        f = _Polynomial(c)
        return RhsSpec(f=f, fprime=f.derivative())


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of one first-kind solve on one mesh.

    ``residual_second_kind`` is the relative row residual of the discrete
    triangular system as solved (should sit at roundoff): that system's
    far history is interpolated in t_i, band by band of a row-cluster tree
    (see :func:`_forward_sweep`); ``residual_first_kind``
    pushes u back through the original convolution and compares with f,
    as max |k * u - f| / max(1, max |f|), excluding the first two
    interior nodes where interpolating a singular u is least accurate.
    ``ku`` holds the node samples of that push-back, k * u (0 at t_0 for
    a bounded u, NaN for an unbounded one).
    ``sc_residual_of_u`` is set only by
    :func:`discover_associate`.
    """

    u: SampledFunction
    F: SampledFunction
    residual_first_kind: float
    residual_second_kind: float
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

    For a pure-power K (:attr:`KernelSpec.power_coef`) and the polynomial
    data of :meth:`RhsSpec.from_polynomial`, K * f' is a sum of Beta
    functions (:func:`_power_convolution`), exact to rounding at every
    node. Any other K or f' is sampled and convolved by
    :func:`convolve_weakly_singular`, exact only for a piecewise-linear
    f' times K's bounded factor.
    """
    interior = mesh.nodes[1:]
    if K.power_coef is not None and isinstance(rhs.fprime, _Polynomial):
        conv = _power_convolution(
            K.power_coef, K.local_exponent, rhs.fprime.coeffs, 0.0, interior
        )
    else:
        fp = SampledFunction(mesh=mesh, values=rhs.eval_fprime(mesh.nodes))
        conv = convolve_weakly_singular(K, fp).values[1:]
    F = np.empty(mesh.N + 1)
    F[0] = 0.0 if rhs.f0 == 0.0 else np.nan
    # K.eval refuses a mesh past K's end on either path
    F[1:] = rhs.f0 * K.eval(interior) + conv
    return SampledFunction(mesh=mesh, values=F)


def _power_convolution(
    c: float, sigma: float, coeffs: Sequence[float], q: float, t: np.ndarray
) -> np.ndarray:
    """(c s^(-sigma) * sum_j coeffs[j] s^(q + j))(t) at times t > 0, in
    closed form: c t^(q + 1 - sigma) sum_j coeffs[j] B(1 - sigma, q + j + 1)
    t^j, for sigma in (0, 1) and q > -1.

    Only the first Beta value takes Gamma functions, of arguments below 2;
    the others follow by B(a, x + 1) = B(a, x) x / (a + x), since
    Gamma(q + j + 2 - sigma) overflows from j = 170 on.
    """
    a = 1.0 - sigma
    beta = math.gamma(a) * math.gamma(q + 1.0) / math.gamma(a + q + 1.0)
    scaled = []
    for j, v in enumerate(coeffs):
        if j:
            beta *= (q + j) / (a + q + j)
        scaled.append(v * beta)
    return c * _Polynomial(tuple(scaled))(t) * t ** (q + 1.0 - sigma)


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Outcome of :func:`convergence_study`, one entry per mesh level.

    ``max_err`` is the largest relative error of u against the reference
    on the nodes t >= b/10. ``order`` is log2 of the ratio of the coarser
    level's error to this one's: NaN on the first level and after a level
    at or below ORDER_FLOOR, inf at such a level. ``fitted_order`` is the
    least-squares slope of -log2 max_err against log2 N over the levels
    above ORDER_FLOOR, inf when fewer than two are.
    """

    N: tuple[int, ...]
    max_err: tuple[float, ...]
    order: tuple[float, ...]
    fitted_order: float


def solve_second_kind(
    gprime: SampledFunction, F: SampledFunction, mesh: Mesh, eps: float = 0.0
) -> SampledFunction:
    """Solve u + g' * u = F by blocked forward substitution on the mesh.

    The convolution is discretized with product weights for the factored
    kernel g'(tau) = tau^(-eps) m(tau), m interpolated linearly between
    nodes, so the lag m(t_i - t_j) never evaluates g' off the sample
    grid. eps = 0 means g' is treated as bounded. m(0) follows
    :func:`sonine_kit.sonine._bounded_factor`'s rule for g' alone: 0 for
    eps > 0, as for a log blow-up. The rows go in a binary tree of
    clusters, and each leaf of the lower-triangular system, at most 127
    rows, is solved by one LAPACK call once the rows before it are known.
    Each cluster's history from a band of columns well to its left is
    formed at a few of its rows and interpolated in t_i to the others, a
    fifth of the dense work at N = 2048, which moves u by at most about
    2e-9 of max |u| on meshes with r <= 2 (see README, "Numerical
    notes"). u(t_0) adopts F(t_0) as a limit convention; when
    F(t_0) is undefined the first panel's mass is folded onto node 1
    instead of touching the undefined value.
    """
    return _forward_sweep(_bounded_factor(gprime, eps), F, mesh, eps)[0]


def _forward_sweep(
    m: SampledFunction, F: SampledFunction, mesh: Mesh, eps: float
) -> tuple[SampledFunction, float]:
    """:func:`solve_second_kind`'s u for g' = tau^(-eps) m, from m at every
    node, and the relative row residual of the discrete system.

    Blocked forward substitution over :func:`_triangle_blocks`: 1 is added
    to the diagonal of each block's own square T, which is checked against
    DIAG_TOL once, and T u_b = f_b - (history) is solved by one LAPACK
    call. The history is the product of the block's near columns with u,
    plus, in a leaf with far columns, the operator's far sums, whose
    bands each read u up to their last column once the rows before their
    cluster are solved. A block's row residuals are T u_b minus that
    right-hand side, the full row of the system as solved without a
    second history product; they are scaled and reduced once per sweep.

    An undefined F(t_0) folds the first panel's mass onto node 1: the
    first block adds C's column 0 to T's first column in place, so row
    1's folded step is the one checked, and u(t_0) then holds u(t_1), so
    every later history product carries that mass on node 1, until the
    sweep resets u(t_0) to F(t_0). m = 0 leaves u = F and a zero
    residual without a sweep.
    """
    if not (m.mesh.same_nodes(mesh) and F.mesh.same_nodes(mesh)):
        raise DomainError("g' and F must be sampled on the solve mesh")
    if not (math.isfinite(eps) and 0.0 <= eps <= EPS_CLIP_MAX):
        raise DomainError(f"eps must lie in [0, {EPS_CLIP_MAX}], got {eps!r}")
    nodes, m = mesh.nodes, m.values
    if not math.isfinite(m[0]):
        raise DomainError("m(0), the bounded factor of g' at t = 0, must be finite")
    f = F.values
    if not m.any():  # g' = 0, as for a classical pair: u = F exactly
        return SampledFunction(mesh=mesh, values=f.copy()), 0.0
    fold = not np.isfinite(f[0])
    u = f.copy()  # u(t_0) = F(t_0); the sweep sets the rest
    res = np.zeros(mesh.N + 1)  # row residuals, 0 at t_0
    m_at = partial(np.interp, xp=nodes, fp=m)
    for i0, i1, j0, C, far in _triangle_blocks(nodes, 1.0 - eps, m_at, u):
        T = C[:, i0 - j0 :]
        np.einsum("ii->i", T)[:] += 1.0  # a writable view of T's diagonal
        if fold and i0 == 1:
            T[:, 0] += C[:, 0]
            rhs = f[1:i1]
        else:
            rhs = f[i0:i1] - C[:, : i0 - j0] @ u[j0:i0]
            if far is not None:
                rhs -= far
        _check_steps(T.diagonal(), i0)
        u[i0:i1] = np.linalg.solve(T, rhs)
        res[i0:i1] = T @ u[i0:i1] - rhs
        if fold and i0 == 1:
            u[0] = u[1]
    u[0] = f[0]
    scale = np.maximum(1.0, np.maximum(np.abs(f[1:]), np.abs(u[1:])))
    return SampledFunction(mesh=mesh, values=u), float(np.max(np.abs(res[1:]) / scale))


def _check_steps(diag: np.ndarray, i0: int) -> None:
    """Refuse a near-singular step among the diagonal entries ``diag`` of
    the rows i0, i0 + 1, ..., naming the first such node."""
    if diag.size and np.abs(diag).min() < DIAG_TOL:
        r = int(np.argmax(np.abs(diag) < DIAG_TOL))
        raise IllConditionedSystemError(
            f"near-singular step at node {i0 + r}: 1 + w g' = {diag[r]!r}"
        )


def _first_kind_residual(
    k: KernelSpec, u: SampledFunction, rhs: RhsSpec
) -> tuple[float, SampledFunction]:
    """max |(k * u)(t_i) - f(t_i)| / max(1, max |f(t_i)|) over nodes i >=
    RESID_FIRST_INDEX, and the node samples of k * u. Relative to f, so
    the verdict does not depend on the interval's scale; for |f| <= 1 on
    the window it is the absolute residual.

    A u that is finite at t_0 convolves directly. An unbounded u has a
    known order: k ~ t^(-sigma) with f(0) != 0 makes u ~ t^(sigma - 1).
    For a pure-power k it is split (:func:`_push_back_split`); for any
    other k it is wrapped as a tabulated singular kernel so its blow-up
    is integrated by the doubly singular route of :func:`convolve_pair`.
    """
    mesh = u.mesh
    if np.isfinite(u.values[0]):
        ku = convolve_weakly_singular(k, u)
    elif k.power_coef is not None:
        ku = _push_back_split(k, u)
    else:
        u_tab = KernelSpec.from_samples(u, sing_exponent=1.0 - k.local_exponent)
        ku = convolve_pair(u_tab, k, mesh)
    i0 = min(RESID_FIRST_INDEX, mesh.N)
    f_nodes = rhs.eval(mesh.nodes[i0:])
    scale = max(1.0, float(np.max(np.abs(f_nodes))))
    return float(np.max(np.abs(ku.values[i0:] - f_nodes))) / scale, ku


def _push_back_split(k: KernelSpec, u: SampledFunction) -> SampledFunction:
    """k * u for a pure power k = c t^(-sigma) and a u that blows up at 0
    as t^(sigma - 1), at the interior nodes (NaN at t_0).

    u = m0 t^(sigma - 1) + u_reg, where m0 continues u's bounded factor u
    t^(1 - sigma) to 0 by :meth:`KernelSpec.from_samples`' extrapolation.
    The first term convolves to c m0 kappa(sigma) in closed form
    (:func:`_power_convolution`). u_reg is bounded, 0 at t_0, and goes
    through :func:`convolve_weakly_singular`.
    """
    mesh = u.mesh
    sigma, nodes = k.local_exponent, mesh.nodes
    scale = nodes ** (1.0 - sigma)
    m = u.values * scale  # u's bounded factor, NaN at t_0
    m0 = _extrapolate_to_zero(nodes, m)
    reg = np.zeros(mesh.N + 1)
    reg[1:] = (m[1:] - m0) / scale[1:]
    ku = np.full(mesh.N + 1, np.nan)
    ku[1:] = convolve_weakly_singular(k, SampledFunction(mesh=mesh, values=reg)).values[1:]
    ku[1:] += _power_convolution(k.power_coef, sigma, (m0,), sigma - 1.0, nodes[1:])
    return SampledFunction(mesh=mesh, values=ku)


def solve_first_kind(pair: SoninePair, rhs: RhsSpec, mesh: Mesh) -> SolveReport:
    """Solve k * u = f through the second-kind transformation.

    Measures what the transformation needs of the generalized condition
    first, g(0+) and g' with its model near 0 and L1 norm, without the rest of
    :func:`check_gsc` (g on the mesh and route_diff). Refuses to
    transform when g(0+) strays from 1 (see GATE_G0_TOL).
    """
    gate = _gate_inputs(pair, mesh)
    u, F, r2 = _second_kind_solve(pair, rhs, mesh, gate)
    r1, ku = _first_kind_residual(pair.k, u, rhs)
    return SolveReport(
        u=u,
        F=F,
        residual_first_kind=r1,
        residual_second_kind=r2,
        gprime_l1=gate.gprime_l1,
        ku=ku,
    )


def _second_kind_solve(
    pair: SoninePair, rhs: RhsSpec, mesh: Mesh, gate: _GateInputs
) -> tuple[SampledFunction, SampledFunction, float]:
    """u, F and the second-kind residual of :func:`solve_first_kind` for
    the data ``rhs``, after the gate on g(0+) (see GATE_G0_TOL) and the
    check of ``rhs``. The sweep reads the gate's factored g' (``gate.m``
    and ``gate.eps``), the one its L1 norm of g' was computed from, so that
    the Gronwall budget bounds the sweep."""
    if not math.isfinite(gate.g0_defect) or gate.g0_defect > GATE_G0_TOL:
        raise GscConditionError(
            f"pair fails the generalized condition: |g(0+) - 1| = "
            f"{gate.g0_defect!r} exceeds {GATE_G0_TOL}; the second-kind "
            "transformation is not available"
        )
    rhs.validate(pair.b)
    F = assemble_rhs(pair.K, rhs, mesh)
    u, r2 = _forward_sweep(gate.m, F, mesh, gate.eps)
    return u, F, r2


def convergence_study(pair: SoninePair, rhs: RhsSpec, N: int, r: float) -> ConvergenceReport:
    """Errors of u from the second-kind solve of k * u = f on the graded
    meshes of N/8, N/4, N/2 and N panels of (0, b], grading r.

    The reference is :func:`classical_solution` for a classical pair
    (:attr:`SoninePair.is_classical`) and polynomial data, and otherwise
    the solve at 2N, whose nodes nest those of every level. Every solve
    goes through the gate and the forward sweep only: the errors read u
    alone, so none pushes u back through k * u.
    """
    step = 2 ** (CONVERGE_LEVELS - 1)
    if N // step < 2:
        raise DomainError(
            f"N={N} is too small for {CONVERGE_LEVELS} halvings; need N >= {2 * step}"
        )
    if N % step != 0:
        raise DomainError(f"N={N} must be divisible by {step} so convergence meshes nest")
    b = pair.b

    def solve(mesh: Mesh) -> np.ndarray:
        u, _, _ = _second_kind_solve(pair, rhs, mesh, _gate_inputs(pair, mesh))
        return u.values[1:]

    if pair.is_classical and isinstance(rhs.f, _Polynomial):
        sigma, c = pair.k.local_exponent, _constant_factor(pair.k)

        def reference(mesh: Mesh) -> np.ndarray:
            return classical_solution(sigma, rhs.f.coeffs, mesh.nodes[1:]) / c
    else:
        fine = solve(graded_mesh(2 * N, r, b))

        def reference(mesh: Mesh) -> np.ndarray:
            stride = 2 * N // mesh.N
            return fine[stride - 1 :: stride]

    levels = [N // 2**i for i in reversed(range(CONVERGE_LEVELS))]
    errs = []
    for n in levels:
        mesh = graded_mesh(n, r, b)
        u, uref = solve(mesh), reference(mesh)
        window = mesh.nodes[1:] >= b / 10.0
        rel = np.abs(u[window] - uref[window]) / np.maximum(np.abs(uref[window]), 1e-300)
        errs.append(float(np.max(rel)))
    orders = [float("nan")]
    for prev, cur in zip(errs, errs[1:]):
        if cur <= ORDER_FLOOR:
            orders.append(float("inf"))
        elif prev <= ORDER_FLOOR:
            orders.append(float("nan"))
        else:
            orders.append(math.log2(prev / cur))
    live = [(n, e) for n, e in zip(levels, errs) if e > ORDER_FLOOR]
    if len(live) < 2:
        fitted = float("inf")  # converged to rounding at (almost) every level
    else:
        x = np.log2([n for n, _ in live])
        y = np.log2([e for _, e in live])
        fitted = -float(np.polyfit(x, y, 1)[0])
    return ConvergenceReport(
        N=tuple(levels), max_err=tuple(errs), order=tuple(orders), fitted_order=fitted
    )


def discover_associate(k: KernelSpec, Kg: KernelSpec, mesh: Mesh) -> SolveReport:
    """Recover the classical Sonine associate of k, constructively.

    Solving k * u = 1 with the generalized associate Kg yields the kernel
    u that satisfies the classical condition u * k = 1; the report's
    ``sc_residual_of_u`` measures exactly that, on the same trailing-node
    window as the first-kind residual (for f = 1 they are the same
    number).
    """
    pair = SoninePair(k=k, K=Kg)
    if Kg.smooth0 == 0.0:
        raise DomainError(
            "the associate's bounded factor vanishes at 0, so Kg * k tends to 0 "
            "at 0+, not to 1"
        )
    report = solve_first_kind(pair, RhsSpec.from_polynomial([1.0]), mesh)
    return replace(report, sc_residual_of_u=report.residual_first_kind)


def stability_report(pair: SoninePair, delta: float, mesh: Mesh) -> StabilityReport:
    """Probe u under a constant data shift f -> f + delta and measure the
    shift against its Gronwall budget.

    u + g' * u = F is linear and the shift moves F by dF = delta K, so u
    moves by the solution du of du + g' * du = delta K, whatever f is:
    this is one solve of the data f = delta, after the gate on g(0+). Only
    du and dF enter, so nothing is pushed back through k * u. A budget
    past the largest float (||g'||_L1 above about 709) is refused."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError(f"delta must be a small positive number, got {delta!r}")
    gate = _gate_inputs(pair, mesh)
    du, dF, _ = _second_kind_solve(pair, RhsSpec.from_polynomial([delta]), mesh, gate)
    max_shift = float(np.max(np.abs(du.values[1:])))
    try:
        bound = math.exp(gate.gprime_l1) * float(np.max(np.abs(dF.values[1:])))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError(
            "the Gronwall budget exp(||g'||_L1) max |dF| is not a finite float: "
            f"||g'||_L1 = {gate.gprime_l1!r}"
        )
    return StabilityReport(
        delta=delta,
        max_shift=max_shift,
        gprime_l1=gate.gprime_l1,
        bound=bound,
        holds=bool(max_shift <= bound * (1.0 + 1e-12)),
    )


def stability_probe(pair: SoninePair, rhs: RhsSpec, delta: float, mesh: Mesh) -> float:
    """Max node change of u under a constant shift f -> f + delta, the
    ``max_shift`` of :func:`stability_report`, which does not depend on f.
    ``rhs`` is checked as a solve of it would be, after the gate on
    g(0+), but never solved."""
    max_shift = stability_report(pair, delta, mesh).max_shift
    rhs.validate(pair.b)
    return max_shift


def classical_solution(alpha: float, coeffs, t):
    """Closed-form solution of t^(-alpha) * u = f for polynomial f.

    For f(t) = sum_k c_k t^k the solution is
    u(t) = (Gamma(alpha) / kappa(alpha)) * sum_k c_k k! t^(k+alpha-1) /
    Gamma(k+alpha); each monomial is smoothed by the associate kernel and
    differentiated in closed form. Used as a convergence reference, so it
    shares no code with the solver's :func:`_power_convolution`. The
    ratios k! / Gamma(k + alpha) follow from 1 / Gamma(alpha) by the
    factors k / (k - 1 + alpha), so any degree is taken, while
    :func:`gamma` refuses arguments above 50.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    c = [float(v) for v in coeffs]
    if len(c) == 0 or not all(math.isfinite(v) for v in c):
        raise DomainError("polynomial coefficients must be a nonempty finite list")
    t_arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t_arr)
    if not np.all((flat > 0.0) & (flat < np.inf)):  # NaN fails both
        raise DomainError("the classical solution is evaluated for finite t > 0")
    lead = gamma(alpha) / kappa(alpha)
    ratio = 1.0 / gamma(alpha)  # k! / Gamma(k + alpha) at k = 0
    out = np.zeros_like(flat)
    for kdeg, ck in enumerate(c):
        if kdeg:
            ratio *= kdeg / (kdeg - 1.0 + alpha)
        if ck != 0.0:
            out += ck * ratio * flat ** (kdeg + alpha - 1.0)
    out *= lead
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)
