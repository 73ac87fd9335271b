"""Weakly singular kernels and Sonine pairs.

A kernel k(t) = t^(-sigma) * (smooth part) on (0, b] is described by a
:class:`KernelSpec`. A :class:`SoninePair` couples a kernel k with an
associate K so that the convolution K*k can be checked against 1 (the
classical Sonine condition) or against a function g with g(0) = 1 and
integrable derivative (the generalized condition).

All objects are immutable after construction; operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .mesh import SampledFunction

__all__ = [
    "gamma",
    "kappa",
    "ExponentFunction",
    "affine_exponent",
    "KernelSpec",
    "power_kernel",
    "classical_abel_kernel",
    "variable_exponent_kernel",
    "SoninePair",
    "make_classical_abel_pair",
    "make_variable_exponent_pair",
]

#: number of points at which an exponent profile is validated
VALIDATION_GRID = 1024

GAMMA_MAX_ARG = 50.0


def gamma(x: float) -> float:
    """Gamma function on (0, 50].

    Thin validating wrapper over the platform Gamma, which is accurate to
    a few ulp, far inside the 1e-12 relative tolerance we promise.
    """
    if not isinstance(x, (int, float, np.floating, np.integer)) or isinstance(x, bool):
        raise DomainError(f"gamma expects a real argument, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    if x <= 0.0 or x > GAMMA_MAX_ARG:
        raise DomainError(f"gamma argument must lie in (0, {GAMMA_MAX_ARG:g}], got {x!r}")
    return math.gamma(x)


def kappa(alpha0: float) -> float:
    """Normalization Gamma(alpha0) * Gamma(1 - alpha0) for alpha0 in (0, 1).

    Agrees with the reflection form pi / sin(pi * alpha0) to full precision;
    the test suite pins that equivalence.
    """
    alpha0 = float(alpha0)
    if not math.isfinite(alpha0) or not 0.0 < alpha0 < 1.0:
        raise DomainError(f"kappa is defined for alpha0 in (0, 1), got {alpha0!r}")
    return gamma(alpha0) * gamma(1.0 - alpha0)


def _call_elementwise(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a scalar-or-vector callable on an array."""
    try:
        out = np.asarray(fn(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(v))) for v in x.ravel()]).reshape(x.shape)


def _evaluate(fn: Callable, t):
    """fn at t, a float for a scalar t and an array of t's shape otherwise,
    by :func:`_call_elementwise`."""
    t_arr = np.asarray(t, dtype=float)
    out = _call_elementwise(fn, np.atleast_1d(t_arr))
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


@dataclass(frozen=True, slots=True)
class ExponentFunction:
    """A differentiable exponent profile alpha(t).

    ``fn`` and ``dfn`` evaluate alpha and alpha'. :meth:`validate` checks
    them on a grid before a kernel is built from the profile.
    """

    fn: Callable
    dfn: Callable

    def eval(self, t):
        return _evaluate(self.fn, t)

    def deriv(self, t):
        return _evaluate(self.dfn, t)

    def validate(self, b: float) -> None:
        """Refuse a profile whose values leave (0, 1), or whose derivative
        is not finite, at VALIDATION_GRID points of [0, b]."""
        grid = np.linspace(0.0, b, VALIDATION_GRID)
        vals = self.eval(grid)
        if not np.all((vals > 0.0) & (vals < 1.0)):  # a NaN fails too
            raise DomainError(
                f"exponent profile leaves (0, 1) on [0, {b!r}]: "
                f"range [{np.min(vals)!r}, {np.max(vals)!r}]"
            )
        if not np.all(np.isfinite(self.deriv(grid))):
            raise DomainError("exponent derivative produced non-finite values on [0, b]")


def affine_exponent(a0: float, a1: float, b: float) -> ExponentFunction:
    """Profile alpha(t) = a0 + a1 t, refused unless its exact range over
    [0, b] lies inside (0, 1)."""
    a0, a1, b = float(a0), float(a1), float(b)
    if not (math.isfinite(a0) and math.isfinite(a1) and math.isfinite(b) and b > 0):
        raise DomainError("affine profile needs finite a0, a1 and positive b")
    end = a0 + a1 * b
    lo, hi = min(a0, end), max(a0, end)
    if not 0.0 < lo <= hi < 1.0:
        raise DomainError(
            f"affine profile leaves (0, 1) on [0, {b!r}]: range [{lo!r}, {hi!r}]"
        )
    return ExponentFunction(
        fn=lambda t: a0 + a1 * np.asarray(t, dtype=float),
        dfn=lambda t: np.full_like(np.asarray(t, dtype=float), a1),
    )


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """A weakly singular kernel on (0, b] in factored form.

    kernel(t) = t^(-sigma) * smooth(t) for t > 0: ``local_exponent`` is the
    order sigma of the t -> 0 blow-up, which the product quadrature
    factors out, and ``smooth_fn`` evaluates the bounded factor smooth,
    continuous on [0, b] with smooth(0) = smooth0, a finite number.
    ``smooth_log_deriv`` evaluates t smooth'(t) on (0, b], which must tend
    to 0 at t = 0; it is None when not known.
    """

    smooth_fn: Callable
    smooth0: float
    local_exponent: float
    b: float
    smooth_log_deriv: Callable | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.smooth0):
            raise DomainError(f"smooth0 must be finite, got {self.smooth0!r}")
        # the quadrature's beta = 1 - local_exponent must lie in (0, 1) as
        # well, and rounds to 1 for a local_exponent up to 2^-54
        if not 0.0 < 1.0 - self.local_exponent < 1.0:
            raise DomainError(
                f"local_exponent must lie in (0, 1) with 1 - local_exponent < 1, "
                f"got {self.local_exponent!r}"
            )
        if not math.isfinite(self.b) or self.b <= 0.0:
            raise DomainError(f"kernel endpoint b must be positive, got {self.b!r}")

    def _check_domain(self, t: np.ndarray, allow_zero: bool) -> bool:
        """Refuse t outside (0, b], or [0, b] with ``allow_zero``; True when
        every t is positive. Two reductions settle the usual case; masks are
        built only for a zero, a NaN, an empty t or a refusal."""
        hi = self.b * (1.0 + 1e-12)
        lo = t.min() if t.size else math.nan
        if (lo >= 0.0 if allow_zero else lo > 0.0) and t.max() <= hi:
            return bool(lo > 0.0)
        lo_bad = (t < 0.0) if allow_zero else (t <= 0.0)
        if np.any(lo_bad) or np.any(t > hi):
            where = "[0, b]" if allow_zero else "(0, b]"
            raise DomainError(
                f"kernel evaluation outside {where} with b={self.b!r}; "
                "evaluation at t = 0 is never defined for a singular kernel"
            )
        return False

    def eval(self, t):
        """Kernel value smooth(t) t^(-local_exponent) for t in (0, b]. t = 0
        is a domain error."""
        t_arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t_arr)
        self._check_domain(flat, allow_zero=False)
        out = _call_elementwise(self.smooth_fn, flat) * flat ** (-self.local_exponent)
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def smooth(self, t):
        """Bounded factor t^(local_exponent) * kernel(t), continuous at 0."""
        t_arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t_arr)
        zero = None if self._check_domain(flat, allow_zero=True) else flat == 0.0
        if zero is None or not zero.any():
            out = _call_elementwise(self.smooth_fn, flat)
            if np.may_share_memory(out, flat):
                out = out.copy()  # never hand back the caller's array
        else:
            # evaluate at b in place of 0, then overwrite: no gather/scatter
            out = _call_elementwise(self.smooth_fn, np.where(zero, self.b, flat))
            out[zero] = self.smooth0
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    @property
    def power_coef(self) -> float | None:
        """c when the kernel is the pure power c t^(-local_exponent) of
        :func:`power_kernel`, else None. The quadrature's pure-power fast
        paths read this and nothing else: a hand-built kernel of the same
        values takes the general path."""
        fn = self.smooth_fn
        return fn.value if isinstance(fn, _ConstantFactor) else None

    @staticmethod
    def from_samples(phi: SampledFunction, sing_exponent: float | None = None) -> "KernelSpec":
        """Wrap node samples of a singular function as a tabulated kernel.

        The singularity order, the kernel's ``local_exponent``, is fitted
        from the first two interior nodes unless supplied as
        ``sing_exponent``. The bounded factor is interpolated piecewise
        linearly between nodes. Its t = 0 value is 0 for a finite phi(0),
        which t^sigma kills, and otherwise extrapolated
        (:func:`_extrapolate_to_zero`).
        """
        nodes = phi.mesh.nodes
        vals = phi.values
        if len(nodes) < 3:
            raise DomainError("tabulated kernel needs at least two interior nodes")
        if sing_exponent is None:
            v1, v2 = vals[1], vals[2]
            if not (np.isfinite(v1) and np.isfinite(v2) and v1 > 0 and v2 > 0):
                raise DomainError(
                    "cannot fit a singularity order from non-positive samples; "
                    "pass sing_exponent explicitly"
                )
            fitted = math.log(v1 / v2) / math.log(nodes[2] / nodes[1])
            sing_exponent = float(np.clip(fitted, 0.01, 0.99))
        sig = float(sing_exponent)
        m = np.empty_like(vals)
        m[1:] = vals[1:] * nodes[1:] ** sig
        if np.isfinite(vals[0]):
            m[0] = 0.0  # t^sig * (finite value) vanishes at t = 0
        else:
            m[0] = _extrapolate_to_zero(nodes, m)
        m_nodes = nodes.copy()

        def smooth_fn(t, _x=m_nodes, _y=m):
            return np.interp(np.asarray(t, dtype=float), _x, _y)

        return KernelSpec(
            smooth_fn=smooth_fn,
            smooth0=float(m[0]),
            local_exponent=sig,
            b=phi.mesh.b,
        )


def _extrapolate_to_zero(nodes: np.ndarray, m: np.ndarray) -> float:
    """The value at t = 0 of the line through (t_1, m_1) and (t_2, m_2):
    how a tabulated bounded factor is continued to the origin."""
    return float(m[1] - nodes[1] * (m[2] - m[1]) / (nodes[2] - nodes[1]))


@dataclass(frozen=True, slots=True)
class _ConstantFactor:
    """The bounded factor of :func:`power_kernel`'s kernels: ``value`` at
    every t. :attr:`KernelSpec.power_coef` recognises a pure power by it."""

    value: float

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)


def power_kernel(coef: float, exponent: float, b: float) -> KernelSpec:
    """Kernel coef * t^(-exponent) with exponent in (0, 1)."""
    coef, exponent = float(coef), float(exponent)
    if not math.isfinite(coef) or coef == 0.0:
        raise DomainError(f"power kernel coefficient must be finite and nonzero, got {coef!r}")
    return KernelSpec(
        smooth_fn=_ConstantFactor(coef),
        smooth0=coef,
        local_exponent=exponent,
        b=float(b),
    )


def classical_abel_kernel(alpha: float, b: float) -> KernelSpec:
    """Abel kernel t^(-alpha)."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
        raise DomainError(f"Abel exponent must lie in (0, 1), got {alpha!r}")
    return power_kernel(1.0, alpha, b)


def variable_exponent_kernel(af: ExponentFunction, b: float) -> KernelSpec:
    """Kernel t^(-alpha(t)) for a validated exponent profile.

    The factored-out local order is alpha(0), the true strength of the
    blow-up, so the bounded factor t^(alpha(0) - alpha(t)) tends to 1 at
    the origin.
    """
    af.validate(b)
    alpha0 = float(af.eval(0.0))

    def smooth_fn(t, _af=af, _a0=alpha0):
        t = np.asarray(t, dtype=float)
        return np.exp((_a0 - _af.eval(t)) * np.log(t))

    return KernelSpec(
        smooth_fn=smooth_fn,
        smooth0=1.0,
        local_exponent=alpha0,
        b=float(b),
        smooth_log_deriv=lambda t: _dE(af, alpha0, t),
    )


def _dE(af: ExponentFunction, alpha0: float, x) -> np.ndarray:
    """x E'(x) for x > 0, where E(x) = x^(alpha0 - alpha(x)).

    x E'(x) = E(x) (q - alpha'(x) x ln x) with q = alpha0 - alpha(x);
    the bracket vanishes at 0, where E' diverges only logarithmically.
    """
    x = np.asarray(x, dtype=float)
    lx = np.log(x)
    # in place and without a division: a fresh block-sized array per step
    # cost about 10% of the N = 4096 gate, a division for q / x about 5%
    q = np.subtract(alpha0, af.eval(x))
    e = q * lx
    np.exp(e, out=e)
    d = af.deriv(x)
    d *= lx
    d *= x
    q -= d
    q *= e
    return q


def _constant_factor(kernel: KernelSpec) -> float | None:
    """c when the kernel's bounded factor is the constant c, else None: a
    pure power (:attr:`KernelSpec.power_coef`), or a kernel whose
    ``smooth_log_deriv`` is 0 at the positive points of the validation
    grid of [0, b] (t^(-alpha(t)) for a constant profile): its smooth0."""
    if kernel.power_coef is not None:
        return kernel.power_coef
    d, grid = kernel.smooth_log_deriv, np.linspace(0.0, kernel.b, VALIDATION_GRID)[1:]
    return kernel.smooth0 if d is not None and np.all(_evaluate(d, grid) == 0.0) else None


def _is_classical(k: KernelSpec, K: KernelSpec) -> bool:
    """True when K * k = 1 holds analytically: k = c_k t^(-sigma) and K =
    c_K t^(sigma - 1) with constant bounded factors (:func:`_constant_factor`)
    and c_k c_K kappa(sigma) = 1, both to 1e-12."""
    if abs(k.local_exponent + K.local_exponent - 1.0) > 1e-12:
        return False
    c_k, c_K = _constant_factor(k), _constant_factor(K)
    return (
        c_k is not None
        and c_K is not None
        and abs(c_k * c_K * kappa(k.local_exponent) - 1.0) <= 1e-12
    )


@dataclass(frozen=True, slots=True)
class SoninePair:
    """A kernel k and its associate K sharing the interval (0, b].

    The pair is its two kernels. ``is_classical``, that K * k = 1 holds
    analytically (:func:`_is_classical`), is derived from them once; the
    solvers take the shortcut it allows (g' = 0, no sweep). Which pairs have
    an analytic g' is read from both (:func:`sonine_kit.sonine._substituted_route`).
    """

    k: KernelSpec
    K: KernelSpec
    is_classical: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.k.b != self.K.b:
            raise DomainError(
                f"pair members live on different intervals: {self.k.b!r} vs {self.K.b!r}"
            )
        object.__setattr__(self, "is_classical", _is_classical(self.k, self.K))

    @property
    def b(self) -> float:
        return self.k.b


def make_classical_abel_pair(alpha: float, b: float) -> SoninePair:
    """Pair k = t^(-alpha), K = t^(alpha-1) / kappa(alpha)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return SoninePair(
        k=classical_abel_kernel(alpha, b),
        K=power_kernel(1.0 / kappa(alpha), 1.0 - alpha, b),
    )


def make_variable_exponent_pair(af: ExponentFunction, b: float) -> SoninePair:
    """Pair k = t^(-alpha(t)) with the constant-order associate
    K = t^(alpha(0)-1) / kappa(alpha(0)).

    The pair is classical exactly when the profile is constant on [0, b].
    """
    k = variable_exponent_kernel(af, b)  # validates af on [0, b]
    alpha0 = k.local_exponent
    return SoninePair(k=k, K=power_kernel(1.0 / kappa(alpha0), 1.0 - alpha0, b))
