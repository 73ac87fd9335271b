"""Product-integration quadrature for weakly singular convolutions.

The single quadrature family used everywhere: integrate the singular
power factor exactly against a piecewise-linear (or piecewise-constant)
interpolant of everything else. Closed-form panel moments of
|s - s0|^(beta-1) make the weights exact on piecewise-linear functions,
so weight sums reproduce t^beta / beta to roundoff.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec
from .mesh import Mesh, SampledFunction, default_grading

__all__ = [
    "product_weights",
    "convolve_weakly_singular",
    "convolve_pair",
    "convolve_pair_at",
]

#: float64 entries in one block matrix of a blocked row sum: fixed so the
#: block matrices stay in cache and peak memory stays flat at any N and M
BLOCK_ENTRIES = 16384


def _linear_weights(nodes: np.ndarray, beta: float, singular_end: str) -> np.ndarray:
    """Weights w with sum_j w_j phi(s_j) = int w(s) phi(s) ds exact for
    piecewise-linear phi, where w(s) = s^(beta-1) ("left") or
    (s_last - s)^(beta-1) ("right").

    Valid for beta in (0, 1]; beta = 1 degenerates to the trapezoid rule.
    """
    n = len(nodes)
    w = np.zeros(n)
    if singular_end == "left":
        d = nodes - nodes[0]
    else:
        d = nodes[-1] - nodes
    lo, hi = (d[:-1], d[1:]) if singular_end == "left" else (d[1:], d[:-1])
    # lo/hi are panel distances to the singular point, hi > lo >= 0
    h = nodes[1:] - nodes[:-1]
    A = (hi**beta - lo**beta) / beta
    B = (hi ** (beta + 1.0) - lo ** (beta + 1.0)) / (beta + 1.0)
    near = (B - lo * A) / h  # hat centered at the node closer to the singularity
    far = (hi * A - B) / h
    if singular_end == "left":
        w[:-1] += far
        w[1:] += near
    else:
        w[:-1] += near
        w[1:] += far
    return w


def _constant_left_weights(nodes: np.ndarray, beta: float, singular_end: str) -> np.ndarray:
    """Panel mass assigned to each panel's left node (value held constant)."""
    n = len(nodes)
    w = np.zeros(n)
    if singular_end == "left":
        d = nodes - nodes[0]
        A = (d[1:] ** beta - d[:-1] ** beta) / beta
    else:
        d = nodes[-1] - nodes
        A = (d[:-1] ** beta - d[1:] ** beta) / beta
    w[:-1] = A
    return w


def product_weights(mesh: Mesh, i: int, beta: float, rule: str = "linear") -> np.ndarray:
    """Weights for int_0^{t_i} (t_i - s)^(beta-1) phi(s) ds over nodes t_0..t_i.

    Parameters
    ----------
    mesh : Mesh
    i : int
        Target node index, 1 <= i <= N.
    beta : float
        One minus the singularity order, strictly inside (0, 1).
    rule : str
        "linear" for exactness on piecewise-linear phi (the default),
        "constant_left" for the nonnegative piecewise-constant variant.

    Returns an array of length i + 1.
    """
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise DomainError(f"node index must be an integer, got {i!r}")
    if not 1 <= i <= mesh.N:
        raise DomainError(f"node index must lie in [1, N={mesh.N}], got {i}")
    if not (math.isfinite(beta) and 0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta!r}")
    nodes = mesh.nodes[: i + 1]
    if rule == "linear":
        return _linear_weights(nodes, beta, "right")
    if rule == "constant_left":
        return _constant_left_weights(nodes, beta, "right")
    raise DomainError(f"unknown quadrature rule {rule!r}")


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering n_rows rows, each block of n_cols
    columns holding at most BLOCK_ENTRIES entries (at least one row)."""
    step = max(1, BLOCK_ENTRIES // n_cols)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _default_panels(N: int) -> int:
    # couples the splitting resolution to the mesh so refinement studies
    # see both improve together
    return max(32, N // 2)


@lru_cache(maxsize=128)
def _reference_rule(sigma: float, M: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Graded reference nodes on [0, 1] and weights for int_0^1 v^(-sigma) phi(v) dv."""
    v = (np.arange(M + 1, dtype=float) / M) ** r
    v[-1] = 1.0
    w = _linear_weights(v, 1.0 - sigma, "left")
    v.setflags(write=False)
    w.setflags(write=False)
    return v, w


def convolve_weakly_singular(
    kernel: KernelSpec, phi: SampledFunction, mesh: Mesh
) -> SampledFunction:
    """Convolution (kernel * phi)(t_i) at every mesh node.

    The kernel is factored as t^(-local_exponent) * smooth(t); the weights
    absorb the power factor exactly while smooth(t_i - s) * phi(s) is
    interpolated following phi's tag. phi must be finite at all interior
    nodes; a singular phi (NaN at t_0) needs :func:`convolve_pair` with a
    tabulated kernel instead. The value at t_0 is set to 0.
    """
    if not phi.mesh.same_nodes(mesh):
        raise DomainError("phi is sampled on a different mesh")
    if mesh.b > kernel.b * (1.0 + 1e-12):
        raise DomainError(
            f"mesh endpoint {mesh.b!r} exceeds the kernel's domain (0, {kernel.b!r}]"
        )
    if not np.isfinite(phi.values[0]):
        raise DomainError(
            "phi is undefined at t_0; wrap it with KernelSpec.from_samples and "
            "use convolve_pair for a doubly singular product"
        )
    beta = 1.0 - kernel.local_exponent
    if not 0.0 < beta < 1.0:
        raise DomainError(
            f"kernel singularity order {kernel.local_exponent!r} leaves (0, 1)"
        )
    rule = "linear" if phi.interp == "piecewise_linear" else "constant_left"
    nodes = mesh.nodes
    out = np.zeros(mesh.N + 1)
    for i in range(1, mesh.N + 1):
        w = product_weights(mesh, i, beta, rule=rule)
        sm = kernel.smooth(nodes[i] - nodes[: i + 1])
        out[i] = np.dot(w * sm, phi.values[: i + 1])
    return SampledFunction(mesh=mesh, values=out)


def _pair_convolution(
    K: KernelSpec, k: KernelSpec, t: np.ndarray, M: int, r_ref: float | None = None
) -> np.ndarray:
    """(K * k)(t_j) at every time of the flat array ``t`` (see
    :func:`convolve_pair_at` for the quadrature).

    For a block of times the integrands of a half form one matrix, so each
    half costs one kernel call per factor and one matrix-vector product.
    """
    if r_ref is None:
        r_ref = default_grading(K.sing_exponent, k.sing_exponent)
    sig_k, sig_K = k.local_exponent, K.local_exponent
    vL, wL = _reference_rule(sig_k, M, r_ref)
    vR, wR = _reference_rule(sig_K, M, r_ref)
    out = np.empty(len(t))
    for rows in _row_blocks(len(t), M + 1):
        tb = t[rows, None]
        c = 0.5 * tb
        sL = c * vL
        sR = c * vR
        left = (k.smooth(sL) * K.eval(tb - sL)) @ wL
        right = (K.smooth(sR) * k.eval(tb - sR)) @ wR
        out[rows] = c[:, 0] ** (1.0 - sig_k) * left + c[:, 0] ** (1.0 - sig_K) * right
    return out


def convolve_pair_at(
    K: KernelSpec, k: KernelSpec, t: float, M: int, r_ref: float | None = None
) -> float:
    """(K * k)(t) for two singular kernels, by splitting at t/2.

    Each half scales a fixed graded reference rule on [0, 1]: the factor
    singular on that half supplies exact product weights, the other factor
    is evaluated on the scaled reference nodes and interpolated linearly.
    This is the one-row case of :func:`convolve_pair`'s blocked sums.
    """
    if not 0.0 < t <= K.b * (1.0 + 1e-12):
        raise DomainError(f"t must lie in (0, {K.b!r}], got {t!r}")
    return float(_pair_convolution(K, k, np.array([float(t)]), M, r_ref)[0])


def convolve_pair(
    K: KernelSpec, k: KernelSpec, mesh: Mesh, M: int | None = None
) -> SampledFunction:
    """Convolution K * k at every interior mesh node.

    Handles a singularity of k at s = 0 and of K at s = t simultaneously.
    The value at t_0 is undefined (NaN); a limit there is the business of
    the g(0) extrapolation, not of the quadrature.
    """
    if k.b != K.b:
        raise DomainError(f"kernels live on different intervals: {k.b!r} vs {K.b!r}")
    if mesh.b > k.b * (1.0 + 1e-12):
        raise DomainError(
            f"mesh endpoint {mesh.b!r} exceeds the kernels' domain (0, {k.b!r}]"
        )
    if M is None:
        M = _default_panels(mesh.N)
    if M < 16:
        raise DomainError(f"need at least 16 panels per half, got {M}")
    out = np.full(mesh.N + 1, np.nan)
    out[1:] = _pair_convolution(K, k, mesh.nodes[1:], M)
    return SampledFunction(mesh=mesh, values=out)
