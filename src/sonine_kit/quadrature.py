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

#: float64 entries in one block matrix of a blocked row sum (64 KiB): fixed
#: so the block matrices stay in cache and peak memory stays flat at any N
#: and M. Larger blocks of the O(N M) sums made glibc trim the heap each
#: time a block's temporaries were freed, and fault the same pages back in
#: for the next block.
BLOCK_ENTRIES = 8192


def _moments(
    d: np.ndarray,
    h: np.ndarray,
    beta: float,
    rule: str,
    singular_end: str,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Product-integration weights along the last axis of ``d``.

    ``d`` holds each node's distance to the singular point and ``h`` the
    panel widths. The weights w satisfy sum_j w_j phi(s_j) = int w(s)
    phi(s) ds for w(s) = (distance)^(beta-1), exactly for piecewise-linear
    phi (rule "linear") or with phi held at each panel's left node (rule
    "constant_left"). The singular point sits at the first node ("left")
    or the last ("right"); a row of ``d`` may end in zeros, whose panels
    then have weight exactly 0. Each node power is computed once and
    shared by its two panels. Valid for beta in (0, 1]; beta = 1 is the
    trapezoid rule.

    ``work``, of shape (5, >= d.size), takes the temporaries in its first
    four rows and the result in its last, which the result then views;
    without it they are allocated.
    """
    panels = d.shape[:-1] + (d.shape[-1] - 1,)
    if work is None:
        work, w = np.empty((4, d.size)), np.empty(d.shape)
    else:
        w = _view(work[4], d.shape)
    p = _view(work[0], d.shape)
    A, B, t = (_view(row, panels) for row in work[1:4])
    left = singular_end == "left"

    def ends(x):
        """(lo, hi) panel-end views of x: the ends nearer to and farther
        from the singular point."""
        return (x[..., :-1], x[..., 1:]) if left else (x[..., 1:], x[..., :-1])

    lo, hi = ends(d)
    near, far = ends(w)
    # A and B: panel moments of distance^(beta-1) and distance^beta, from
    # the node powers
    p_lo, p_hi = ends(p)
    p[...] = d
    p **= beta
    np.subtract(p_hi, p_lo, out=A)
    A /= beta
    w[...] = 0.0
    if rule == "constant_left":
        w[..., :-1] += A
        return w
    p[...] = d
    p **= beta + 1.0
    np.subtract(p_hi, p_lo, out=B)
    B /= beta + 1.0
    # the panel's hat functions at its farther and its nearer node
    np.multiply(lo, A, out=t)
    np.subtract(B, t, out=t)
    t /= h
    far += t
    np.multiply(hi, A, out=t)
    t -= B
    t /= h
    near += t
    return w


def _view(row: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat scratch row, viewed with ``shape``."""
    return row[: math.prod(shape)].reshape(shape)


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
    if rule not in ("linear", "constant_left"):
        raise DomainError(f"unknown quadrature rule {rule!r}")
    nodes = mesh.nodes[: i + 1]
    return _moments(nodes[-1] - nodes, np.diff(nodes), beta, rule, "right")


def _triangle_blocks(nodes: np.ndarray, beta: float, rule: str, factor):
    """Row blocks of the product-integration operator on nodes t_0..t_N.

    Yields (i0, i1, C) for consecutive row ranges i0 <= i < i1 covering
    1..N, where C[i - i0, j] = w_ij * factor(t_i - t_j) for j < i1 and w_i
    are the weights of :func:`product_weights` for node i from ``rule``;
    entries past the diagonal (j > i) are exactly 0. A block holds at most
    BLOCK_ENTRIES entries (at least one row). Each block builds its lag
    matrix max(t_i - t_j, 0) once and calls ``factor`` once on it. C lives
    in scratch that the next block overwrites. The caller checks beta
    once; beta = 1 is the bounded (trapezoid) limit.
    """
    h = np.diff(nodes)
    i0, n = 1, len(nodes)
    # every block reuses one scratch array: block-sized temporaries freed
    # at the heap top make glibc trim it, and the next block then faults
    # the same pages back in
    work = np.empty((6, max(BLOCK_ENTRIES, n)))
    while i0 < n:
        # largest row count c with c * (i0 + c) <= BLOCK_ENTRIES
        c = max(1, (math.isqrt(i0 * i0 + 4 * BLOCK_ENTRIES) - i0) // 2)
        i1 = min(n, i0 + c)
        lag = _view(work[5], (i1 - i0, i1))
        np.subtract(nodes[i0:i1, None], nodes[:i1], out=lag)
        np.maximum(lag, 0.0, out=lag)
        C = _moments(lag, h[: i1 - 1], beta, rule, "right", work[:5])
        C *= factor(lag)
        yield i0, i1, C
        i0 = i1


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering n_rows rows, each block of n_cols
    columns holding at most BLOCK_ENTRIES entries (at least one row)."""
    step = max(1, BLOCK_ENTRIES // n_cols)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _check_panels(M) -> None:
    """Refuse a panel count per half that is not an integer >= 16."""
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or M < 16:
        raise DomainError(f"need an integer panel count of at least 16, got {M!r}")


def _default_panels(N: int) -> int:
    # couples the splitting resolution to the mesh so refinement studies
    # see both improve together
    return max(32, N // 2)


@lru_cache(maxsize=128)
def _reference_rule(sigma: float, M: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Graded reference nodes on [0, 1] and weights for int_0^1 v^(-sigma) phi(v) dv."""
    v = (np.arange(M + 1, dtype=float) / M) ** r
    v[-1] = 1.0
    w = _moments(v, np.diff(v), 1.0 - sigma, "linear", "left")
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
    out = np.zeros(mesh.N + 1)
    if phi.values.any():  # a zero phi (f' of a constant f) convolves to 0
        for i0, i1, C in _triangle_blocks(mesh.nodes, beta, rule, kernel.smooth):
            out[i0:i1] = C @ phi.values[:i1]
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
    _check_panels(M)
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
    _check_panels(M)
    out = np.full(mesh.N + 1, np.nan)
    out[1:] = _pair_convolution(K, k, mesh.nodes[1:], M)
    return SampledFunction(mesh=mesh, values=out)
