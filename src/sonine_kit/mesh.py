"""Graded meshes on [0, b] and functions sampled on them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["Mesh", "SampledFunction", "graded_mesh", "default_grading"]

#: hardest grading we ever apply; steeper meshes trade accuracy for roundoff
MAX_GRADING = 4.0

#: largest endpoint b whose square is finite: product weights at beta = 1 (as
#: for the L1 norm of a bounded g') form d^2 for distances d up to b
MAX_ENDPOINT = float(np.sqrt(np.finfo(float).max))

#: the domain checks of kernels, sampled functions and the convolutions
#: accept times up to b * END_SLACK: an endpoint computed by other arithmetic
#: (a sum of steps, a rescaled mesh) can land a rounding error past b and is
#: still the end of the interval
END_SLACK = 1.0 + 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class Mesh:
    """Nodes 0 = t_0 < t_1 < ... < t_N = b of :func:`graded_mesh`.

    Instances are immutable; ``nodes`` is a read-only array.
    """

    nodes: np.ndarray

    @property
    def N(self) -> int:
        return len(self.nodes) - 1

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    def same_nodes(self, other: "Mesh") -> bool:
        return self.nodes.shape == other.nodes.shape and bool(
            np.array_equal(self.nodes, other.nodes)
        )


def graded_mesh(N: int, r: float, b: float) -> Mesh:
    """Build the graded mesh t_j = b (j/N)^r.

    Parameters
    ----------
    N : int
        Number of panels, 2 to 2**53, past which j / N merges neighbours.
    r : float
        Grading exponent, at least 1. r = 1 gives a uniform mesh; larger
        values cluster nodes at t = 0 where kernels are singular. A
        grading so steep that t_1 = b N^-r underflows, leaving nodes that
        are not strictly increasing, raises :class:`DomainError`.
    b : float
        Right endpoint of the interval, positive and at most
        ``MAX_ENDPOINT`` (about 1.34e154), past which b^2 overflows.
    """
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise DomainError(f"N must be an integer, got {N!r}")
    if not 2 <= N <= 2**53:
        raise DomainError(f"N must lie in [2, 2**53], got {N}")
    if not np.isfinite(r) or r < 1.0:
        raise DomainError(f"grading exponent r must satisfy r >= 1, got {r!r}")
    if not 0.0 < b <= MAX_ENDPOINT:  # NaN fails both
        raise DomainError(f"endpoint b must lie in (0, {MAX_ENDPOINT!r}] (b^2 finite), got {b!r}")
    j = np.arange(N + 1, dtype=float)
    nodes = b * (j / N) ** float(r)
    nodes[0] = 0.0
    nodes[-1] = b
    if not np.all(nodes[1:] > nodes[:-1]):
        raise DomainError(
            f"graded mesh with N={N}, r={r!r} has nodes that are not strictly "
            f"increasing: t_1 = b N^-r = {float(nodes[1])!r} underflows; lower r or N"
        )
    return Mesh(nodes=_readonly(nodes))


def default_grading(*sing_exponents: float) -> float:
    """Grading exponent 2 / (1 - max singularity exponent), capped at 4."""
    if not sing_exponents:
        raise DomainError("need at least one singularity exponent")
    worst = max(sing_exponents)
    if not 0.0 < worst < 1.0:
        raise DomainError(f"singularity exponents must lie in (0,1), got {worst!r}")
    return float(min(MAX_GRADING, 2.0 / (1.0 - worst)))


@dataclass(frozen=True, slots=True)
class SampledFunction:
    """Node values of a function on a mesh, interpolated linearly between
    nodes.

    ``values[0]`` may be NaN when the function is singular at t = 0;
    every other entry must be finite.
    """

    mesh: Mesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = _readonly(self.values)
        if vals.shape != self.mesh.nodes.shape:
            raise DomainError(
                f"values length {vals.shape} does not match mesh with N={self.mesh.N}"
            )
        if not np.all(np.isfinite(vals[1:])):
            raise DomainError("sampled values must be finite away from t_0")
        object.__setattr__(self, "values", vals)

    @property
    def defined_at_zero(self) -> bool:
        return bool(np.isfinite(self.values[0]))

    def __call__(self, t):
        """Interpolate linearly at ``t`` in [0, b], or in [t_1, b] for a
        function undefined at t_0, refusing any other t (NaN included)
        rather than clamping it to an end value or reading the NaN."""
        t_arr = np.asarray(t, dtype=float)
        lo = 0.0 if self.defined_at_zero else self.mesh.nodes[1]
        if not np.all((t_arr >= lo) & (t_arr <= self.mesh.b * END_SLACK)):  # NaN fails both
            where = "[0, b]" if self.defined_at_zero else "[t_1, b] (undefined at t_0)"
            raise DomainError(f"sampled function evaluated outside {where} with b={self.mesh.b!r}")
        out = np.interp(t_arr, self.mesh.nodes, self.values)
        return float(out) if np.isscalar(t) else out
