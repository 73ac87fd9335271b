"""Product-integration quadrature for weakly singular convolutions.

The single quadrature family used everywhere: integrate the singular
power factor exactly against a piecewise-linear interpolant of
everything else. Each weight is the second divided difference of
Phi(d) = d^(beta+1) / (beta (beta+1)), Phi'' = d^(beta-1), across its
hat function (:func:`_moments`), so the weights are exact on
piecewise-linear functions, cost one power per node, and telescope to
t^beta / beta.
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
#: for the next block. The O(N^2) triangle of :func:`_triangle_blocks`
#: keeps this budget only while it leaves TRIANGLE_MIN_ROWS rows or more,
#: so its scratch is O(TRIANGLE_MIN_ROWS * N), not flat.
BLOCK_ENTRIES = 8192

#: panel count per half of the reference rule for K * k on meshes of
#: 2 * REF_PANELS panels or more (see :func:`_default_panels`): the smallest
#: power of two at which g, the substituted g and g' are no less accurate than
#: the plain rule at M = N/2 for every N up to 16384. Largest relative
#: error against mpmath on four affine profiles, three times each: g 9.2e-10
#: (direct) and 1.0e-10 (substituted), g' 1.1e-8; the plain rule at M =
#: 8192 (N = 16384) gives 2.6e-9, 8.7e-10 and 6.9e-8
REF_PANELS = 256

#: fewest rows in a block of :func:`_triangle_blocks` (the last block may
#: have fewer). Each block pays a fixed 30 to 40 numpy calls (weights, lag
#: factor, and in the sweep a history product, a solve and its residual per
#: column); under BLOCK_ENTRIES alone a block has fewer than 16 rows from
#: row 501 on and one row from row 4095 on. Far above the floor the blocks
#: leave the 4 MiB L2 cache. Best / median ms of nine interleaved runs,
#: single-threaded BLAS on a shared 2-vCPU x86-64 host, pair 0.5 + 0.2t on
#: an r = 2 mesh of (0, 1]; "sweep" is a forward sweep of two columns with
#: one block solve per column, "conv" one convolution of the variable k,
#: "stability" the CLI job on (0, 0.5] at N = 2048. 32 ties 16 at N = 2048
#: and loses at 8192; a second set of seven runs ranked them alike:
#:
#:     floor              8        16       32       64
#:     sweep N = 2048     30/32    27/29    27/28    27/28
#:     conv  N = 2048     28/30    26/29    26/28    27/29
#:     sweep N = 8192     356/373  348/365  356/366  364/378
#:     conv  N = 8192     346/359  343/363  372/385  382/407
#:     stability          38/40    35/36    35/36    36/37
TRIANGLE_MIN_ROWS = 16

#: panel count N from which :func:`convolve_weakly_singular` sums the
#: history of a pure-power kernel by sum-of-exponentials recurrence, in
#: O(N * #exp), instead of the dense O(N^2) triangle. One convolution of
#: cos 7t + t on an r=2 mesh of (0, 0.5], kernel exponents 0.3, 0.5 and
#: 0.7, best of 30, single-threaded BLAS on a 2-vCPU x86-64 host, dense
#: against SOE: 0.70-0.73 against 0.83-0.89 ms at N=256, 0.97-1.20
#: against 0.96-1.23 ms at 320, 1.04-1.32 against 0.96-1.25 ms at 336,
#: 1.11-1.13 against 1.01-1.03 ms at 352, 1.26-1.29 against 1.03-1.04 ms
#: at 384 and 2.08-2.39 against 1.26-1.60 ms at 512. Four runs on the same
#: host put the crossover between 320 and 384 (a tie at 352 while the host
#: was busy); the triangle's row floor does not bind below row 501.
SOE_MIN_N = 352

#: Chebyshev-Lobatto points in s = ln t at which :func:`_in_log_t` samples
#: a mesh-wide g or t g'; meshes of fewer than 4 * LOG_T_POINTS interior
#: nodes are summed row by row. On eight affine profiles with r <= 2 and N
#: up to 8192, the last four coefficients of g and t g' are at most 4e-15
#: of the largest; a longer span of ln t (from r = 3 at N = 4096 on the
#: steepest profiles, r = 4 at N = 1024-4096, r = 8) leaves t g'
#: unresolved, and those meshes are summed row by row
LOG_T_POINTS = 64

#: :func:`_in_log_t` keeps its interpolant only when the last four
#: Chebyshev coefficients are at most this times the largest one
LOG_T_TAIL = 1e-13

#: step in x = ln(lambda) of the trapezoid rule behind the SOE; 0.3 left
#: a relative error of 1e-13, 0.25 leaves 6e-15
SOE_STEP = 0.25

#: SOE terms with lambda * T below this become one term with their mass
#: and mean; since e^(-lambda t) is nearly linear in lambda there, that
#: leaves a relative error below 0.2 * SOE_TAIL^2
SOE_TAIL = 1e-7

#: SOE terms with lambda * T at most this are merged into one Gauss rule
#: of SOE_GAUSS_NODES nodes: e^(-lambda t) is a smooth function of lambda
#: there for every t in [0, T], so sixteen nodes reach rounding level
SOE_GAUSS_CUT = 8.0
SOE_GAUSS_NODES = 16

#: below this lambda * h the panel moment (1 - e^-z (1 + z)) / z^2 is
#: taken from its Taylor series, since the closed form cancels
SOE_SERIES_Z = 0.25

#: Taylor coefficients -(k + 1) / (k + 2)! of minus that moment in powers
#: of -z, highest first for Horner; twelve terms leave 1e-17 relative at
#: SOE_SERIES_Z
_SERIES = np.array([-(k + 1) / math.factorial(k + 2) for k in range(12)])[::-1]

#: row streams that :func:`_history_sums` advances together, one row of
#: each per Python step. More streams mean fewer steps on wider arrays but
#: more rows whose history is carried from their stream's anchor in closed
#: form. Best / median ms of eleven interleaved runs of one call, exponent
#: 0.5, phi = cos 7t + t, r = 2 on (0, 0.5], on a shared 2-vCPU x86-64
#: host; 1 is the one-row-per-step recurrence. 8 to 16 tie within 2%, as
#: in an earlier, noisier set; 16 is the count the benchmark ran:
#:
#:     streams     1          4          8          12         16         32
#:     N = 448     1.33/1.37  1.08/1.10  1.07/1.10  1.11/1.14  1.10/1.12  1.31/1.34
#:     N = 1024    2.71/2.82  2.04/2.13  2.04/2.09  2.08/2.13  2.09/2.17  2.25/2.29
#:     N = 2048    5.33/5.53  3.80/4.00  3.77/3.90  3.89/4.02  3.84/3.98  3.94/4.09
#:     N = 4096    10.5/10.5  7.35/7.48  7.02/7.17  7.09/7.23  7.19/7.27  8.05/8.23
#:     N = 8192    21.1/21.3  14.4/14.5  13.6/13.8  14.3/14.4  13.4/13.7  14.6/14.9
SOE_STREAMS = 16

#: an exponential e^(-lambda t) with lambda t above this is below 4.3e-18
#: and counts as decayed: :func:`_soe` stops at lambda = SOE_DECAYED / h_min,
#: and :func:`_history_sums` carries a stream's anchor state to a row only
#: through the exponentials with lambda (t_k - t_a) at most this
SOE_DECAYED = 40.0


def _moments(
    d: np.ndarray,
    h: np.ndarray,
    beta: float,
    singular_end: str,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Product-integration weights along the last axis of ``d``.

    ``d`` holds each node's distance to the singular point and ``h`` the
    panel widths. The weights w satisfy sum_j w_j phi(s_j) = int w(s)
    phi(s) ds for w(s) = (distance)^(beta-1), exactly for piecewise-linear
    phi. The singular point sits at the first node ("left") or the last
    ("right"), where d is 0; a row of ``d`` may end in zeros, whose panels
    then have weight exactly 0. The farthest node of a row must have d > 0.
    Valid for beta in (0, 1]; beta = 1 is the trapezoid rule.

    Phi(d) = d^(beta+1) / (beta (beta+1)) has Phi'' = d^(beta-1), so each
    weight is Phi's second divided difference across its hat function.
    With the singular point on the right, w_j = D_(j-1) - D_j, where D_k =
    (Phi(d_k) - Phi(d_(k+1))) / h_k is Phi's slope across panel k (on the
    left, mirrored). At the two end nodes the missing panel's slope is
    Phi'(d) = d^beta / beta: 0 at the singular node and (beta+1) Phi(d) /
    d at the far node, so a row costs one power per node, and its weights
    telescope to d_far^beta / beta. Neighbouring slopes nearly cancel far
    from the singular point: a weight carries a relative rounding error of
    about eps (d/h)^2.

    A reversed (negative-stride) row of ``d`` is refused: np.power can
    round it differently in the last bit, which the far weights amplify
    (to 2.8e-10 relative at 257 nodes, beta = 0.05).

    ``work``, of shape (2, >= d.size), takes the slopes in its first row
    and the result in its second, which the result then views; without it
    they are allocated.
    """
    if d.strides[-1] < 0:
        raise DomainError("product weights need rows of d of non-negative stride")
    panels = d.shape[:-1] + (d.shape[-1] - 1,)
    if work is None:
        D, w = np.empty(panels), np.empty(d.shape)
    else:
        D, w = _view(work[0], panels), _view(work[1], d.shape)
    left = singular_end == "left"

    def ends(x):
        """(lo, hi) panel-end views of x: the ends nearer to and farther
        from the singular point."""
        return (x[..., :-1], x[..., 1:]) if left else (x[..., 1:], x[..., :-1])

    # w holds beta (beta+1) Phi at the nodes until the differences replace it
    np.power(d, beta + 1.0, out=w)
    np.subtract(*reversed(ends(w)), out=D)
    D /= h * (beta * (beta + 1.0))
    far, near = (-1, 0) if left else (0, -1)
    slope_far = w[..., far] / (d[..., far] * beta)
    np.subtract(*reversed(ends(D)), out=w[..., 1:-1])
    w[..., near] = D[..., near]
    np.subtract(slope_far, D[..., far], out=w[..., far])
    return w


def _view(row: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of a flat scratch row, viewed with ``shape``."""
    return row[: math.prod(shape)].reshape(shape)


def product_weights(mesh: Mesh, i: int, beta: float) -> np.ndarray:
    """Weights for int_0^{t_i} (t_i - s)^(beta-1) phi(s) ds over nodes t_0..t_i.

    Parameters
    ----------
    mesh : Mesh
    i : int
        Target node index, 1 <= i <= N.
    beta : float
        One minus the singularity order, strictly inside (0, 1).

    Returns an array of length i + 1, exact on piecewise-linear phi.
    """
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise DomainError(f"node index must be an integer, got {i!r}")
    if not 1 <= i <= mesh.N:
        raise DomainError(f"node index must lie in [1, N={mesh.N}], got {i}")
    if not (math.isfinite(beta) and 0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta!r}")
    nodes = mesh.nodes[: i + 1]
    return _moments(nodes[-1] - nodes, np.diff(nodes), beta, "right")


def _triangle_blocks(nodes: np.ndarray, beta: float, factor):
    """Row blocks of the product-integration operator on nodes t_0..t_N.

    Yields (i0, i1, C) for consecutive row ranges i0 <= i < i1 covering
    1..N, where C[i - i0, j] = w_ij * factor(t_i - t_j) for j < i1 and w_i
    are the weights of :func:`product_weights` for node i;
    entries past the diagonal (j > i) are exactly 0. A block has as many
    rows as fit in BLOCK_ENTRIES entries, but never fewer than
    TRIANGLE_MIN_ROWS (the last block may have fewer). The layout depends
    on row indices only: the budget rules up to row 501 and the floor from
    there on, so the scratch, three rows of max(BLOCK_ENTRIES,
    TRIANGLE_MIN_ROWS (N + 1)) floats, grows as O(TRIANGLE_MIN_ROWS * N)
    (0.8 MB at N = 2048). Each block builds its lag
    matrix max(t_i - t_j, 0) once and calls ``factor`` once on it. C lives
    in scratch that the next block overwrites, so the caller may write
    into it, as the forward sweep adds 1 to the diagonal of the block's
    own square C[:, i0:i1]. The caller checks beta once; beta = 1 is the
    bounded (trapezoid) limit.
    """
    h = np.diff(nodes)
    i0, n = 1, len(nodes)
    floor = TRIANGLE_MIN_ROWS
    # every block reuses one scratch array: block-sized temporaries freed
    # at the heap top make glibc trim it, and the next block then faults
    # the same pages back in
    work = np.empty((3, max(BLOCK_ENTRIES, floor * n)))
    while i0 < n:
        # largest row count c with c * (i0 + c) <= BLOCK_ENTRIES, at least floor
        c = max(floor, (math.isqrt(i0 * i0 + 4 * BLOCK_ENTRIES) - i0) // 2)
        i1 = min(n, i0 + c)
        lag = _view(work[2], (i1 - i0, i1))
        np.subtract(nodes[i0:i1, None], nodes[:i1], out=lag)
        # t_i - t_j > 0 for j < i0 <= i: only the block's own columns clip
        np.maximum(lag[:, i0:], 0.0, out=lag[:, i0:])
        C = _moments(lag, h[: i1 - 1], beta, "right", work[:2])
        C *= factor(lag)
        yield i0, i1, C
        i0 = i1


def _soe(gamma: float, h_min: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponents lambda_l and weights w_l with t^(-gamma) = sum_l w_l
    e^(-lambda_l t) to about 1e-14 relative on [h_min, T].

    The trapezoid rule of step SOE_STEP in x = ln(lambda) on
    t^(-gamma) = Gamma(gamma)^-1 int e^(-t e^x + gamma x) dx. Above
    lambda = 40 / h_min it stops, where the terms fall below 1e-17
    relative. Below lambda T = SOE_TAIL its terms form a geometric series
    without end (millions of terms before they are negligible when gamma
    is small); they become one term with their exact mass and mean. The
    terms with lambda T <= SOE_GAUSS_CUT, that one included, are then
    replaced by the SOE_GAUSS_NODES-node Gauss rule of their discrete
    measure, from Lanczos on diag(lambda) and the eigenvalues of its
    Jacobi matrix. Exponents ascend and every weight is positive.
    """
    x_hi = math.log(SOE_DECAYED / h_min)
    n = math.ceil((x_hi - math.log(SOE_TAIL / T)) / SOE_STEP)
    x = x_hi - SOE_STEP * np.arange(n, -1, -1)
    lam = np.exp(x)
    w = SOE_STEP / math.gamma(gamma) * np.exp(gamma * x)
    # the terms at x[0] - j SOE_STEP, j >= 1, summed in closed form
    tail_mass = w[0] / math.expm1(gamma * SOE_STEP)
    tail_mean = lam[0] / math.expm1((1.0 + gamma) * SOE_STEP) * w[0] / tail_mass
    n_low = int(np.searchsorted(lam, SOE_GAUSS_CUT / T, side="right"))
    lam_low = np.concatenate([[tail_mean], lam[:n_low]])
    w_low = np.concatenate([[tail_mass], w[:n_low]])
    mass = w_low.sum()
    # Lanczos with full reorthogonalisation, started from sqrt(w / mass)
    Q = np.zeros((SOE_GAUSS_NODES, n_low + 1))
    Q[0] = np.sqrt(w_low / mass)
    J = np.zeros((SOE_GAUSS_NODES, SOE_GAUSS_NODES))
    for j in range(SOE_GAUSS_NODES):
        v = lam_low * Q[j]
        J[j, j] = Q[j] @ v
        if j + 1 < SOE_GAUSS_NODES:
            for _ in range(2):  # Gram-Schmidt twice keeps Q orthonormal
                v -= Q[: j + 1].T @ (Q[: j + 1] @ v)
            J[j, j + 1] = J[j + 1, j] = np.linalg.norm(v)
            Q[j + 1] = v / J[j, j + 1]
    nodes, vecs = np.linalg.eigh(J)
    return (
        np.concatenate([nodes, lam[n_low:]]),
        np.concatenate([mass * vecs[0] ** 2, w[n_low:]]),
    )


def _history_sums(nodes: np.ndarray, beta: float, phi: np.ndarray) -> np.ndarray:
    """int_0^{t_i} (t_i - s)^(beta-1) phi(s) ds at every node, phi
    interpolated linearly between its samples; 0 at t_0.

    Row i splits at t_(i-1). The last panel is product-integrated exactly
    with :func:`_moments`' weights. On the history [0, t_(i-1)] the lags
    t_i - s lie in [h_min, T] (the smallest panel width and the mesh
    length), where the kernel is the sum of exponentials of :func:`_soe`.
    Each exponential carries the integral S_l(i) over [0, t_i] of
    e^(-lambda_l (t_i - s)) phi(s) by the recurrence S_l(i) = e^(-z)
    S_l(i-1) + P_l(i), z = lambda_l h_i, where P_l(i) is the last panel's
    integral, exact for linear phi: h_i (g0(z) phi_i + g1(z) (phi_(i-1) -
    phi_i)) with g0 = (1 - e^-z)/z and g1 = (1 - e^-z (1 + z))/z^2. The
    decay is applied as S + expm1(-z) S, so its rounding does not compound
    over the rows of a uniform mesh.

    Rows 1..N are cut into SOE_STREAMS contiguous streams of L =
    ceil(N / SOE_STREAMS) rows. Each stream starts from a zero state at
    its anchor row a, the row before its first, and one Python step
    advances every stream by one row: L steps, not N. The last stream
    runs on past row N over copies of row N; those rows are dropped, and
    no stream starts from the last one's state. Then the true state at
    each anchor follows from the one before in closed form, S(a') =
    S_local(a') + e^(-lambda (t_a' - t_a)) S(a), and each row k of a
    stream gets sum_l w_l e^(-lambda_l (t_k - t_a)) S_l(a) over the
    exponentials with lambda_l (t_k - t_a) <= SOE_DECAYED. Rows go in
    blocks of BLOCK_ENTRIES entries in one scratch array, so memory stays
    flat at any N. With one stream this is the row-by-row recurrence, bit
    for bit.
    """
    h = np.diff(nodes)
    n = len(nodes)
    lam, w = _soe(1.0 - beta, float(h.min()), float(nodes[-1] - nodes[0]))
    n_exp = len(lam)
    out = np.zeros(n)
    last = np.zeros((n - 1, 2))
    last[:, 0] = h
    last = _moments(last, h[:, None], beta, "right")
    out[1:] = last[:, 0] * phi[:-1] + last[:, 1] * phi[1:]
    L = -(-(n - 1) // SOE_STREAMS)
    G = -(-(n - 1) // L)  # no stream is all padding
    pad = G * L - (n - 1)

    def streamed(v):
        """Per-row values as (step, stream), row N repeated to fill."""
        return np.pad(v, (0, pad), mode="edge").reshape(G, L).T

    h_s, phi_s, dphi_s = streamed(h), streamed(phi[1:]), streamed(phi[1:] - phi[:-1])
    hist = np.empty(L * G)  # e^(-z) S @ w, step by step
    S = np.zeros((G, n_exp))
    steps = max(1, BLOCK_ENTRIES // (G * n_exp))
    work = np.empty((4, steps * G * n_exp))
    mul, add = np.multiply, np.add
    for j0 in range(0, L, steps):
        j1 = min(L, j0 + steps)
        x, em1, P, g1 = (_view(row, (j1 - j0, G, n_exp)) for row in work)
        h_b = h_s[j0:j1, :, None]
        np.multiply(h_b, -lam, out=x)  # -z
        np.expm1(x, out=em1)
        np.divide(em1, x, out=P)  # g0
        np.subtract(P, 1.0, out=g1)
        g1 -= em1
        g1 /= x  # -g1
        # a row's z below SOE_SERIES_Z fill its first columns, but how
        # many differs from stream to stream
        series = x > -SOE_SERIES_Z
        xs = x[series]
        acc = xs * _SERIES[0]
        for coef in _SERIES[1:-1]:
            acc += coef
            acc *= xs
        acc += _SERIES[-1]
        g1[series] = acc
        P *= phi_s[j0:j1, :, None]
        g1 *= dphi_s[j0:j1, :, None]
        P += g1
        P *= h_b
        H = g1  # H[j - j0] = e^(-z) S, the history seen from each stream's row
        for e, row, p in zip(em1, H, P):  # L steps in all
            mul(e, S, row)
            add(row, S, row)
            add(row, p, S)
        np.matmul(H.reshape(-1, n_exp), w, out=hist[j0 * G : j1 * G])
    out[1:] += hist.reshape(L, G).T.ravel()[: n - 1]
    # S[g] becomes the true state at the anchor of stream g + 1
    anchors = nodes[::L]
    for g in range(1, G - 1):
        S[g] += S[g - 1]
        S[g] += np.expm1(-lam * (anchors[g + 1] - anchors[g])) * S[g - 1]
    room = work.shape[1]
    for g in range(1, G):
        a = g * L
        lag = nodes[a + 1 : a + L + 1] - nodes[a]
        ws = w * S[g - 1]
        i = 0
        while i < len(lag):
            # lambda ascends and the lag grows down the stream, so the
            # block's first row keeps the most exponentials
            c = int(np.searchsorted(lam, SOE_DECAYED / lag[i], side="right"))
            i1 = min(len(lag), i + room // c)
            E = _view(work[0], (i1 - i, c))
            np.multiply(lag[i:i1, None], -lam[:c], out=E)
            np.exp(E, out=E)
            out[a + 1 + i : a + 1 + i1] += E @ ws[:c]
            i = i1
    return out


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering n_rows rows, each block of n_cols
    columns holding at most BLOCK_ENTRIES entries (at least one row)."""
    step = max(1, BLOCK_ENTRIES // n_cols)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


@lru_cache(maxsize=1)
def _lobatto(P: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The P ascending Chebyshev-Lobatto points x_k = -cos(pi k / (P-1))
    on [-1, 1], their barycentric weights (-1)^k (halved at the ends), and
    the matrix of the DCT-I that maps values at the points to the
    coefficients of the interpolant in Chebyshev polynomials T_j.

    T_j(x_k) = cos(pi j (P-1-k) / (P-1)) is looked up in a table of the
    2(P-1) angles pi m / (P-1), reduced exactly in integers: the cosine of
    the unreduced product j (pi - theta_k) is off by up to 3e-14 at P = 64.
    """
    n = P - 1
    cos = [math.cos(math.pi * m / n) for m in range(2 * n)]
    x = np.array([-cos[k] for k in range(P)])
    x[0], x[-1] = -1.0, 1.0
    bary = np.ones(P)
    bary[1::2] = -1.0
    bary[[0, -1]] *= 0.5
    to_coef = np.empty((P, P))
    for j, row in enumerate(to_coef):
        row[:] = [cos[j * (n - k) % (2 * n)] for k in range(P)]
    # the DCT-I sum halves its end terms, and so do c_0 and c_(P-1)
    to_coef *= 2.0 / n
    to_coef[:, [0, -1]] *= 0.5
    to_coef[[0, -1]] *= 0.5
    for a in (x, bary, to_coef):
        a.setflags(write=False)
    return x, bary, to_coef


def _in_log_t(f, t: np.ndarray) -> np.ndarray:
    """f(t) at every time of the increasing positive flat array ``t``, for
    a vectorised f that is smooth in s = ln t, from LOG_T_POINTS rows of f
    instead of len(t).

    f is called once, at the Chebyshev-Lobatto points of s on [ln t[0],
    ln t[-1]], whose end points are t[0] and t[-1] exactly. When the last
    four Chebyshev coefficients of the interpolant are at most LOG_T_TAIL
    times the largest, the interpolant is evaluated at every other t by
    the barycentric formula, in blocks of BLOCK_ENTRIES entries, so memory
    stays flat at any len(t). Otherwise, and for fewer than
    4 * LOG_T_POINTS times, the result is f(t) itself. The rule's output
    is as smooth in ln t as g is: its nodes are fixed, and near 0 its
    terms go as t ln t and t (see README, "Numerical notes").
    """
    P = LOG_T_POINTS
    if len(t) < 4 * P:
        return f(t)
    x_k, bary, to_coef = _lobatto(P)
    s0, s1 = math.log(t[0]), math.log(t[-1])
    mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    t_k = np.exp(mid + half * x_k)
    t_k[0], t_k[-1] = t[0], t[-1]
    f_k = f(t_k)
    c = np.abs(to_coef @ f_k)
    if not c[-4:].max() <= LOG_T_TAIL * c.max():  # a NaN fails too
        return f(t)
    out = np.empty(len(t))
    out[0], out[-1] = f_k[0], f_k[-1]
    inner = out[1:-1]
    x = np.log(t[1:-1])
    x -= mid
    x /= half
    np.clip(x, -1.0, 1.0, out=x)
    weighted = bary * f_k
    work = np.empty(BLOCK_ENTRIES)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in _row_blocks(len(x), P):
            d = _view(work, (rows.stop - rows.start, P))
            np.subtract(x[rows, None], x_k, out=d)
            np.divide(1.0, d, out=d)
            # two matrix-vector products: one matrix product with both
            # columns makes BLAS set up its GEMM buffers, 0.1-0.25 MB more
            # peak RSS in a process that has not used them
            np.divide(d @ weighted, d @ bary, out=inner[rows])
    # a time on a point divides by 0 there, and takes the point's value
    on_point = np.isnan(inner)
    if on_point.any():
        inner[on_point] = f_k[np.searchsorted(x_k, x[on_point])]
    return out


def _check_panels(M) -> None:
    """Refuse a panel count per half that is not an even integer >= 16
    (the reference rule's coarse half-rule needs an even M)."""
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or M < 16 or M % 2:
        raise DomainError(f"need an even integer panel count of at least 16, got {M!r}")


def _default_panels(N: int) -> int:
    # M no longer couples to N: the integrands on [0, 1] have the same
    # endpoint structure at every t, so the reference rule's O(M^-4) error
    # does not depend on the mesh, and REF_PANELS bounds it for every N;
    # smaller meshes keep M = N/2, rounded down to even, at least 32
    return max(32, min(N // 2, REF_PANELS) // 2 * 2)


def _check_same_interval(K: KernelSpec, k: KernelSpec) -> None:
    """Refuse a convolution K * k of kernels on different intervals."""
    if k.b != K.b:
        raise DomainError(f"kernels live on different intervals: {k.b!r} vs {K.b!r}")


def _pair_panels(K: KernelSpec, k: KernelSpec, mesh: Mesh, M: int | None) -> int:
    """The panel count per half for K * k on the mesh, ``M`` or by default
    :func:`_default_panels`, after refusing kernels on different
    intervals, a mesh past their end and a bad ``M``."""
    _check_same_interval(K, k)
    if mesh.b > k.b * (1.0 + 1e-12):
        raise DomainError(
            f"mesh endpoint {mesh.b!r} exceeds the kernels' domain (0, {k.b!r}]"
        )
    if M is None:
        M = _default_panels(mesh.N)
    _check_panels(M)
    return M


@lru_cache(maxsize=128)
def _reference_rule(sigma: float, M: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Graded reference nodes v_j = (j/M)^r on [0, 1] and weights for
    int_0^1 v^(-sigma) phi(v) dv, for an even M.

    The product rule on the M panels errs by c M^-2 + O(M^-4) for smooth
    phi (de Hoog & Weiss, Math. Comp. 27, 1973), and so does the same
    rule on the nested every-other node v[::2], with 4c: ((2k)/M)^r =
    (k/(M/2))^r. One Richardson step, (4 w_M - w_(M/2)) / 3 with the
    coarse weights on the even nodes, leaves O(M^-4) on the same nodes.
    It stays exact on linear phi. Its weights alternate about 2/3 and 4/3
    of a panel weight, as in Simpson's rule, and are positive past v = 0;
    the weight at v = 0 dips below 0 on strongly graded rules with a weak
    singularity (down to -0.19 of its neighbour for r <= 4).
    """
    v = (np.arange(M + 1, dtype=float) / M) ** r
    v[-1] = 1.0
    beta = 1.0 - sigma
    w = _moments(v, np.diff(v), beta, "left")
    coarse = v[::2]
    w *= 4.0 / 3.0
    w[::2] -= _moments(coarse, np.diff(coarse), beta, "left") / 3.0
    v.setflags(write=False)
    w.setflags(write=False)
    return v, w


def convolve_weakly_singular(kernel: KernelSpec, phi: SampledFunction) -> SampledFunction:
    """Convolution (kernel * phi)(t_i) at every node of phi's mesh.

    The kernel is factored as t^(-local_exponent) * smooth(t); the weights
    absorb the power factor exactly while smooth(t_i - s) * phi(s) is
    interpolated linearly. phi must be finite at all interior nodes; a
    singular phi (NaN at t_0) needs :func:`convolve_pair` with a tabulated
    kernel instead. The value at t_0 is set to 0.

    A pure-power kernel (:attr:`KernelSpec.power_coef` set) on SOE_MIN_N
    or more panels takes :func:`_history_sums`: O(N * #exp) work in
    ceil(N / SOE_STREAMS) Python steps, not one per row. Everything else
    runs the dense triangle of :func:`_triangle_blocks`.
    """
    mesh = phi.mesh
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
    out = np.zeros(mesh.N + 1)
    if not phi.values.any():  # a zero phi (f' of a constant f) convolves to 0
        return SampledFunction(mesh=mesh, values=out)
    if kernel.power_coef is not None and mesh.N >= SOE_MIN_N:
        out = kernel.power_coef * _history_sums(mesh.nodes, beta, phi.values)
    else:
        for i0, i1, C in _triangle_blocks(mesh.nodes, beta, kernel.smooth):
            out[i0:i1] = C @ phi.values[:i1]
    return SampledFunction(mesh=mesh, values=out)


def _pair_convolution(K: KernelSpec, k: KernelSpec, t: np.ndarray, M: int) -> np.ndarray:
    """(K * k)(t_j) at every time of the flat array ``t`` (see
    :func:`convolve_pair_at` for the quadrature).

    For a block of times the integrands of a half form one matrix, so each
    half costs one call of each bounded factor and one matrix-vector
    product; pure-power factors cost none (see :func:`_half_sums`).
    """
    sig_k, sig_K = k.local_exponent, K.local_exponent
    # every pair a pipeline convolves has orders summing to 1, so this is
    # the cap of the grading
    r_ref = default_grading(sig_K, sig_k)
    left = _half_sums(k, K, *_reference_rule(sig_k, M, r_ref))
    right = _half_sums(K, k, *_reference_rule(sig_K, M, r_ref))
    out = np.empty(len(t))
    c = 0.5 * t
    scale_k, scale_K = c ** (1.0 - sig_k), c ** (1.0 - sig_K)
    for rows in _row_blocks(len(t), M + 1):
        tb = t[rows, None]
        out[rows] = scale_k[rows] * left(tb) + scale_K[rows] * right(tb)
    return out


def _half_sums(S: KernelSpec, E: KernelSpec, v: np.ndarray, w: np.ndarray):
    """The sums of one half of the split at t/2: for a block of times
    ``tb`` (a column), sum_j w_j S.smooth(s_j) E(t - s_j) at s_j = (t/2) v_j.

    E(t - s) = t^(-p) (1 - v/2)^(-p) E.smooth(t - s) for E's order p, so
    E's power folds into the weights once per call and only bounded
    factors are evaluated. So does the constant bounded factor of a pure
    power, S's first: a half whose factors both fold is one number per
    call times t^(-p). The first node v_0 = 0 is s = 0, where S's bounded
    factor is S.smooth0, so S is evaluated at the other nodes only.
    """
    lag_v = 1.0 - 0.5 * v  # (t - s) / t
    p = E.local_exponent
    fold = lag_v**-p
    if S.power_coef is not None:
        w, S = w * S.power_coef, None
    if E.power_coef is not None:
        fold, E = E.power_coef * fold, None
    w = w * fold
    total = w.sum()
    s_v = 0.5 * v[1:]  # s / t past the first node

    def sums(tb):
        if S is None and E is None:
            out = np.full(len(tb), total)
        elif S is None:
            out = E.smooth(tb * lag_v) @ w
        else:
            m = S.smooth(tb * s_v)
            first = S.smooth0 * w[0]
            if E is not None:
                e = E.smooth(tb * lag_v)
                m = m * e[:, 1:]
                first = first * e[:, 0]
            out = m @ w[1:] + first
        return out * tb[:, 0] ** -p

    return sums


def convolve_pair_at(K: KernelSpec, k: KernelSpec, t: float, M: int) -> float:
    """(K * k)(t) for two singular kernels, by splitting at t/2.

    Each half scales a fixed graded reference rule on [0, 1]: the factor
    singular on that half supplies exact product weights, the other factor
    is evaluated on the scaled reference nodes and interpolated linearly.
    This is the one-row case of :func:`convolve_pair`'s blocked sums.
    """
    _check_same_interval(K, k)
    if not 0.0 < t <= K.b * (1.0 + 1e-12):
        raise DomainError(f"t must lie in (0, {K.b!r}], got {t!r}")
    _check_panels(M)
    return float(_pair_convolution(K, k, np.array([float(t)]), M)[0])


def convolve_pair(
    K: KernelSpec, k: KernelSpec, mesh: Mesh, M: int | None = None
) -> SampledFunction:
    """Convolution K * k at every interior mesh node.

    Handles a singularity of k at s = 0 and of K at s = t simultaneously.
    The value at t_0 is undefined (NaN); a limit there is the business of
    the g(0) extrapolation, not of the quadrature.
    """
    M = _pair_panels(K, k, mesh, M)
    out = np.full(mesh.N + 1, np.nan)
    out[1:] = _pair_convolution(K, k, mesh.nodes[1:], M)
    return SampledFunction(mesh=mesh, values=out)
