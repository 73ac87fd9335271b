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
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec
from .mesh import END_SLACK, Mesh, SampledFunction, default_grading

__all__ = [
    "product_weights",
    "convolve_weakly_singular",
    "convolve_pair",
]

#: float64 entries in one block matrix of a blocked O(N M) row sum (64 KiB)
#: and of the anchor carry of the sum-of-exponentials history sums: fixed
#: so the block matrices stay in cache and peak memory stays flat at any N
#: and M. Larger blocks made glibc trim the heap each time a block's
#: temporaries were freed, and fault the same pages back in for the next
#: block. The O(N^2) triangle of :func:`_triangle_blocks` and the history
#: sums' steps size their blocks by rows instead (LEAF_ROWS,
#: SOE_BLOCK_ROWS), into one scratch array per call, which no block frees
BLOCK_ENTRIES = 8192

#: panel count per half of the reference rule for K * k on meshes of
#: 2 * REF_PANELS panels or more (see :func:`_default_panels`): the smallest
#: power of two at which g, g less delta (sonine's ``_defect``) and g' are no
#: less accurate than the plain rule at M = N/2 for every N up to 16384.
#: Largest relative error against mpmath on four affine profiles, three
#: times each: g 9.2e-10 (direct) and 1.0e-10 (less delta), g' 1.1e-8;
#: the plain rule at M = 8192 (N = 16384) gives 2.6e-9, 8.7e-10 and 6.9e-8
REF_PANELS = 256

#: rows per leaf of :func:`_triangle_blocks`' row-cluster tree (the last
#: leaf takes the remainder), FAR_POINTS interpolation points per
#: cluster, and the gap, in cluster spans, between a cluster and its far
#: columns. A gap of 1 puts the nearest singularity of a cluster's band 3
#: half-spans from the cluster's middle. Best/median ms of 25
#: interleaved runs, single-threaded BLAS on a shared 2-vCPU x86-64 host,
#: pair 0.5 + 0.2t, r = 2 on (0, 0.5], "sweep" one forward sweep of f = t
#: and "conv" one convolution of the variable k; "entries" are the
#: sweep's at N = 2048 and 8192; "conv err" is the largest gap to the
#: dense triangle, relative to its largest value, of the convolution of
#: cos 7t + t by three affine profiles at N = 2048 and r in {1, 2, 4};
#: "tab" is the largest relative error of the tabulated K * 1 of
#: tests/test_closed_form.py at N = 1408 to 8192, pinned at 1e-14. Every
#: sweep is within 1.0e-10 of the dense one's max |u|. 16 points miss the
#: pin, and 17 on a gap of 1 are the fewest entries that meet it; leaves
#: of 128 rows sum 41% more entries and are slower. Only clusters of 54
#: rows or more put 17 points on distinct rows, so leaves of 32 rows
#: cannot take them:
#:
#:   leaf  points  gap   entries       conv err tab      sweep                  conv
#:                       2048  8192                     2048       8192        2048       8192
#:   64    16      1     386k  1.94M  5.1e-14  1.1e-14  13.1/14.2  63.8/67.8   10.1/10.6  47.8/49.9
#:   64    17      1     397k  2.01M  8.6e-15  2.0e-15  13.6/14.1  65.4/70.0   10.4/11.0  48.3/50.4
#:   64    18      1     409k  2.08M  2.2e-15  1.2e-15  13.6/14.4  66.9/70.6   10.6/11.0  49.4/51.2
#:   64    16      1.25  440k  2.22M  3.4e-15  1.4e-15  14.0/14.8  68.9/72.3   10.9/11.3  51.1/53.3
#:   64    16      1.5   492k  2.49M  1.9e-15  9.7e-16  14.4/15.4  74.2/77.8   11.2/11.8  53.0/56.6
#:   128   17      1     561k  2.62M  8.2e-15  1.8e-15  16.3/17.1  73.8/80.1   11.8/12.8  51.7/53.5
#:
#: Each leaf is one block, whose lag factor is evaluated on and below the
#: diagonal only. Leaves cut into blocks of 32 rows, whose lags shared
#: one call of the lag factor, ran in the same 25 runs at 12.8/13.9 and
#: 62.2/66.6 ms for the sweep and 9.5/10.7 and 44.5/49.7 for the
#: convolution, with 430k and 2.13M entries and the same errors, but two
#: to four weight blocks and LU solves per leaf instead of one.
#: FAR_GAP = inf leaves every cluster without far columns: the dense
#: triangle, the tests' oracle.
LEAF_ROWS = 64
FAR_POINTS = 17
FAR_GAP = 1.0

#: panel count N from which :func:`convolve_weakly_singular` sums the
#: history of a pure-power kernel by sum-of-exponentials recurrence, in
#: O(N * #exp), instead of the O(N^2) triangle. One convolution of
#: cos 7t + t on an r=2 mesh of (0, 0.5], kernel exponents 0.3, 0.5 and
#: 0.7, in ms, best of 60 runs interleaved over every N, single-threaded
#: BLAS on a shared 2-vCPU x86-64 host; the triangle is the row-cluster
#: tree of :func:`_triangle_blocks`, the SOE :func:`_history_sums` with
#: its exact first leaf and 256-row blocks:
#:
#:     N          256        288        320        352        384        416        448
#:     triangle   0.84-0.87  1.26-1.43  1.09-1.22  1.74-1.81  1.37-1.47  1.63-1.93  1.72-1.75
#:     SOE        1.04-1.07  1.27-1.29  1.13-1.18  1.34-1.36  1.19-1.25  1.35       1.31-1.33
#:
#: So the crossover lies between 320 and 352, where the SOE without its
#: first leaf put it too (1.07-1.13 and 1.22-1.23 ms there, beside a
#: triangle of 1.13-1.19 and 1.39-1.43). The triangle's 288 reads high:
#: calls alternating with SOE calls made it fault up to 280 pages back in
#: a call, with either SOE (resource.getrusage minor faults).
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
#: taken from its Taylor series, since the closed form cancels: against
#: 40-digit mpmath the closed form errs at most 1.8e-15 relative from z =
#: 0.1 on (1.3e-15 from 0.25 on, 4.3e-15 from 0.05 on). The series takes
#: 47% of the entries of an N = 4096, r = 2 call; a cut at 0.25, 52%
SOE_SERIES_Z = 0.1

#: Taylor coefficients -(k + 1) / (k + 2)! of minus that moment in powers
#: of -z, highest first for Horner; nine terms leave at most 4.4e-16
#: relative below SOE_SERIES_Z (eight leave 5e-14)
_SERIES = np.array([-(k + 1) / math.factorial(k + 2) for k in range(9)])[::-1]

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

#: rows that one block of :func:`_history_sums`' steps forms the panel
#: integrals of, SOE_BLOCK_ROWS // SOE_STREAMS steps of every stream; its
#: scratch has 4 SOE_BLOCK_ROWS #exp floats (0.62 MB at N = 8192, r = 2,
#: 76 exponentials), allocated once per call. Best / median ms of 40
#: interleaved calls, exponent 0.5, phi = cos 7t + t, r = 2 on (0, 0.5],
#: on a shared 2-vCPU x86-64 host; the entry budget of BLOCK_ENTRIES
#: gave 80 rows at N = 4096. No size faulted a page back in between calls
#: (resource.getrusage minor faults, 0 a call from the fourth on):
#:
#:     rows        80           128          256          512          1024
#:     N = 512     1.40/1.62    1.31/1.54    1.28/1.50    1.32/1.52    1.35/1.55
#:     N = 1024    2.25/2.54    2.06/2.31    1.96/2.25    2.06/2.29    2.13/2.48
#:     N = 2048    3.62/4.04    3.30/3.72    3.37/3.57    3.45/3.61    3.60/3.81
#:     N = 4096    6.67/7.47    6.45/6.74    6.15/6.37    6.05/6.37    6.46/6.78
#:     N = 8192    12.41/13.54  12.05/12.54  11.39/11.86  11.32/11.74  12.05/12.66
SOE_BLOCK_ROWS = 256


def _moments(
    d: np.ndarray, h: np.ndarray, beta: float, work: np.ndarray | None = None
) -> np.ndarray:
    """Product-integration weights along the last axis of ``d``.

    ``d`` holds each node's distance to the singular point, which lies on
    or past a row's last node, and ``h`` the panel widths. The weights w
    satisfy sum_j w_j phi(s_j) = int w(s) phi(s) ds for w(s) =
    (distance)^(beta-1) over the row's nodes, exactly for piecewise-linear
    phi. A row of ``d`` may end in zeros, whose panels then have weight
    exactly 0; its first node must have d > 0. Valid for beta in (0, 1];
    beta = 1 is the trapezoid rule. :func:`_mirrored_moments` serves a
    singular point at the first node.

    Phi(d) = d^(beta+1) / (beta (beta+1)) has Phi'' = d^(beta-1), so each
    weight is Phi's second divided difference across its hat function:
    w_j = D_(j-1) - D_j, where D_k = (Phi(d_k) - Phi(d_(k+1))) / h_k is
    Phi's slope across panel k. At the two end nodes the missing panel's
    slope is Phi'(d) = d^beta / beta: (beta+1) Phi(d) / d at the first
    node, and at the last, whose hat is cut there, d_last^beta / beta,
    exactly 0 on the singular node. A row costs one power per node and
    one for the cut; with d_last = 0 its weights telescope to d_first^beta
    / beta.
    Neighbouring slopes nearly cancel far from the singular point: a
    weight carries a relative rounding error of about eps (d/h)^2.

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
    # w holds beta (beta+1) Phi at the nodes until the differences replace
    # it; np.power is slow at 0, which a leaf of the triangle holds past its
    # diagonal, so Phi(0) = 0 is filled in
    w.fill(0.0)
    np.power(d, beta + 1.0, out=w, where=d != 0.0)
    np.subtract(w[..., :-1], w[..., 1:], out=D)
    D /= h * (beta * (beta + 1.0))
    slope_first = w[..., 0] / (d[..., 0] * beta)
    np.subtract(D[..., :-1], D[..., 1:], out=w[..., 1:-1])
    w[..., -1] = D[..., -1] - d[..., -1] ** beta / beta
    np.subtract(slope_first, D[..., 0], out=w[..., 0])
    return w


def _mirrored_moments(d: np.ndarray, h: np.ndarray, beta: float) -> np.ndarray:
    """:func:`_moments` for a singular point on or before the first node of
    the row ``d``, through its contiguous reversed copy; the weights are
    returned contiguous, in the row's order."""
    return _moments(d[::-1].copy(), h[::-1], beta)[::-1].copy()


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
    return _moments(nodes[-1] - nodes, np.diff(nodes), beta)


def _cluster_tree(nodes: np.ndarray) -> tuple[list, list, list]:
    """The row-cluster tree of :func:`_triangle_blocks` on nodes t_0..t_N.

    Returns the leaves' first rows (and N + 1 last), each leaf's far
    boundary jf, and per leaf the bands (s0, s1, jp, jc) of the clusters
    whose first leaf it is, outermost first: rows s0 <= i < s1 sum the
    columns from their parent's far boundary jp to their own, jc > jp. A
    cluster's jc is the last node at least FAR_GAP spans left of its first
    row, so it never lies left of its parent's; the root's is 0.
    """
    n = len(nodes)
    leaves = max(1, (n - 1) // LEAF_ROWS)
    starts = [1 + k * LEAF_ROWS for k in range(leaves)] + [n]
    # (first leaf, last leaf + 1, parent), each cluster split at its middle
    # leaf, parents before children
    clusters = [(0, leaves, 0)]
    for c, (q0, q1, _) in enumerate(clusters):
        if q1 - q0 > 1:
            mid = (q0 + q1) // 2
            clusters += [(q0, mid, c), (mid, q1, c)]
    # every cluster but the root has two rows or more
    limits = []
    for q0, q1, _ in clusters[1:]:
        a, b = nodes.item(starts[q0]), nodes.item(starts[q1] - 1)
        limits.append(a - FAR_GAP * (b - a))
    jc = [0] + [max(j - 1, 0) for j in np.searchsorted(nodes, limits, side="right").tolist()]
    jf = [0] * leaves
    bands = [[] for _ in range(leaves)]
    for (q0, q1, parent), j in zip(clusters, jc):
        if j > jc[parent]:
            bands[q0].append((starts[q0], starts[q1], jc[parent], j))
        if q1 - q0 == 1:
            jf[q0] = j
    return starts, jf, bands


#: the entries on or below a leaf's diagonal, by rows, columns and offset
_lower = lru_cache(maxsize=128)(partial(np.tri, dtype=bool))


def _triangle_blocks(nodes: np.ndarray, beta: float, factor, x: np.ndarray):
    """Row blocks of the product-integration operator on nodes t_0..t_N,
    applied to the node values ``x``.

    Yields (i0, i1, j0, C, far) for consecutive row ranges i0 <= i < i1
    covering 1..N. C[i - i0, j - j0] = w_ij * factor(t_i - t_j) for
    columns j0 <= j < i1, where w_i are the weights of
    :func:`product_weights` for node i, except that column j0 > 0 keeps
    only the right half of its hat; entries past the diagonal (j > i) are
    exactly 0. ``far`` is None when j0 = 0, and otherwise holds each row's
    integral over [t_0, t_j0] (the rest of the row applied to x), so row i
    of the operator applied to x is far + C @ x[j0:i1].

    Rows go in a binary tree of clusters (:func:`_cluster_tree`). Its
    leaves have LEAF_ROWS rows from row 1 on, the last taking the
    remainder, and each cluster is split at its middle leaf. For a
    cluster on [a, b] = [t_s0, t_(s1-1)], its far boundary jc is the last
    node at least FAR_GAP (b - a) left of a (0 for the root), which never
    lies left of its parent's, jp. The cluster sums its own band of
    columns, [t_jp, t_jc], which is a smooth function of the row's time
    there: :func:`_far_sums` evaluates it exactly at FAR_POINTS of the
    cluster's rows and interpolates it to the others. A row's far sum is
    the sum of the bands of the clusters that hold it, which tile [t_0,
    t_j0] for its leaf's j0 once. Each band reads x[:jc + 1] when the
    cluster's first leaf is requested, so a forward sweep that writes its
    solved rows into x before it asks for the next block has them in
    place (jc < s0). Each leaf is one block: its near columns run from j0
    on, and past column j0 each weight is the dense row's, bit for bit. A
    row then costs O(LEAF_ROWS) near entries and each level of the tree
    O(FAR_POINTS N) far ones, so the triangle costs O(N FAR_POINTS log(N /
    LEAF_ROWS) + N LEAF_ROWS) entries instead of N^2 / 2: 0.40M at N =
    2048 and 2.0M at 8192 on an r = 2 mesh. FAR_GAP = inf gives every
    cluster jc = 0 and so the dense triangle.

    Each leaf builds its lag matrix max(t_i - t_j, 0) once, takes C's
    weights from one :func:`_moments` call on it, whose rows end in 0 at
    the leaf's last column, so no row's last hat is cut, and calls
    ``factor``, an elementwise function, once on its entries on or below
    the diagonal: a call of a variable kernel's bounded factor costs tens
    of µs whatever its size, and C is 0 past the diagonal anyway. One
    scratch array of three rows holds a leaf's lags, slopes and weights,
    or a far sum's points: its rows have max((s1 - s0) (s1 - j0),
    FAR_POINTS (jc - jp + 1)) floats, O(FAR_POINTS N) on a graded mesh
    (2.4 MB traced at N = 8192, r = 2). ``far`` holds N + 1 values. C
    lives in scratch that the next block overwrites, so the caller may
    write into it, as the forward sweep adds 1 to the diagonal of the
    block's own square C[:, i0 - j0:]. The caller checks beta once; beta
    = 1 is the bounded (trapezoid) limit.
    """
    h = np.diff(nodes)
    starts, jf, bands = _cluster_tree(nodes)
    near = max((s1 - s0) * (s1 - j0) for s0, s1, j0 in zip(starts, starts[1:], jf))
    span = max((jc - jp + 1 for leaf in bands for *_, jp, jc in leaf), default=0)
    # every block and far sum reuses one scratch array: block-sized
    # temporaries freed at the heap top make glibc trim it, and the next
    # block then faults the same pages back in
    work = np.empty((3, max(near, FAR_POINTS * span)))
    far = np.zeros(len(nodes))
    far_rows = lru_cache(maxsize=None)(_far_rows)  # clusters share sizes
    for s0, s1, j0, leaf in zip(starts, starts[1:], jf, bands):
        for c0, c1, jp, jc in leaf:
            far[c0:c1] += _far_sums(
                nodes[jp : jc + 1],
                h[jp:jc],
                beta,
                factor,
                x[jp : jc + 1],
                nodes[c0:c1],
                far_rows(c1 - c0),
                work,
            )
        lag = _view(work[2], (s1 - s0, s1 - j0))
        np.subtract(nodes[s0:s1, None], nodes[j0:s1], out=lag)
        # t_i - t_j > 0 for j < s0 <= i: only the leaf's own columns clip
        np.maximum(lag[:, s0 - j0 :], 0.0, out=lag[:, s0 - j0 :])
        C = _moments(lag, h[j0 : s1 - 1], beta, work[:2])
        low = _lower(s1 - s0, s1 - j0, s0 - j0)
        C[low] *= factor(lag[low])
        yield s0, s1, j0, C, far[s0:s1] if j0 else None


def _far_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a cluster of n rows nearest the FAR_POINTS
    Chebyshev-Lobatto points of its index range, its ends among them, and
    the other rows."""
    rows = np.rint(0.5 * (n - 1) * (1.0 + _lobatto(FAR_POINTS)[0])).astype(int)
    off = np.ones(n, dtype=bool)
    off[rows] = False
    return rows, np.flatnonzero(off)


def _far_sums(
    nodes: np.ndarray,
    h: np.ndarray,
    beta: float,
    factor,
    x: np.ndarray,
    t: np.ndarray,
    points: tuple[np.ndarray, np.ndarray],
    work: np.ndarray,
) -> np.ndarray:
    """The product rule over [t_jp, t_jc] for a row with singular point t,
    sum_j w_j(t) factor(t - t_j) x_j, at every time of the increasing array
    ``t``, for ``nodes`` t_jp..t_jc left of t[0] and ``x`` = x_jp..x_jc.

    The sums are formed exactly at the rows ``points`` of
    :func:`_far_rows` and interpolated to the others by
    :func:`_barycentric`. At a point s the weights are :func:`_moments`'
    for nodes t_jp..t_jc with singular point s past them: the first hat
    keeps its right half, and :func:`_moments` cuts the last at t_jc.
    Points on rows, not at the Chebyshev points themselves, keep the lags
    that the near field sees: on a uniform mesh every lag is a node, where
    a piecewise-linear factor is exact, and the sweep agrees with the
    dense triangle to rounding. ``work`` is :func:`_triangle_blocks`'
    scratch.
    """
    rows, others = points
    s = t[rows]
    lag = _view(work[2], (len(s), len(nodes)))
    np.subtract(s[:, None], nodes, out=lag)
    F = _moments(lag, h, beta, work[:2])
    F *= factor(lag)
    out = np.empty(len(t))
    out[rows] = F @ x
    # barycentric weights of the points, scaled to [0, 1]
    dz = np.subtract.outer(s, s)
    dz /= s[-1] - s[0]
    dz.flat[:: len(s) + 1] = 1.0
    out[others] = _barycentric(s, 1.0 / dz.prod(axis=1), out[rows], t[others])
    return out


def _soe(gamma: float, h_min: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponents lambda_l and weights w_l with t^(-gamma) = sum_l w_l
    e^(-lambda_l t) to about 1e-14 relative on [h_min, T]. Built afresh on
    every call: :func:`_history_sums` passes the smallest lag its history
    sums see, so the count follows the mesh.

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

    Rows 1..LEAF_ROWS are the first leaf of :func:`_triangle_blocks`,
    the dense rows bit for bit; N must exceed LEAF_ROWS. Every later row
    i splits at t_(i-1). The last panel is product-integrated exactly
    with :func:`_moments`' weights. On the history [0, t_(i-1)] the lags
    t_i - s lie in [h_min, T], for h_min the smallest width of the panels
    past the first leaf's (h_i for i > LEAF_ROWS) and T the mesh length,
    where the kernel is the sum of exponentials of :func:`_soe`: on an r
    = 2 mesh of N = 4096 panels 70 exponentials, where the whole mesh's
    h_1 would take 89. Each exponential carries the integral S_l(i) over
    [0, t_i] of e^(-lambda_l (t_i - s)) phi(s) by the recurrence S_l(i) =
    e^(-z) S_l(i-1) + P_l(i), z = lambda_l h_i, where P_l(i) is the last
    panel's integral, exact for linear phi: h_i (g0(z) phi_i + g1(z)
    (phi_(i-1) - phi_i)) with g0 = (1 - e^-z)/z and g1 = (1 - e^-z (1 +
    z))/z^2. The decay is applied as S + expm1(-z) S, so its rounding does
    not compound over the rows of a uniform mesh. The recurrence runs
    through the first leaf's rows too: each S_l is exact whatever the
    lags, and only those rows' sums would miss the lags below h_min.

    Rows 1..N are cut into SOE_STREAMS contiguous streams of L =
    ceil(N / SOE_STREAMS) rows. Each stream starts from a zero state at
    its anchor row a, the row before its first, and one Python step
    advances every stream by one row: L steps, not N. The last stream
    runs on past row N over copies of row N; those rows are dropped, and
    no stream starts from the last one's state. Then the true state at
    each anchor follows from the one before in closed form, S(a') =
    S_local(a') + e^(-lambda (t_a' - t_a)) S(a), and each row k of a
    stream gets sum_l w_l e^(-lambda_l (t_k - t_a)) S_l(a) over the
    exponentials with lambda_l (t_k - t_a) <= SOE_DECAYED. The steps go
    in blocks of SOE_BLOCK_ROWS rows, and the carry in blocks of at most
    BLOCK_ENTRIES entries, in one scratch array, so memory grows with
    #exp, as log N, and not with N #exp. With one stream this is the
    row-by-row recurrence, bit for bit.
    """
    h = np.diff(nodes)
    n = len(nodes)
    lam, w = _soe(1.0 - beta, float(h[LEAF_ROWS:].min()), float(nodes[-1] - nodes[0]))
    n_exp = len(lam)
    out = np.zeros(n)
    last = np.zeros((n - 1, 2))
    last[:, 0] = h
    last = _moments(last, h[:, None], beta)
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
    steps = max(1, SOE_BLOCK_ROWS // G)
    work = np.empty((4, max(steps * G * n_exp, BLOCK_ENTRIES)))
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
    for g in range(1, G):
        a = g * L
        lag = nodes[a + 1 : a + L + 1] - nodes[a]
        ws = w * S[g - 1]
        i = 0
        while i < len(lag):
            # lambda ascends and the lag grows down the stream, so the
            # block's first row keeps the most exponentials
            c = int(np.searchsorted(lam, SOE_DECAYED / lag[i], side="right"))
            i1 = min(len(lag), i + BLOCK_ENTRIES // c)
            E = _view(work[0], (i1 - i, c))
            np.multiply(lag[i:i1, None], -lam[:c], out=E)
            np.exp(E, out=E)
            out[a + 1 + i : a + 1 + i1] += E @ ws[:c]
            i = i1
    # rows 1..LEAF_ROWS see lags below the SOE's interval: the triangle's
    # first leaf, with the pure power's lag factor 1
    first = slice(0, LEAF_ROWS + 1)
    C = next(_triangle_blocks(nodes[first], beta, np.ones_like, phi[first]))[3]
    out[1 : LEAF_ROWS + 1] = C @ phi[first]
    return out


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering n_rows rows, each block of n_cols
    columns holding at most BLOCK_ENTRIES entries (at least one row)."""
    step = max(1, BLOCK_ENTRIES // n_cols)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _barycentric(
    points: np.ndarray, weights: np.ndarray, values: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The interpolant through ``values`` at the ascending ``points``, of
    barycentric ``weights``, at every time of the flat array ``x``.

    The second barycentric formula (d @ (weights values)) / (d @ weights),
    d = 1 / (x - points) (Berrut and Trefethen, SIAM Review 46, 2004),
    in blocks of BLOCK_ENTRIES entries of d, so memory stays flat at any
    len(x). An x on a point divides by 0 there, and takes the point's
    value; a NaN among the values stays NaN at every other x.
    """
    weighted = weights * values
    out = np.empty(len(x))
    work = np.empty(BLOCK_ENTRIES)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in _row_blocks(len(x), len(points)):
            d = _view(work, (rows.stop - rows.start, len(points)))
            np.subtract(x[rows, None], points, out=d)
            np.divide(1.0, d, out=d)
            # two matrix-vector products: one matrix product with both
            # columns makes BLAS set up its GEMM buffers, 0.1-0.25 MB more
            # peak RSS in a process that has not used them
            np.divide(d @ weighted, d @ weights, out=out[rows])
    if np.isnan(out).any():
        at = np.minimum(np.searchsorted(points, x), len(points) - 1)
        on_point = points[at] == x
        out[on_point] = values[at[on_point]]
    return out


@lru_cache(maxsize=2)
def _lobatto(P: int) -> tuple[np.ndarray, np.ndarray]:
    """The P ascending Chebyshev-Lobatto points x_k = -cos(pi k / (P-1))
    on [-1, 1] and their barycentric weights (-1)^k, halved at the ends."""
    x = np.array([-math.cos(math.pi * k / (P - 1)) for k in range(P)])
    x[0], x[-1] = -1.0, 1.0
    bary = np.ones(P)
    bary[1::2] = -1.0
    bary[[0, -1]] *= 0.5
    for a in (x, bary):
        a.setflags(write=False)
    return x, bary


def _in_log_t(f, t: np.ndarray) -> np.ndarray:
    """f(t) at every time of the increasing positive flat array ``t``, for
    a vectorised f that is smooth in s = ln t, from LOG_T_POINTS rows of f
    instead of len(t).

    f is called once, at the Chebyshev-Lobatto points of s on [ln t[0],
    ln t[-1]], whose end points are t[0] and t[-1] exactly. The
    interpolant's Chebyshev coefficients are the DCT-I of the samples,
    taken from one FFT of their even extension. When the last four are at
    most LOG_T_TAIL times the largest, the interpolant is evaluated at
    every other t by :func:`_barycentric`. Otherwise, and for fewer than
    4 * LOG_T_POINTS times, the result is f(t) itself. The rule's output
    is as smooth in ln t as g is: its nodes are fixed, and near 0 its
    terms go as t ln t and t (see README, "Numerical notes").
    """
    P = LOG_T_POINTS
    if len(t) < 4 * P:
        return f(t)
    x_k, bary = _lobatto(P)
    s0, s1 = math.log(t[0]), math.log(t[-1])
    mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    t_k = np.exp(mid + half * x_k)
    t_k[0], t_k[-1] = t[0], t[-1]
    f_k = f(t_k)
    # (P - 1) c_j: the DCT-I sum halves its end terms, and so do c_0 and
    # c_(P-1); ascending points flip the sign of every odd c_j
    c = np.abs(np.fft.rfft(np.concatenate([f_k, f_k[-2:0:-1]])).real)
    c[[0, -1]] *= 0.5
    if not c[-4:].max() <= LOG_T_TAIL * c.max():  # a NaN fails too
        return f(t)
    x = np.log(t[1:-1])
    x -= mid
    x /= half
    np.clip(x, -1.0, 1.0, out=x)
    return np.concatenate([f_k[:1], _barycentric(x_k, bary, f_k, x), f_k[-1:]])


def _default_panels(N: int) -> int:
    # M no longer couples to N: the integrands on [0, 1] have the same
    # endpoint structure at every t, so the reference rule's O(M^-4) error
    # does not depend on the mesh, and REF_PANELS bounds it for every N;
    # smaller meshes keep M = N/2, rounded down to even, at least 32
    return max(32, min(N // 2, REF_PANELS) // 2 * 2)


def _pair_panels(K: KernelSpec, k: KernelSpec, mesh: Mesh) -> int:
    """The panel count per half for K * k on the mesh,
    :func:`_default_panels`, after refusing kernels on different
    intervals and a mesh past their end."""
    if k.b != K.b:
        raise DomainError(f"kernels live on different intervals: {k.b!r} vs {K.b!r}")
    if mesh.b > k.b * END_SLACK:
        raise DomainError(
            f"mesh endpoint {mesh.b!r} exceeds the kernels' domain (0, {k.b!r}]"
        )
    return _default_panels(mesh.N)


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
    singularity (down to -0.19 of its neighbour for r <= 4). The singular
    point is the first node, so both rules are :func:`_moments`' on the
    mirrored rows (:func:`_mirrored_moments`).
    """
    v = (np.arange(M + 1, dtype=float) / M) ** r
    v[-1] = 1.0
    beta = 1.0 - sigma
    w = _mirrored_moments(v, np.diff(v), beta)
    coarse = v[::2]
    w *= 4.0 / 3.0
    w[::2] -= _mirrored_moments(coarse, np.diff(coarse), beta) / 3.0
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
    runs the triangle of :func:`_triangle_blocks`, one layout at every N:
    near columns exactly, and each row cluster's band of far columns
    interpolated in t_i, which agrees with the dense triangle to within
    1e-14 of max |k * phi| for a smooth bounded factor (8.6e-15 at N =
    2048 for r in {1, 2, 4}).
    """
    mesh = phi.mesh
    if mesh.b > kernel.b * END_SLACK:
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
        for i0, i1, j0, C, far in _triangle_blocks(mesh.nodes, beta, kernel.smooth, phi.values):
            out[i0:i1] = C @ phi.values[j0:i1]
            if far is not None:
                out[i0:i1] += far
    return SampledFunction(mesh=mesh, values=out)


def _pair_convolution(K: KernelSpec, k: KernelSpec, t: np.ndarray, M: int) -> np.ndarray:
    """(K * k)(t_j) at every time of the flat array ``t``, by splitting at
    t_j/2, with ``M`` panels per half (an even count).

    Each half scales a fixed graded reference rule on [0, 1]: the factor
    singular on that half supplies exact product weights, the other factor
    is evaluated on the scaled reference nodes and interpolated linearly.
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


def convolve_pair(K: KernelSpec, k: KernelSpec, mesh: Mesh) -> SampledFunction:
    """Convolution K * k at every interior mesh node.

    Handles a singularity of k at s = 0 and of K at s = t simultaneously,
    by :func:`_pair_convolution`'s rule with the mesh's panel count
    (:func:`_default_panels`). The value at t_0 is undefined (NaN); a
    limit there is the business of the g(0+) reading, not of the
    quadrature.
    """
    M = _pair_panels(K, k, mesh)
    out = np.full(mesh.N + 1, np.nan)
    out[1:] = _pair_convolution(K, k, mesh.nodes[1:], M)
    return SampledFunction(mesh=mesh, values=out)
