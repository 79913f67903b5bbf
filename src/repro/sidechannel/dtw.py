"""Dynamic time warping for power-trace similarity (the paper cites [2]).

Classic O(n*m) dynamic programming over a Sakoe-Chiba band, evaluated as
an anti-diagonal wavefront and batched over a stack of Q equal-length
queries and a stack of K equal-length templates.  Cell (i, j) of one
pair's accumulated-cost matrix ``D`` is

    D[i, j] = |a[i-1] - b[j-1]| + min(D[i-1, j], D[i, j-1], D[i-1, j-1])

with ``D[0, 0] = 0`` and every border or out-of-band cell at infinity.
All three neighbours of a cell on anti-diagonal ``k = i + j`` lie on
diagonals ``k - 1`` and ``k - 2``, so a whole diagonal of every pair is
one vector step: a subtract and an abs for the local costs, two
``np.minimum`` and one add.  The (Q, K) pairs sit on the last two axes
of each diagonal buffer, so a band slice is one contiguous block.

Rows are band-relative: a diagonal's first in-band row ``lo`` lives at
buffer row 1, and rows 0 and ``hi - lo + 2`` hold infinity for the one
row a later diagonal reads just past either end.  A diagonal holds at
most ``w + 1`` band cells, so the state is three rolling diagonals plus
one scratch block of ``min(n, m, w + 1) + 2`` rows each: O(Q * K * w)
memory, never O(Q * K * n) and never the full matrix.  A campaign's
batch (30 queries x 10 templates x 325 samples) runs when the process
is already at its resident peak, so every buffer byte adds to that
peak: band-relative rows keep it at ~0.3 MB, where rows indexed by
``i`` would take ~3 MB.

The result is bit-identical to the textbook row-by-row recurrence on
finite input: every cell is still one float64 subtract, abs and add, and
the minimum of finite floats is exact in any order.  NaN would break
that (``np.minimum`` propagates it where a Python ``min`` may drop it),
so non-finite input is rejected.
"""

import numpy as np


def _stack(seqs, what):
    """``seqs`` as a 2-D float64 stack; ragged or non-2-D input raises."""
    try:
        stack = np.asarray(seqs, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("DTW expects equal-length {}".format(what)) from exc
    if stack.ndim != 2:
        raise ValueError("DTW expects a 2-D stack of {}".format(what))
    return stack


def dtw_matrix(queries, templates, window=None):
    """DTW distances from each row of ``queries`` to each row of ``templates``.

    Both are 2-D stacks of equal-length sequences; ``window`` is the
    Sakoe-Chiba band half-width in samples (None = unbounded), widened to
    the length difference so the corner cell stays reachable.  Returns a
    (Q, K) float64 array whose cell [q, t] is the accumulated
    absolute-difference cost along the optimal alignment of query q with
    template t.  Non-finite values, a negative window and an empty, ragged
    or non-2-D stack raise ``ValueError``.
    """
    queries = _stack(queries, "queries")
    stack = _stack(templates, "templates")
    q_count, n = queries.shape
    t_count, m = stack.shape
    if n == 0 or m == 0 or q_count == 0 or t_count == 0:
        raise ValueError("DTW expects non-empty sequences")
    if not (np.isfinite(queries).all() and np.isfinite(stack).all()):
        raise ValueError("DTW expects finite values")
    if window is None:
        window = max(n, m)
    if window < 0:
        raise ValueError("DTW expects a non-negative window")
    w = max(window, abs(n - m))

    # Cells of diagonal k walk j down as i rises; reversing the templates
    # makes b[j-1] for i = lo..hi the contiguous rows m-k+lo..m-k+hi.
    rev = np.ascontiguousarray(stack[:, ::-1].T)[:, None, :]
    col = np.ascontiguousarray(queries.T)[:, :, None]
    inf = np.inf
    rows = min(n, m, w + 1) + 2
    # diagonals k-2, k-1 and k, each with its first band row lo at buffer
    # row 1.  Diagonal 0 is D[0, 0] = 0 (lo 0); diagonal 1 holds only
    # border cells (lo 1, no band cell), so it reads as infinity.
    back2, back1, diag = (np.full((rows, q_count, t_count), inf)
                          for _ in range(3))
    back2[1] = 0.0
    lo2, lo1 = 0, 1
    best = np.empty((rows, q_count, t_count))
    for k in range(2, n + m + 1):
        # rows i of diagonal k inside the matrix and the band |i - j| <= w
        lo = max(1, k - m, (k - w + 1) // 2)
        hi = min(n, k - 1, (k + w) // 2)
        cells = hi - lo + 1
        # Row lo-1 of diagonal k-1 sits at buffer row lo - lo1 and of
        # diagonal k-2 at lo - lo2.  lo and hi step by at most one per
        # diagonal, so every read lands on a band row or on an end's
        # infinity.  Row 0 is never written; row cells+1 may still hold
        # diagonal k-3, the buffer's previous tenant.
        up = lo - lo1
        corner = lo - lo2
        diag[cells + 1] = inf
        cell = diag[1:cells + 1]
        np.subtract(col[lo - 1:hi], rev[m - k + lo:m - k + hi + 1], out=cell)
        np.abs(cell, out=cell)
        low = best[:cells]
        np.minimum(back1[up:up + cells], back2[corner:corner + cells],
                   out=low)
        np.minimum(low, back1[up + 1:up + 1 + cells], out=low)
        np.add(cell, low, out=cell)
        back2, back1, diag = back1, diag, back2
        lo2, lo1 = lo1, lo
    # diagonal n + m holds the one cell (n, m)
    return back1[1].copy()


def dtw_distances(a, templates, window=None):
    """DTW distances from one 1-D sequence to each row of ``templates``.

    The one-query row of :func:`dtw_matrix`: ``templates`` is a 2-D stack
    of equal-length sequences and ``window`` the Sakoe-Chiba band
    half-width (None = unbounded).  Returns a float64 array, one distance
    per template.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("DTW expects 1-D sequences")
    return dtw_matrix(a[None], templates, window)[0]


def dtw_distance(a, b, window=None):
    """DTW distance between two 1-D sequences.

    ``window``: Sakoe-Chiba band half-width (in samples); None = unbounded.
    Returns the accumulated absolute-difference cost along the optimal
    alignment path.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("DTW expects 1-D sequences")
    return float(dtw_distances(a, b[None], window)[0])
