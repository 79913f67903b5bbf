"""Dynamic time warping for power-trace similarity (the paper cites [2]).

Classic O(n*m) dynamic programming over a Sakoe-Chiba band, evaluated as
an anti-diagonal wavefront and batched over a stack of equal-length
templates.  Cell (i, j) of the accumulated-cost matrix ``D`` is

    D[i, j] = |a[i-1] - b[j-1]| + min(D[i-1, j], D[i, j-1], D[i-1, j-1])

with ``D[0, 0] = 0`` and every border or out-of-band cell at infinity.
All three neighbours of a cell on anti-diagonal ``k = i + j`` lie on
diagonals ``k - 1`` and ``k - 2``, so a whole diagonal is one vector step:
a subtract and an abs for the local costs, two ``np.minimum`` and one add.
The state is three rolling diagonal buffers of shape ``(n + 1, K)``
indexed by ``i``, with the K templates on the last axis so each band
slice is one contiguous block; memory is O(K * n), never the full matrix.

The result is bit-identical to the textbook row-by-row recurrence on
finite input: every cell is still one float64 subtract, abs and add, and
the minimum of finite floats is exact in any order.  NaN would break
that (``np.minimum`` propagates it where a Python ``min`` may drop it),
so non-finite input is rejected.
"""

import numpy as np


def dtw_distances(a, templates, window=None):
    """DTW distances from one 1-D sequence to each row of ``templates``.

    ``templates`` is a 2-D stack of equal-length sequences; ``window`` is
    the Sakoe-Chiba band half-width in samples (None = unbounded), widened
    to the length difference so the corner cell stays reachable.  Returns
    a float64 array with the accumulated absolute-difference cost along
    each template's optimal alignment path.  Non-finite values, a negative
    window and an empty, ragged or non-2-D stack raise ``ValueError``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("DTW expects 1-D sequences")
    try:
        stack = np.asarray(templates, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("DTW expects equal-length templates") from exc
    if stack.ndim != 2:
        raise ValueError("DTW expects a 2-D stack of templates")
    n = len(a)
    count, m = stack.shape
    if n == 0 or m == 0 or count == 0:
        raise ValueError("DTW expects non-empty sequences")
    if not (np.isfinite(a).all() and np.isfinite(stack).all()):
        raise ValueError("DTW expects finite values")
    if window is None:
        window = max(n, m)
    if window < 0:
        raise ValueError("DTW expects a non-negative window")
    w = max(window, abs(n - m))

    # Cells of diagonal k walk j down as i rises; reversing the templates
    # makes b[j-1] for i = lo..hi the contiguous rows m-k+lo..m-k+hi.
    rev = np.ascontiguousarray(stack[:, ::-1].T)
    col = a[:, None]
    inf = np.inf
    # diagonals k-2, k-1 and k; D[0, 0] = 0 sits on diagonal 0
    back2, back1, diag = (np.full((n + 1, count), inf) for _ in range(3))
    back2[0] = 0.0
    best = np.empty((n + 1, count))
    for k in range(2, n + m + 1):
        # rows i of diagonal k inside the matrix and the band |i - j| <= w
        lo = max(1, k - m, (k - w + 1) // 2)
        hi = min(n, k - 1, (k + w) // 2)
        # Later diagonals read this one only at rows lo-1..hi+1, because lo
        # and hi never step back.  Row hi+1 was never written; row lo-1
        # may still hold diagonal k-3, the buffer's previous tenant.
        diag[lo - 1] = inf
        cell = diag[lo:hi + 1]
        np.subtract(col[lo - 1:hi], rev[m - k + lo:m - k + hi + 1], out=cell)
        np.abs(cell, out=cell)
        low = best[lo:hi + 1]
        np.minimum(back1[lo - 1:hi], back2[lo - 1:hi], out=low)
        np.minimum(low, back1[lo:hi + 1], out=low)
        np.add(cell, low, out=cell)
        back2, back1, diag = back1, diag, back2
    return back1[n].copy()


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
