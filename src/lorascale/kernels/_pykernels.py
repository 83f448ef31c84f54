"""NumPy collision-marking kernels (fallback backend).

Both kernels take finite event start/end times, each end after its
start, of a single non-interacting channel (one spreading factor),
sorted ascending by start, and return a boolean array flagging the
events destroyed by a collision.  Semantics match the Cython backend
bit for bit.

Neither kernel counts the starts between two bounds with one search per
bound.  On a sorted array, more than k starts lie below a bound iff
start k does, so a single comparison with the nearest candidate start
gives the same answer as the count, from the same two floats.  The
flags are therefore exactly those of the search-based forms kept in
``tests/kernel_oracle.py``.
"""

from __future__ import annotations

import numpy as np


def mark_any_overlap(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flag every event whose [start, end) intersects another's.

    Because starts are sorted, the later event that starts first after
    event i is i + 1: some later event overlaps i iff
    ``starts[i + 1] < ends[i]``.  From the other side, an earlier event
    k < i overlaps i iff ``starts[i] < ends[k]`` (it starts no later
    than i, so it reaches into i exactly when it ends after i starts),
    and some k does iff ``starts[i]`` is below the running maximum of
    ``ends[:i]``.  Taking a maximum of floats rounds nothing, so both
    tests are exact; they take two linear passes and no search.
    """
    n = starts.shape[0]
    if n < 2:
        return np.zeros(n, dtype=bool)
    lost = np.zeros(n, dtype=bool)
    lost[:-1] = starts[1:] < ends[:-1]
    lost[1:] |= starts[1:] < np.maximum.accumulate(ends[:-1])
    return lost


def mark_window(starts: np.ndarray, ends: np.ndarray, factor: float) -> np.ndarray:
    """Flag events with a foreign start inside their vulnerability window.

    Event i is lost iff another event starts strictly inside
    (w_lo, ends[i]) with w_lo = ends[i] - factor * duration_i.

    One search finds ``lo``, the first index whose start exceeds w_lo.
    The starts inside the window are the run ``lo, lo + 1, ...`` that
    stays below ``ends[i]``, so the earliest candidate other than i is
    ``j = lo + (lo == i)``.  If ``lo < i``, event lo starts no later
    than i and so before ``ends[i]``: it is inside, as j says.  If
    ``lo == i``, the next start decides; if ``lo > i``, i is not in the
    run at all.  So i is lost iff ``j < n`` and ``starts[j] < ends[i]``,
    and the second search for the end of the run is not needed.
    """
    n = starts.shape[0]
    if n < 2:
        return np.zeros(n, dtype=bool)
    w_lo = ends - factor * (ends - starts)
    j = np.searchsorted(starts, w_lo, side="right")
    j += j == np.arange(n)  # step over the event's own start
    inside = j < n
    np.minimum(j, n - 1, out=j)
    return (starts[j] < ends) & inside
