"""Reference collision kernels that count starts with ``searchsorted``.

The straightforward NumPy forms of :mod:`lorascale.kernels`:
for every event, binary searches over the whole sorted start array count
the starts below its end and, for the window rule, above its window's
floor; the event is lost when a count leaves room for a foreign start.
They cost a search per bound, but each count is easy to check by eye, so
the neighbour-compare kernels are tested against them.
"""

from __future__ import annotations

import numpy as np


def reference_any_overlap(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flag every event whose [start, end) intersects another's.

    For sorted starts, event j > i overlaps i iff starts[j] < ends[i];
    the backward direction is the same relation seen from j: event i is
    covered when some earlier event's forward overlap range reaches past
    it, i.e. when the running maximum of that range end exceeds i.
    """
    n = starts.shape[0]
    if n < 2:
        return np.zeros(n, dtype=bool)
    idx = np.arange(n)
    hi = np.searchsorted(starts, ends, side="left")
    lost = hi > idx + 1  # overlaps someone starting later
    lost[1:] |= np.maximum.accumulate(hi)[:-1] > idx[1:]  # someone earlier overlaps me
    return lost


def reference_window(starts: np.ndarray, ends: np.ndarray, factor: float) -> np.ndarray:
    """Flag events with a foreign start inside their vulnerability window.

    Event i is lost iff another event starts strictly inside
    (ends[i] - factor * duration_i, ends[i]).
    """
    n = starts.shape[0]
    if n < 2:
        return np.zeros(n, dtype=bool)
    w_lo = ends - factor * (ends - starts)
    lo = np.searchsorted(starts, w_lo, side="right")
    hi = np.searchsorted(starts, ends, side="left")
    own = starts > w_lo  # my own start sits in my window when factor > 1
    return (hi - lo - own.astype(np.int64)) > 0
