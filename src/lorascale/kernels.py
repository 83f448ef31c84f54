"""NumPy collision-marking kernels.

Both kernels take finite event start/end times as float64 arrays, each
end after its start, of a single non-interacting channel (one spreading
factor), sorted ascending by start, and return a boolean array flagging
the events destroyed by a collision.

Neither kernel searches the start array in the common case.  On a
sorted array the starts past a bound form a run, and the run's nearest
start decides whether any start lies between that bound and another.
So each kernel compares every event with its nearest neighbours through
shifted slices, and each compare tests the same two floats that a count
of the starts by binary search would test.  Only the rare events that
the neighbours do not settle go through ``searchsorted``, as a subset.
The flags are therefore exactly those of the search-based forms kept in
``tests/kernel_oracle.py``.
"""

from __future__ import annotations

import numpy as np

# Later neighbours that mark_window compares with each event before it
# falls back to a search for the few events they do not settle.
_NEIGHBOURS = 2


# Kept because perfbench/worker.py records both in its provenance.
def active_backend() -> str:
    return "python"


def available_backends() -> tuple[str, ...]:
    return ("python",)


def mark_any_overlap(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flag every event whose [start, end) intersects another's.

    Because starts are sorted, the later event that starts first after
    event i is i + 1: some later event overlaps i iff
    ``starts[i + 1] < ends[i]``.  From the other side, an earlier event
    k < i overlaps i iff ``starts[i] < ends[k]`` (it starts no later
    than i, so it reaches into i exactly when it ends after i starts),
    and some k does iff ``starts[i]`` is below the largest of
    ``ends[:i]``.

    When the ends do not decrease, as on a channel whose events share
    one airtime, that largest end is ``ends[i - 1]``, so the earlier
    test is the later test of event i - 1 shifted by one place.  Ends
    that decrease somewhere, as mixed airtimes can make them, take the
    running maximum of the ends instead.  Neither
    form rounds anything, so both tests are exact and linear.
    """
    n = starts.shape[0]
    if n < 2:
        return np.zeros(n, dtype=bool)
    hit = starts[1:] < ends[:-1]  # event i + 1 starts inside event i
    lost = np.zeros(n, dtype=bool)
    lost[:-1] = hit
    if (ends[1:] >= ends[:-1]).all():
        lost[1:] |= hit
    else:
        lost[1:] |= starts[1:] < np.maximum.accumulate(ends[:-1])
    return lost


def mark_window(starts: np.ndarray, ends: np.ndarray, factor: float) -> np.ndarray:
    """Flag events with a foreign start inside their vulnerability window.

    Event i is lost iff another event starts strictly inside
    (w_lo, ends[i]) with w_lo = ends[i] - factor * duration_i.

    Every earlier start is at most ``starts[i]`` and so below
    ``ends[i]``; the latest of them, ``starts[i - 1]``, is inside the
    window iff any earlier start is, i.e. iff it exceeds w_lo.

    Later starts are compared one distance k = 1, 2, ... at a time, up
    to ``_NEIGHBOURS``: start i + k is inside iff
    ``w_lo < starts[i + k] < ends[i]``.  The later starts above w_lo
    form a run from the first of them, which alone decides the
    direction: once ``starts[i + k]`` exceeds w_lo, that first one is
    among those compared, and once k reaches past the last event there
    is nothing left.  The loop stops early when every event is settled.
    An event whose last compared start is still at or below w_lo goes
    through one ``searchsorted``: ``lo`` is the first index whose start
    exceeds w_lo, the earliest candidate other than i is
    ``j = lo + (lo == i)``, and i is lost iff ``j < n`` and
    ``starts[j] < ends[i]``.  That subset is
    rare: only a factor below 1 puts w_lo above the event's own start,
    and it takes more than ``_NEIGHBOURS`` starts in the gap of
    ``(1 - factor)`` durations between them.
    """
    n = starts.shape[0]
    if n < 2:
        return np.zeros(n, dtype=bool)
    w_lo = ends - starts
    w_lo *= factor
    np.subtract(ends, w_lo, out=w_lo)  # ends - factor * (ends - starts)
    lost = np.zeros(n, dtype=bool)
    lost[1:] = starts[:-1] > w_lo[1:]
    for k in range(1, min(_NEIGHBOURS, n - 1) + 1):
        later = starts[k:]
        above = later > w_lo[:-k]
        lost[:-k] |= above & (later < ends[:-k])
        if above.all():
            return lost
    # start i + k is still at or below the floor: a search finds the first above
    rest = np.flatnonzero(~above & ~lost[:-k])
    j = np.searchsorted(starts, w_lo[rest], side="right")
    j += j == rest  # step over the event's own start
    inside = j < n
    np.minimum(j, n - 1, out=j)
    lost[rest] = (starts[j] < ends[rest]) & inside
    return lost
