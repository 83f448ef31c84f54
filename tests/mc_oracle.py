"""Reference Monte-Carlo estimator that sorts the whole unrolled timeline.

The straightforward form of :func:`lorascale.simulator.estimate_pdr`:
all rounds are drawn at once, real and ghost events are put in order by
one global stable sort, and the ghosts' flags are folded back onto their
devices with ``np.logical_or.at``.  Its memory grows with the number of
rounds, but each step is easy to check by eye, so the chunked estimator
is tested against it.
"""

from __future__ import annotations

import numpy as np

from lorascale import kernels
from lorascale.simulator import AnyOverlap, CollisionModel, SfGroup

_U64 = 0xFFFFFFFFFFFFFFFF


def reference_loss_rounds(count: int, period: float, airtime: float, rounds: int,
                          model: CollisionModel, rng: np.random.Generator) -> int:
    phases = rng.uniform(0.0, period, size=(rounds, count))
    stride = period + 4.0 * airtime
    starts = (stride * np.arange(rounds))[:, None] + phases
    starts = starts.ravel()
    key = np.arange(rounds * count)
    ghost = phases.ravel() < 2.0 * airtime
    all_starts = np.concatenate([starts, starts[ghost] + period])
    all_key = np.concatenate([key, key[ghost]])
    order = np.argsort(all_starts, kind="stable")
    s = all_starts[order]
    e = s + airtime
    if isinstance(model, AnyOverlap):
        lost = kernels.mark_any_overlap(s, e)
    else:
        lost = kernels.mark_window(s, e, model.factor)
    agg = np.zeros(rounds * count, dtype=bool)
    np.logical_or.at(agg, all_key[order], lost)
    return int(np.count_nonzero(agg))


def reference_estimate_pdr(groups: list[SfGroup], period: float, rounds: int,
                           model: CollisionModel, seed: int) -> tuple[int, int]:
    """``(delivered, sent)`` for non-empty groups, one per SF."""
    rng = np.random.default_rng(seed & _U64)
    sent = rounds * sum(g.count for g in groups)
    lost = 0
    for g in sorted(groups, key=lambda g: g.sf):
        lost += reference_loss_rounds(g.count, period, g.airtime, rounds, model, rng)
    return sent - lost, sent
