"""Discrete-event Monte Carlo simulation of a stochastic reward net.

Cross-validates the analytic steady-state reward: simulate the net for a
long horizon, average the reward over time, and estimate the standard
error with batch means.  Each step comes from ``Net.branches``, the same
rule that drives ``srn.reachability``, computed once per distinct
marking a run visits.

Every variate comes from one seeded Mersenne Twister stream
(``random.Random``), so the simulator imports no numpy.  The per-event
loop is kept cheap in three ways.  Markings are numbered on first sight
and a step row holds its successors' numbers and its cumulative branch
thresholds, so an event hashes no marking, and a step with one branch
draws nothing.  The current batch and its right edge are carried from
one dwell to the next, so a dwell that stays inside its batch costs one
comparison.
"""

from __future__ import annotations

import math
import numbers
import random
from bisect import bisect_right
from dataclasses import dataclass


@dataclass
class SimulationEstimate:
    value: float
    stderr: float
    hours: float

    def within(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= n_sigma * self.stderr


def _step(net, reward, marking, number):
    """(vanishing, total, thresholds, successor ids, sole successor or
    None, reward) of one marking: its ``Net.branches``, each branch fired
    once and its successor numbered by ``number``, and the reward of a
    tangible marking.  ``thresholds`` are the running sums of the
    weights over their total; ``total`` is the last running sum, so the
    last threshold is exactly 1.0."""
    vanishing, branches = net.branches(marking)
    successors = [number(net.fire(t, marking)) for t, _ in branches]
    acc, sums = 0.0, []
    for _, w in branches:
        acc += w
        sums.append(acc)
    return (vanishing, acc, [s / acc for s in sums], successors,
            successors[0] if len(successors) == 1 else None,
            None if vanishing else reward(marking))


def simulate_reward(net, reward, hours: float, seed: int = 0,
                    batches: int = 50) -> SimulationEstimate:
    """Time-average reward over a simulated horizon.

    A vanishing marking fires one of its immediates in zero time; a
    tangible marking dwells for an exponential time with the total
    enabled rate, ``-log(1 - u) / total`` for a uniform ``u``, and earns
    its reward meanwhile; an absorbing marking (no enabled transition)
    holds its reward to the horizon.  A marking with one branch fires it
    without a draw; with more, one uniform ``u`` picks the first branch
    whose cumulative threshold exceeds it, so each branch is taken with
    probability proportional to its weight or rate.  All uniforms come
    from one ``random.Random(seed)`` stream.  Returns the batch-means
    estimate and standard error over ``batches`` equal slices of the
    horizon; the last slice ends exactly at ``hours``.

    Each marking gets an integer id when it is first reached.  Its step
    (its branches, their successors' ids and, if it is tangible, its
    reward) is computed the first time the run visits it and read from a
    table on later visits, so ``reward`` must be a function of the
    marking alone.  The table grows by at most one step per event and
    lives for this call only.

    Raises ``ValueError`` if ``hours`` is not a finite positive number,
    ``seed`` is not an integer of at least 0 or ``batches`` is not an
    integer of at least 2.
    """
    if not (math.isfinite(hours) and hours > 0):
        raise ValueError(f"hours must be finite and positive, got {hours!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if not isinstance(batches, numbers.Integral) or batches < 2:
        raise ValueError(f"batches must be an integer >= 2, got {batches!r}")
    uniform = random.Random(int(seed)).random
    log = math.log
    ids = {}        # marking counts -> id
    markings = []   # id -> marking
    steps = []      # id -> _step row, None until the marking is visited

    def number(marking):
        i = ids.get(marking.counts)
        if i is None:
            i = ids[marking.counts] = len(markings)
            markings.append(marking)
            steps.append(None)
        return i

    current = number(net.initial_marking())
    batch_len = hours / batches
    batch_totals = [0.0] * batches
    last = batches - 1
    b, edge = 0, batch_len  # the batch that holds `now`, and its right edge
    now = 0.0
    while now < hours:
        step = steps[current]
        if step is None:
            step = steps[current] = _step(net, reward, markings[current], number)
        vanishing, total, thresholds, successors, sole, r = step
        if not vanishing:
            dwell = -log(1.0 - uniform()) / total if successors else hours - now
            # spread the dwell across the batches it overlaps
            end, at = now + dwell, now
            if end > hours:
                end = hours
            while edge < end:
                batch_totals[b] += r * (edge - at)
                b, at = b + 1, edge
                edge = hours if b == last else (b + 1) * batch_len
            batch_totals[b] += r * (end - at)
            now += dwell
        if sole is not None:
            current = sole
        elif successors:
            current = successors[bisect_right(thresholds, uniform())]

    # batch means: the mean, then a two-pass sample variance, both by fsum
    means = [t / batch_len for t in batch_totals]
    value = math.fsum(means) / batches
    variance = math.fsum((m - value) ** 2 for m in means) / (batches - 1)
    return SimulationEstimate(value=value, stderr=math.sqrt(variance / batches),
                              hours=hours)
