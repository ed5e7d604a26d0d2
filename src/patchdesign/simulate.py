"""Discrete-event Monte Carlo simulation of a stochastic reward net.

Cross-validates the analytic steady-state reward: simulate the net for a
long horizon, average the reward over time, and estimate the standard
error with batch means.  Each step comes from ``Net.branches``, the same
rule that drives ``srn.reachability``, computed once per distinct
marking a run visits.

The per-event loop is kept cheap in three ways.  Variates are drawn from
the seeded generator ``BLOCK`` at a time and handed out one by one
(``_stream``).  Markings are numbered on first sight and a step row holds
its successors' numbers, so an event hashes no marking.  The current
batch and its right edge are carried from one dwell to the next, so a
dwell that stays inside its batch costs one comparison.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

BLOCK = 1024  # variates per generator call


@dataclass
class SimulationEstimate:
    value: float
    stderr: float
    hours: float

    def within(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= n_sigma * self.stderr


def _stream(draw):
    """The variates of ``draw(BLOCK)``, one at a time, a block per call."""
    while True:
        yield from draw(BLOCK).tolist()


def _step(net, reward, marking, number):
    """(vanishing, weights, total, successor ids, reward) of one marking:
    its ``Net.branches``, each branch fired once and its successor
    numbered by ``number``, and the reward of a tangible marking."""
    vanishing, branches = net.branches(marking)
    weights = [w for _, w in branches]
    successors = [number(net.fire(t, marking)) for t, _ in branches]
    return (vanishing, weights, sum(weights), successors,
            None if vanishing else reward(marking))


def simulate_reward(net, reward, hours: float, seed: int = 0,
                    batches: int = 50) -> SimulationEstimate:
    """Time-average reward over a simulated horizon.

    A vanishing marking fires one of its immediates in zero time; a
    tangible marking dwells for an exponential time with the total
    enabled rate (a standard exponential variate over that rate) and
    earns its reward meanwhile; an absorbing marking (no enabled
    transition) holds its reward to the horizon.  The next transition is
    drawn with probability proportional to its weight or rate, by one
    uniform variate against the cumulative sum.  Both kinds of variate
    come from one generator seeded with ``seed``, each drawn in blocks of
    ``BLOCK``.  Returns the batch-means estimate and standard error over
    ``batches`` equal slices of the horizon; the last slice ends exactly
    at ``hours``.

    Each marking gets an integer id when it is first reached.  Its step
    (its branches, their successors' ids and, if it is tangible, its
    reward) is computed the first time the run visits it and read from a
    table on later visits, so ``reward`` must be a function of the
    marking alone.  The table grows by at most one step per event and
    lives for this call only.

    Raises ``ValueError`` if ``hours`` is not a finite positive number
    or ``batches`` is not an integer of at least 2.
    """
    if not (math.isfinite(hours) and hours > 0):
        raise ValueError(f"hours must be finite and positive, got {hours!r}")
    if not isinstance(batches, numbers.Integral) or batches < 2:
        raise ValueError(f"batches must be an integer >= 2, got {batches!r}")
    rng = np.random.default_rng(seed)
    exponentials = _stream(rng.standard_exponential)
    uniforms = _stream(rng.random)
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
        vanishing, weights, total, successors, r = step
        if not vanishing:
            dwell = next(exponentials) / total if weights else hours - now
            # spread the dwell across the batches it overlaps
            end, at = min(now + dwell, hours), now
            while edge < end:
                batch_totals[b] += r * (edge - at)
                b, at = b + 1, edge
                edge = hours if b == last else (b + 1) * batch_len
            batch_totals[b] += r * (end - at)
            now += dwell
        if weights:
            u = next(uniforms) * total
            for i, w in enumerate(weights):
                u -= w
                if u < 0:
                    break
            current = successors[i]

    means = np.array(batch_totals) / batch_len
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / np.sqrt(batches))
    return SimulationEstimate(value=value, stderr=stderr, hours=hours)
