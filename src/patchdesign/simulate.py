"""Discrete-event Monte Carlo simulation of a stochastic reward net.

Cross-validates the analytic steady-state reward: simulate the net for a
long horizon, average the reward over time, and estimate the standard
error with batch means.  Each step comes from ``Net.branches``, the same
rule that drives ``srn.reachability``, computed once per distinct
marking a run visits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SimulationEstimate:
    value: float
    stderr: float
    hours: float

    def within(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= n_sigma * self.stderr


def _step(net, reward, marking):
    """(vanishing, weights, total, successors, reward) of one marking:
    its ``Net.branches``, each branch fired once, and the reward of a
    tangible marking."""
    vanishing, branches = net.branches(marking)
    weights = [w for _, w in branches]
    successors = [net.fire(t, marking) for t, _ in branches]
    return (vanishing, weights, sum(weights), successors,
            None if vanishing else reward(marking))


def simulate_reward(net, reward, hours: float, seed: int = 0,
                    batches: int = 50) -> SimulationEstimate:
    """Time-average reward over a simulated horizon.

    A vanishing marking fires one of its immediates in zero time; a
    tangible marking dwells for an exponential time with the total
    enabled rate and earns its reward meanwhile; an absorbing marking
    (no enabled transition) holds its reward to the horizon.  The next
    transition is drawn with probability proportional to its weight or
    rate, by one uniform variate against the cumulative sum.  Returns
    the batch-means estimate and standard error.

    A marking's step (its branches, their successor markings and, if it
    is tangible, its reward) is computed the first time the run visits
    it and read from a table on later visits, so ``reward`` must be a
    function of the marking alone.  The table grows by at most one entry
    per event and lives for this call only.
    """
    rng = np.random.default_rng(seed)
    steps = {}  # marking counts -> _step(net, reward, marking)
    marking = net.initial_marking()
    batch_len = hours / batches
    batch_totals = [0.0] * batches
    now = 0.0
    while now < hours:
        step = steps.get(marking.counts)
        if step is None:
            step = steps[marking.counts] = _step(net, reward, marking)
        vanishing, weights, total, successors, r = step
        if not vanishing:
            dwell = rng.exponential(1.0 / total) if weights else hours - now
            # spread the dwell across the batches it overlaps; the last
            # batch ends at the horizon whatever the rounding of its edge
            end = min(now + dwell, hours)
            b, at = min(int(now / batch_len), batches - 1), now
            while at < end:
                edge = end if b == batches - 1 else min((b + 1) * batch_len, end)
                batch_totals[b] += r * (edge - at)
                b, at = b + 1, edge
            now += dwell
        if weights:
            u = rng.random() * total
            for i, w in enumerate(weights):
                u -= w
                if u < 0:
                    break
            marking = successors[i]

    means = np.array(batch_totals) / batch_len
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / np.sqrt(batches))
    return SimulationEstimate(value=value, stderr=stderr, hours=hours)
