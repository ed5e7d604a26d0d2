"""Discrete-event Monte Carlo simulation of a stochastic reward net.

Cross-validates the analytic steady-state reward: simulate the net for a
long horizon, average the reward over time, and estimate the standard
error with batch means.  Each step comes from ``Net.branches``, the same
rule that drives ``srn.reachability``.
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
    """
    rng = np.random.default_rng(seed)
    marking = net.initial_marking()
    batch_len = hours / batches
    batch_totals = np.zeros(batches)
    now = 0.0
    while now < hours:
        vanishing, step = net.branches(marking)
        total = sum(w for _, w in step)
        if not vanishing:
            dwell = rng.exponential(1.0 / total) if step else hours - now
            r = reward(marking)
            # spread the dwell across the batches it overlaps; the last
            # batch ends at the horizon whatever the rounding of its edge
            end = min(now + dwell, hours)
            b, at = min(int(now / batch_len), batches - 1), now
            while at < end:
                edge = end if b == batches - 1 else min((b + 1) * batch_len, end)
                batch_totals[b] += r * (edge - at)
                b, at = b + 1, edge
            now += dwell
        if step:
            u = rng.random() * total
            for t, w in step:
                u -= w
                if u < 0:
                    break
            marking = net.fire(t, marking)

    means = batch_totals / batch_len
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / np.sqrt(batches))
    return SimulationEstimate(value=value, stderr=stderr, hours=hours)
