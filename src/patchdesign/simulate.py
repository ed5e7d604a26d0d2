"""Discrete-event Monte Carlo simulation of a stochastic reward net.

Cross-validates the analytic steady-state reward: simulate the net for a
long horizon, average the reward over time, and estimate the standard
error with batch means.
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


def _settle_immediates(net, marking, rng):
    while True:
        enabled = net.enabled_immediates(marking)
        if not enabled:
            return marking
        weights = np.array([t.weight for t in enabled])
        t = enabled[rng.choice(len(enabled), p=weights / weights.sum())]
        marking = net.fire(t, marking)


def simulate_reward(net, reward, hours: float, seed: int = 0,
                    batches: int = 50) -> SimulationEstimate:
    """Time-average reward over a simulated horizon.

    Immediate transitions fire in zero time (weight-proportional choice);
    sojourn times in tangible markings are exponential with the total
    enabled rate. Returns the batch-means estimate and standard error.
    """
    rng = np.random.default_rng(seed)
    marking = _settle_immediates(net, net.initial_marking(), rng)

    batch_len = hours / batches
    batch_totals = np.zeros(batches)
    now = 0.0
    while now < hours:
        enabled = net.enabled_timed(marking)
        rates = np.array([rate for _, rate in enabled])
        total = rates.sum()
        if total <= 0:  # absorbing: reward holds forever
            dwell = hours - now
            nxt = marking
        else:
            dwell = rng.exponential(1.0 / total)
            nxt = net.fire(enabled[rng.choice(len(enabled), p=rates / total)][0],
                           marking)
            nxt = _settle_immediates(net, nxt, rng)
        r = reward(marking)
        # spread the dwell across the batches it overlaps
        end = min(now + dwell, hours)
        t = now
        while t < end:
            b = min(int(t / batch_len), batches - 1)
            seg = min((b + 1) * batch_len, end) - t
            batch_totals[b] += r * seg
            t += seg
        now += dwell
        marking = nxt

    means = batch_totals / batch_len
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / np.sqrt(batches))
    return SimulationEstimate(value=value, stderr=stderr, hours=hours)
