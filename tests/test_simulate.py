import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import build_small_net, reference_simulate_reward, small_nets
from patchdesign import availability as av
from patchdesign import simulate, srn
from patchdesign.model import PatchPolicy


def test_two_state_simulation_matches_closed_form():
    lam, mu = 0.05, 1.0
    net = srn.Net()
    net.add_place("up", 1)
    net.add_place("down", 0)
    net.add_timed("fail", lam, ["up"], ["down"])
    net.add_timed("repair", mu, ["down"], ["up"])
    est = simulate.simulate_reward(net, lambda m: float(m["up"] == 1),
                                   hours=200_000, seed=7)
    assert est.stderr > 0
    assert est.within(mu / (lam + mu))


def test_simulation_handles_immediates():
    net = srn.Net()
    net.add_place("tick", 1)
    net.add_place("mid", 0)
    net.add_place("halt", 0)
    net.add_timed("go", 1.0, ["tick"], ["mid"])
    net.add_immediate("l", ["mid"], ["tick"], weight=1.0)
    net.add_immediate("r", ["mid"], ["halt"], weight=1.0)
    net.add_timed("resume", 4.0, ["halt"], ["tick"])
    analytic = srn.expected_reward(srn.solve(net),
                                   lambda m: float(m["halt"] == 1))
    est = simulate.simulate_reward(net, lambda m: float(m["halt"] == 1),
                                   hours=100_000, seed=3)
    assert est.within(analytic)


def test_network_coa_simulation_cross_check(model, rates):
    design = model.designs["base"]
    net = av.build_network_srn(design, rates)
    reward = av.coa_reward(design)
    analytic = av.compute_coa(design, rates)
    est = simulate.simulate_reward(net, reward, hours=1_000_000, seed=42)
    assert est.within(analytic, n_sigma=3.0)
    assert est.value == pytest.approx(analytic, abs=5e-4)


def _src_net(**immediates):
    # tick --go--> src, then immediates from src to left/right, which
    # return to tick at rate 5
    net = srn.Net()
    for place, tokens in (("src", 0), ("left", 0), ("right", 0), ("tick", 1)):
        net.add_place(place, tokens)
    net.add_timed("go", 1.0, ["tick"], ["src"])
    for side, (weight, priority) in immediates.items():
        net.add_immediate(side, ["src"], [side], weight=weight, priority=priority)
    net.add_timed("back_l", 5.0, ["left"], ["tick"])
    net.add_timed("back_r", 5.0, ["right"], ["tick"])
    return net


def test_simulation_priority_precedes_weight():
    # "left" has 100 times the weight but the lower priority
    net = _src_net(left=(100.0, 0), right=(1.0, 1))
    lefts = []

    def right_up(m):
        lefts.append(m["left"])
        return float(m["right"] == 1)

    est = simulate.simulate_reward(net, right_up, hours=20_000, seed=11)
    assert lefts and not any(lefts)
    # each cycle spends 1 h in tick and 0.2 h in right
    analytic = srn.expected_reward(srn.solve(net), lambda m: float(m["right"] == 1))
    assert analytic == pytest.approx(0.2 / 1.2, rel=1e-12)
    assert est.within(analytic)


def test_simulation_immediate_weight_split():
    net = _src_net(left=(1.0, 0), right=(3.0, 0))
    # a 1:3 split of 0.2 h visits per 1.2 h cycle
    analytic = 0.75 * 0.2 / 1.2
    assert srn.expected_reward(srn.solve(net), lambda m: float(m["right"] == 1)) == \
        pytest.approx(analytic, rel=1e-12)
    est = simulate.simulate_reward(net, lambda m: float(m["right"] == 1),
                                   hours=20_000, seed=12)
    assert est.stderr > 0
    assert est.within(analytic)


def test_three_way_split_follows_weights():
    # every go firing reaches the vanishing src, which splits 1:2:5 back to
    # tick and adds a token to the chosen branch's counter, so each
    # tangible marking is new and its counters count the visits so far
    net = srn.Net()
    for place, tokens in (("tick", 1), ("src", 0), ("na", 0), ("nb", 0), ("nc", 0)):
        net.add_place(place, tokens)
    net.add_timed("go", 1.0, ["tick"], ["src"])
    weights = {"a": 1.0, "b": 2.0, "c": 5.0}
    for side, weight in weights.items():
        net.add_immediate(side, ["src"], ["tick", "n" + side], weight=weight)
    seen = []
    simulate.simulate_reward(net, lambda m: seen.append(m.counts) or 0.0,
                             hours=102_000, seed=3)
    visits = seen[-1][2:]
    n = sum(visits)
    assert n >= 100_000
    for count, weight in zip(visits, weights.values()):
        p = weight / sum(weights.values())
        assert abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p))


def test_absorbing_marking_holds_reward_to_horizon():
    net = srn.Net()
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_timed("t", 2.0, ["a"], ["b"])
    hours, batches = 1_000.0, 50
    est = simulate.simulate_reward(net, lambda m: float(m["b"]), hours=hours,
                                   seed=13, batches=batches)
    # b is reached after an Exp(2) time, inside the first 20 h batch, and
    # then earns reward 1 in every remaining hour of the horizon
    absorbed_at = (1.0 - est.value) * hours
    assert 0.0 < absorbed_at < hours / batches
    means = np.array([1.0 - absorbed_at * batches / hours] + [1.0] * (batches - 1))
    assert est.stderr == pytest.approx(means.std(ddof=1) / np.sqrt(batches), rel=1e-9)


def test_absorbing_initial_marking_after_immediates():
    # the initial marking is vanishing and settles into an absorbing one
    net = srn.Net()
    net.add_place("a", 1)
    net.add_place("b", 0)
    net.add_immediate("ab", ["a"], ["b"])
    est = simulate.simulate_reward(net, lambda m: float(m["b"]), hours=10.0)
    # every batch earns reward 1 throughout; the horizon spans the 50
    # batch edges, which the batch accounting must step across
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr < 1e-12


def test_step_table_computes_branches_once_per_marking(model):
    net = av.build_server_srn(model.templates["app"], PatchPolicy(interval_mean=24.0))

    def reward(m):
        return float(m["P_svcup"] == 1)

    graph = srn.reachability(net)
    # count branches calls per marking, on this net only
    calls, branches = Counter(), net.branches
    net.branches = lambda m: calls.update([m.counts]) or branches(m)
    reference = reference_simulate_reward(net, reward, hours=2_000, seed=5)
    events = sum(calls.values())
    calls.clear()
    rewarded = []
    est = simulate.simulate_reward(net, lambda m: rewarded.append(m.counts) or reward(m),
                                   hours=2_000, seed=5)
    assert (est.value, est.stderr) == reference
    reachable = {m.counts for m in graph.tangible + graph.vanishing}
    assert set(calls) <= reachable
    assert set(calls.values()) == {1}
    # the reference recomputes the step at every event
    assert len(calls) < events / 10
    tangible = {m.counts for m in graph.tangible}
    assert sorted(rewarded) == sorted(set(calls) & tangible)


@settings(max_examples=150, deadline=None)
@given(spec=small_nets(), hours=st.floats(1.0, 60.0), seed=st.integers(0, 2**32 - 1),
       batches=st.integers(2, 50))
# absorbed in p1 after one timed firing
@example(spec=((1, 0), ((False, 0, 1, 2.0, False, 0, None),)), hours=30.0, seed=1,
         batches=50)
# p0 -> p1 is vanishing; the weight-4 branch loses to the priority-1 one
@example(spec=((1, 0, 0), ((False, 2, 0, 1.0, False, 0, None),
                           (True, 0, 1, 4.0, False, 0, None),
                           (True, 0, 2, 1.0, False, 1, (1, "==", 0)),
                           (False, 1, 0, 3.0, True, 0, None))),
         hours=40.0, seed=2, batches=50)
def test_step_table_matches_per_event_reference(spec, hours, seed, batches):
    def reward(m):
        return m.counts[0] + 0.5 * m.counts[-1]

    est = simulate.simulate_reward(build_small_net(spec), reward, hours=hours, seed=seed,
                                   batches=batches)
    assert (est.value, est.stderr) == reference_simulate_reward(
        build_small_net(spec), reward, hours=hours, seed=seed, batches=batches)


def _flip_flop():
    net = srn.Net()
    net.add_place("up", 1)
    net.add_place("down", 0)
    net.add_timed("fail", 1.0, ["up"], ["down"])
    net.add_timed("repair", 2.0, ["down"], ["up"])
    return net


def _up(m):
    return float(m["up"])


@pytest.mark.parametrize("hours", [math.inf, -math.inf, math.nan, -5.0, 0.0, 0])
def test_rejects_bad_horizon(hours):
    with pytest.raises(ValueError, match="hours"):
        simulate.simulate_reward(_flip_flop(), _up, hours=hours)


@pytest.mark.parametrize("seed", [-1, True, 1.5, None])
def test_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        simulate.simulate_reward(_flip_flop(), _up, hours=100.0, seed=seed)


@pytest.mark.parametrize("batches", [1, 0, -3, 2.0, 50.0, True])
def test_rejects_bad_batch_count(batches):
    with pytest.raises(ValueError, match="batches"):
        simulate.simulate_reward(_flip_flop(), _up, hours=100.0, batches=batches)


def test_same_seed_same_estimate():
    first = simulate.simulate_reward(_flip_flop(), _up, hours=5_000.0, seed=21)
    second = simulate.simulate_reward(_flip_flop(), _up, hours=5_000.0, seed=21)
    assert (first.value, first.stderr) == (second.value, second.stderr)
    other = simulate.simulate_reward(_flip_flop(), _up, hours=5_000.0, seed=22)
    assert other.value != first.value


@settings(max_examples=100, deadline=None)
@given(spec=small_nets(), seed=st.integers(0, 2**32 - 1))
def test_simulation_matches_analytic_reward(spec, seed):
    def reward(m):
        return m.counts[0] + 0.5 * m.counts[-1]

    try:
        analytic = srn.expected_reward(srn.solve(build_small_net(spec)), reward)
    except srn.SrnError:
        assume(False)
    est = simulate.simulate_reward(build_small_net(spec), reward, hours=2_000.0, seed=seed)
    assert est.within(analytic, n_sigma=5)
