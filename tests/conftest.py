import itertools
import math
import random

import pytest
from hypothesis import strategies as st

from patchdesign import availability, harm, srn
from patchdesign.guards import parse_guard
from patchdesign.model import example_network_path, load_model


@pytest.fixture(scope="session")
def model():
    return load_model(example_network_path())


@pytest.fixture(scope="session")
def rates(model):
    return availability.aggregate_all(model.templates, model.policy)


# the five single-redundancy comparison designs plus the worked example
COMPARISON_LABELS = [
    "1dns-1web-1app-1db",
    "2dns-1web-1app-1db",
    "1dns-2web-1app-1db",
    "1dns-1web-2app-1db",
    "1dns-1web-1app-2db",
]

BASELINE = "1dns-1web-1app-1db"


class KeyTwice(dict):
    """An object that json.dumps writes with ``key`` given a second time,
    last, with ``value``: json.dumps writes no such object itself."""

    def __init__(self, obj, key, value):
        super().__init__(obj)
        self.twice = (key, value)

    def items(self):
        return [*super().items(), self.twice]


def flat_srn_coa(design, rates):
    """COA as the steady-state reward of the flat network SRN: the oracle
    for ``availability.compute_coa``."""
    net = availability.build_network_srn(design, rates)
    return srn.expected_reward(srn.solve(net), availability.coa_reward(design))


def exploitable_instances(harm_obj):
    """Every replica of every exploitable tier, in tier order."""
    return [harm.Instance(tier, i) for tier in harm_obj.reachability.tiers
            if harm_obj.trees[tier] is not None
            for i in range(1, harm_obj.counts[tier] + 1)]


def instance_path_metrics(harm_obj):
    """The five security metrics aggregated over every enumerated instance
    path: the oracle for ``harm.network_metrics``."""
    paths = harm.enumerate_attack_paths(harm_obj)
    instances = exploitable_instances(harm_obj)
    aim, log_miss = 0.0, 0.0
    for path in paths:
        impact, prob = harm.path_metrics(harm_obj, path)
        aim = max(aim, impact)
        log_miss += math.log1p(-prob) if prob < 1.0 else -math.inf
    noev = sum(len({v.id for v in harm_obj.trees[inst.tier].leaves()})
               for inst in instances)
    noep = sum(inst.tier in harm_obj.reachability.entry_tiers for inst in instances)
    return harm.SecurityMetrics(aim=aim, asp=-math.expm1(log_miss) if paths else 0.0,
                                noev=noev, noap=len(paths), noep=noep)


def per_design_metrics(harm_obj):
    """The five security metrics of one design by a walk over its own
    replica counts, each state holding its number of instance paths: the
    bit-for-bit reference for ``harm.metrics_all``, which reads every
    design of a set off one walk over the set's bounding box."""
    reach, replicas = harm_obj.reachability, harm_obj.counts
    value = {t: (harm.tree_impact(tree), harm.tree_probability(tree),
                 len({v.id for v in tree.leaves()}))
             for t, tree in harm_obj.trees.items() if tree is not None and replicas[t]}
    succ = {}
    for a, b in sorted(reach.edges):
        if a in value and b in value:
            succ.setdefault(a, []).append(b)
    entries = sorted(t for t in reach.entry_tiers if t in value)
    radix = max(replicas.values()) + 1
    digit = {t: radix ** i for i, t in enumerate(value)}
    full = sum(replicas[t] * digit[t] for t in value)
    level = {(t, full - digit[t]): [replicas[t], *value[t][:2]] for t in entries}
    noap, aim, log_miss = 0, 0.0, 0.0
    while level:
        following = {}
        for (tier, unused), (count, impact, prob) in level.items():
            if tier == reach.target_tier:
                noap += count
                aim = max(aim, impact)
                log_miss += harm._log_miss(count, prob)
                continue
            for nxt in succ.get(tier, ()):
                free = unused // digit[nxt] % radix
                if free:
                    key = (nxt, unused - digit[nxt])
                    if key in following:
                        following[key][0] += count * free
                    else:
                        nxt_impact, nxt_prob, _ = value[nxt]
                        following[key] = [count * free, impact + nxt_impact, prob * nxt_prob]
        level = following
    noev = sum(replicas[t] * distinct for t, (_, _, distinct) in value.items())
    return harm.SecurityMetrics(aim=aim, asp=-math.expm1(log_miss) if log_miss else 0.0,
                                noev=noev, noap=noap, noep=sum(replicas[t] for t in entries))


def reference_accepts(evaluation, bounds):
    """``evaluate.accepts`` as a tuple of (value, upper bound) pairs under
    ``all()``: the reference for the short-circuit predicate."""
    m = evaluation.metrics
    uppers = ((m.asp, bounds.asp_upper), (m.noev, bounds.noev_upper),
              (m.noap, bounds.noap_upper), (m.noep, bounds.noep_upper))
    return (all(bound is None or value <= bound for value, bound in uppers)
            and (bounds.coa_lower is None or evaluation.coa >= bounds.coa_lower))


def _fmt(x):
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def reference_scatter_csv(evaluations):
    """``evaluate.scatter_csv`` with each field formatted on its own by
    type: the reference for its one f-string per row."""
    lines = ["design,patched,asp,coa"]
    for e in evaluations:
        lines.append(",".join([e.label, _fmt(e.patched), _fmt(e.metrics.asp), _fmt(e.coa)]))
    return "\n".join(lines) + "\n"


def reference_radar_csv(evaluations):
    """``evaluate.radar_csv`` with each field formatted on its own by type."""
    lines = ["design,patched,aim,asp,noev,noap,noep,coa"]
    for e in evaluations:
        m = e.metrics
        lines.append(",".join([e.label, _fmt(e.patched), _fmt(m.aim), _fmt(m.asp),
                               _fmt(m.noev), _fmt(m.noap), _fmt(m.noep), _fmt(e.coa)]))
    return "\n".join(lines) + "\n"


def reference_simulate_reward(net, reward, hours, seed=0, batches=50):
    """``simulate.simulate_reward`` with the step rule, the firing and
    the reward recomputed at every event and the batch of each dwell
    found from its start time: the oracle for its step table and batch
    accounting.  Draws from the same uniform stream by the same rule: a
    tangible dwell takes one variate, a step of two or more branches
    takes one and walks the cumulative thresholds.  Returns (value,
    stderr)."""
    uniform = random.Random(seed).random
    marking = net.initial_marking()
    batch_len = hours / batches
    batch_totals = [0.0] * batches
    now = 0.0
    while now < hours:
        vanishing, step = net.branches(marking)
        sums = list(itertools.accumulate(w for _, w in step))
        if not vanishing:
            dwell = -math.log(1.0 - uniform()) / sums[-1] if step else hours - now
            r = reward(marking)
            end = min(now + dwell, hours)
            b, at = min(int(now / batch_len), batches - 1), now
            while at < end:
                edge = end if b == batches - 1 else min((b + 1) * batch_len, end)
                batch_totals[b] += r * (edge - at)
                b, at = b + 1, edge
            now += dwell
        if len(step) == 1:
            marking = net.fire(step[0][0], marking)
        elif step:
            u = uniform()
            for (t, _), acc in zip(step, sums):
                if u < acc / sums[-1]:
                    break
            marking = net.fire(t, marking)
    means = [t / batch_len for t in batch_totals]
    mean = math.fsum(means) / batches
    variance = math.fsum((m - mean) ** 2 for m in means) / (batches - 1)
    return mean, math.sqrt(variance / batches)


_OPS = ("==", "!=", "<", "<=", ">", ">=")


@st.composite
def small_nets(draw):
    """(initial tokens, transitions) of a conservative net with 2-4
    places and at most 3 tokens.  A transition is (immediate, source,
    target, rate or weight, marking-dependent, priority, guard).
    Immediates only move tokens to a later place, so every run of
    immediates ends in a tangible marking.

    About half the nets start with a branching chain of immediates:
    p2 -> p0 and p3 -> p0 are timed, and p0 branches to p2 directly or
    to p3 through the vanishing p1, with unequal weights.  A token
    leaving p2 or p3 thus reaches the other place with a probability
    that runs through P_VV, so a wrong P_VV changes Q.
    """
    chain = draw(st.booleans())
    n = draw(st.integers(4 if chain else 2, 4))
    tokens = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                  .filter(lambda c: 1 <= sum(c) <= 3))
    guards = st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from(_OPS),
                                   st.integers(0, 2))
    transitions = []
    if chain:
        to_p1 = draw(st.floats(0.1, 5.0))
        to_p2 = to_p1 * draw(st.floats(1.5, 4.0) | st.floats(0.25, 0.67))
        transitions += [(False, 2, 0, draw(st.floats(0.1, 5.0)), draw(st.booleans()), 0, None),
                        (False, 3, 0, draw(st.floats(0.1, 5.0)), draw(st.booleans()), 0, None),
                        (True, 0, 1, to_p1, False, 0, None),
                        (True, 0, 2, to_p2, False, 0, None),
                        (True, 1, 3, draw(st.floats(0.1, 5.0)), False, 0, None)]
    for _ in range(draw(st.integers(0 if chain else 1, 6))):
        immediate = draw(st.booleans())
        src = draw(st.integers(0, n - 2 if immediate else n - 1))
        dst = draw(st.integers(src + 1, n - 1) if immediate else st.integers(0, n - 1))
        transitions.append((immediate, src, dst, draw(st.floats(0.1, 5.0)),
                            draw(st.booleans()), draw(st.integers(0, 2)),
                            draw(guards)))
    return tuple(tokens), tuple(transitions)


def build_small_net(spec):
    """The net of a ``small_nets`` example."""
    tokens, transitions = spec
    net = srn.Net()
    for i, count in enumerate(tokens):
        net.add_place(f"p{i}", count)
    for k, (immediate, src, dst, value, by_place, priority, guard) in enumerate(transitions):
        guard = parse_guard(f"#p{guard[0]} {guard[1]} {guard[2]}") if guard else srn.TRUE
        if immediate:
            net.add_immediate(f"t{k}", [f"p{src}"], [f"p{dst}"], guard=guard,
                              weight=value, priority=priority)
        else:
            rate = srn.RateExpr(value, f"p{src}" if by_place else None)
            net.add_timed(f"t{k}", rate, [f"p{src}"], [f"p{dst}"], guard=guard)
    return net
