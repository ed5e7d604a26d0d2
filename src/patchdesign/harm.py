"""Two-layer hierarchical attack model and security metrics.

The upper layer is the reachability graph between server instances.
Replicas of a tier are interchangeable and every edge of the tier graph
joins all replicas of its source tier to all replicas of its
destination, so the upper layer is held as the tier graph plus a
replica count per tier.  The lower layer is one AND/OR attack tree per
tier, shared by its replicas.  A tier whose tree is empty cannot be
compromised and blocks traversal entirely.

Because replicas are interchangeable, an attack path's impact and
probability depend only on how often it visits each tier.
``metrics_all`` therefore counts tier sequences per visit vector, in
one walk for a whole set of designs, and never lists instance paths.
After the walk, one design costs one lookup per tier, to pick its
falling factorials, and one per tier visited for each row;
``network_metrics`` is the one-design slice.  ``enumerate_attack_paths``
expands the replicas and lists the instance paths themselves, for
inspection and as the reference the counting is tested against.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .model import (AttackTreeNode, DesignSpec, PatchPolicy,
                    ReachabilityTemplate, SrnError, prune_attack_tree)

# The most states the walk of ``metrics_all`` visits, checked once per
# level: a few seconds and about 100 MB on a 2-vCPU VM.  The largest
# walks in the tests and the bench take under 15 000 states.
STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Instance:
    tier: str
    index: int  # 1-based replica index

    @property
    def id(self) -> str:
        return f"{self.tier}{self.index}"

    def __str__(self):
        return self.id


@dataclass(frozen=True)
class Harm:
    """The tier graph with its replica counts (upper layer) and one
    attack tree per tier (lower layer)."""

    counts: dict  # tier -> replicas
    trees: dict  # tier -> attack tree, None for a tier that cannot be compromised
    reachability: ReachabilityTemplate


class SecurityMetrics(NamedTuple):
    aim: float
    asp: float
    noev: int
    noap: int
    noep: int


def tier_trees(templates: dict, reachability: ReachabilityTemplate, patched: bool,
               policy: PatchPolicy | None = None) -> dict:
    """Each tier's attack tree, with the policy's patched leaves pruned
    if ``patched``.  The trees do not depend on the design, so an
    ``evaluate.Evaluator`` prunes them once for all its designs."""
    trees = {t: templates[t].attack_tree for t in reachability.tiers}
    if patched:
        matches = (policy or PatchPolicy()).matches
        trees = {t: prune_attack_tree(tree, matches) for t, tree in trees.items()}
    return trees


def build_harm(design: DesignSpec, templates: dict,
               reachability: ReachabilityTemplate, patched: bool,
               policy: PatchPolicy | None = None) -> Harm:
    """The HARM of a design, pre- or post-patch: its replica count and
    (patched if asked) attack tree per tier over the tier graph."""
    return Harm(counts=dict(design.counts),
                trees=tier_trees(templates, reachability, patched, policy),
                reachability=reachability)


def enumerate_attack_paths(harm: Harm) -> list[tuple]:
    """All simple entry-to-target paths over exploitable instances,
    in lexicographic order of instance ids.  Each tier edge joins every
    replica of its source tier to every replica of its destination."""
    reach = harm.reachability
    replicas = {t: [Instance(t, i) for i in range(1, harm.counts[t] + 1)]
                for t in reach.tiers if harm.trees[t] is not None}
    succ = {}
    for a, b in reach.edges:
        if a in replicas and b in replicas:
            succ.setdefault(a, []).extend(replicas[b])

    paths = []

    def dfs(path, visited):
        node = path[-1]
        if node.tier == reach.target_tier:
            paths.append(tuple(path))
            return
        for nxt in succ.get(node.tier, ()):
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                dfs(path, visited)
                path.pop()
                visited.discard(nxt)

    for tier in reach.entry_tiers:
        for entry in replicas.get(tier, ()):
            dfs([entry], {entry})
    paths.sort(key=lambda p: [i.id for i in p])
    return paths


def _fold(node: AttackTreeNode, field: str, combine_and) -> float:
    """A tree's leaf ``field`` folded up: ``combine_and`` over AND, max over OR."""
    if node.kind == "leaf":
        return getattr(node.vulnerability, field)
    child_values = [_fold(c, field, combine_and) for c in node.children]
    return combine_and(child_values) if node.kind == "and" else max(child_values)


def tree_impact(node: AttackTreeNode | None) -> float | None:
    """Attack impact of a tree: leaf value, sum over AND, max over OR.
    None for an empty (unexploitable) tree."""
    return None if node is None else _fold(node, "attack_impact", sum)


def tree_probability(node: AttackTreeNode | None) -> float | None:
    """Attack success probability: leaf value, product over AND, max over OR."""
    return None if node is None else _fold(node, "attack_success_prob", math.prod)


def path_metrics(harm: Harm, path: tuple) -> tuple[float, float]:
    """(impact, probability) of one attack path: impacts add along the
    path, probabilities multiply."""
    impact, prob = 0.0, 1.0
    for inst in path:
        tree = harm.trees[inst.tier]
        impact += tree_impact(tree)
        prob *= tree_probability(tree)
    return impact, prob


_FLOAT_MAX = sys.float_info.max


def _log_miss(count: int, prob: float) -> float:
    """count * log1p(-prob), through log(count) past float range."""
    if prob >= 1.0:
        return -math.inf
    if count <= _FLOAT_MAX:
        return count * math.log1p(-prob)
    if prob == 0.0:
        return 0.0
    scale = math.log(count) + math.log(-math.log1p(-prob))
    return -math.exp(scale) if scale < math.log(_FLOAT_MAX) else -math.inf


def metrics_all(trees: dict, reachability: ReachabilityTemplate,
                designs: list) -> list[SecurityMetrics]:
    """The five security metrics of each design (tier -> replicas), in
    the order given, from one walk over the designs' bounding box (tier
    -> the largest replica count).

    Each exploitable tier's tree is scored once: impact, probability and
    number of distinct vulnerabilities.  A state of the walk is (current
    tier, unused replicas of the box per tier as digits of one int); it
    holds the number of tier sequences that reach it, with the impact and
    probability of the first walk to reach it.  A step into tier t needs
    an unused replica of t, and walks that reach the same state merge,
    cycles and self-loops alike.  Each state at the target is one row:
    its visits as (tier index, visits) pairs, the number of tier
    sequences s(v), the walk's impact and probability, and log1p(-p).
    The walk raises SrnError once it has visited more than STATE_CAP
    states.

    A design with n_t replicas of tier t has s(v) * prod_t (n_t)_{v_t}
    instance paths with visit vector v.  A list of falling factorials
    (n)_0 .. (n)_k is built once per tier and replica count n that some
    design gives it, so a design costs one lookup per tier, then one per
    tier visited for each row.  ASP is the noisy-OR of the paths
    (assumed independent), summed as log(1 - ASP) = sum of log1p(-p) so
    that a p too small to change 1.0 - p still counts.  A row that no
    path of the design walks is skipped.  NoEV counts vulnerabilities
    per exploitable replica; NoEP counts the replicas of exploitable
    entry tiers."""
    box = {t: max((counts[t] for counts in designs), default=0) for t in reachability.tiers}
    value = {t: (tree_impact(tree), tree_probability(tree), len({v.id for v in tree.leaves()}))
             for t, tree in trees.items() if tree is not None and box[t]}
    tiers = list(value)
    entries = sorted(t for t in reachability.entry_tiers if t in value)
    radix = max(box.values()) + 1
    digit = {t: radix ** i for i, t in enumerate(tiers)}
    full = sum(box[t] * digit[t] for t in tiers)
    succ = {}  # tier -> (next tier, its digit, impact, probability)
    for a, b in sorted(reachability.edges):
        if a in value and b in value:
            succ.setdefault(a, []).append((b, digit[b], *value[b][:2]))
    level = {(t, full - digit[t]): [1, *value[t][:2]] for t in entries}
    target, states, rows = reachability.target_tier, 0, []
    most = [0] * len(tiers)  # the most visits a row makes to each tier
    while level:
        states += len(level)
        if states > STATE_CAP:
            raise SrnError(f"security: the attack-path table passed its cap of "
                           f"{STATE_CAP} states at {states} states")
        following = {}
        for (tier, unused), (ways, impact, prob) in level.items():
            if tier == target:
                visited, visits = full - unused, []
                for i in range(len(tiers)):
                    visited, k = divmod(visited, radix)
                    if k:
                        visits.append((i, k))
                        if k > most[i]:
                            most[i] = k
                rows.append((tuple(visits), ways, impact, prob,
                             -math.inf if prob >= 1.0 else math.log1p(-prob)))
                continue
            for nxt, step, nxt_impact, nxt_prob in succ.get(tier, ()):
                if unused // step % radix:
                    key = (nxt, unused - step)
                    if key in following:
                        following[key][0] += ways
                    else:
                        following[key] = [ways, impact + nxt_impact, prob * nxt_prob]
        level = following
    replicas = [list(map(counts.__getitem__, tiers)) for counts in designs]
    falling = [{n: list(itertools.accumulate(range(n, n - k, -1), operator.mul, initial=1))
                for n in {ns[i] for ns in replicas}}
               for i, k in enumerate(most)]
    distinct = [score[2] for score in value.values()]
    entries = list(map(tiers.index, entries))
    out = []
    for ns in replicas:
        factors = list(map(dict.__getitem__, falling, ns))
        noap, aim, log_miss = 0, 0.0, 0.0
        for visits, ways, impact, prob, miss in rows:
            count = ways
            for i, k in visits:
                count *= factors[i][k]
            if count:
                noap += count
                if impact > aim:
                    aim = impact
                log_miss += count * miss if count <= _FLOAT_MAX else _log_miss(count, prob)
        out.append(SecurityMetrics(aim, -math.expm1(log_miss) if log_miss else 0.0,
                                   sum(map(operator.mul, ns, distinct)), noap,
                                   sum(map(ns.__getitem__, entries))))
    return out


def network_metrics(harm: Harm) -> SecurityMetrics:
    """The five security metrics of one design: the one-design slice of
    ``metrics_all``."""
    return metrics_all(harm.trees, harm.reachability, [harm.counts])[0]
