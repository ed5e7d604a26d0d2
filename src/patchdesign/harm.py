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
``network_metrics`` therefore counts instance paths per visit vector
and never lists them; ``enumerate_attack_paths`` expands the replicas
and lists the instance paths themselves, for inspection and as the
reference the counting is tested against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import (AttackTreeNode, DesignSpec, PatchPolicy,
                    ReachabilityTemplate, prune_attack_tree)


@dataclass(frozen=True)
class Instance:
    tier: str
    index: int  # 1-based replica index

    @property
    def id(self) -> str:
        return f"{self.tier}{self.index}"

    def __str__(self):
        return self.id


class TierTrees(dict):
    """tier -> attack tree, None for a tier that cannot be compromised.

    Each tree is evaluated once, here: ``scores`` maps every exploitable
    tier to its tree's impact, probability and number of distinct
    vulnerabilities, which ``network_metrics`` reads for every design.
    """

    def __init__(self, trees: dict):
        super().__init__(trees)
        self.scores = {t: (tree_impact(tree), tree_probability(tree),
                           len({v.id for v in tree.leaves()}))
                       for t, tree in self.items() if tree is not None}


@dataclass(frozen=True)
class Harm:
    """The tier graph with its replica counts (upper layer) and one
    attack tree per tier (lower layer)."""

    counts: dict  # tier -> replicas
    trees: TierTrees
    reachability: ReachabilityTemplate


@dataclass(frozen=True)
class SecurityMetrics:
    aim: float
    asp: float
    noev: int
    noap: int
    noep: int


def tier_trees(templates: dict, reachability: ReachabilityTemplate, patched: bool,
               policy: PatchPolicy | None = None) -> TierTrees:
    """Each tier's attack tree, with the policy's patched leaves pruned
    if ``patched``.  The trees do not depend on the design, so an
    ``evaluate.Evaluator`` prunes and evaluates them once for all its
    designs."""
    trees = {t: templates[t].attack_tree for t in reachability.tiers}
    if patched:
        matches = (policy or PatchPolicy()).matches
        trees = {t: prune_attack_tree(tree, matches) for t, tree in trees.items()}
    return TierTrees(trees)


def build_harm(design: DesignSpec, templates: dict,
               reachability: ReachabilityTemplate, patched: bool,
               policy: PatchPolicy | None = None) -> Harm:
    """The HARM of a design, pre- or post-patch: its replica count and
    (patched if asked) attack tree per tier over the tier graph."""
    return Harm(counts={t: design.count(t) for t in reachability.tiers},
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


def tree_impact(node: AttackTreeNode | None) -> float | None:
    """Attack impact of a tree: leaf value, sum over AND, max over OR.
    None for an empty (unexploitable) tree."""
    if node is None:
        return None
    if node.kind == "leaf":
        return node.vulnerability.attack_impact
    child_values = [tree_impact(c) for c in node.children]
    return sum(child_values) if node.kind == "and" else max(child_values)


def tree_probability(node: AttackTreeNode | None) -> float | None:
    """Attack success probability: leaf value, product over AND, max over OR."""
    if node is None:
        return None
    if node.kind == "leaf":
        return node.vulnerability.attack_success_prob
    child_values = [tree_probability(c) for c in node.children]
    return math.prod(child_values) if node.kind == "and" else max(child_values)


def path_metrics(harm: Harm, path: tuple) -> tuple[float, float]:
    """(impact, probability) of one attack path: impacts add along the
    path, probabilities multiply."""
    impact, prob = 0.0, 1.0
    for inst in path:
        tree = harm.trees[inst.tier]
        impact += tree_impact(tree)
        prob *= tree_probability(tree)
    return impact, prob


def _log_miss(count: int, prob: float) -> float:
    """count * log1p(-prob), through log(count) past float range."""
    if prob >= 1.0:
        return -math.inf
    if count <= sys.float_info.max:
        return count * math.log1p(-prob)
    if prob == 0.0:
        return 0.0
    scale = math.log(count) + math.log(-math.log1p(-prob))
    return -math.exp(scale) if scale < math.log(sys.float_info.max) else -math.inf


def network_metrics(harm: Harm) -> SecurityMetrics:
    """Aggregate the five security metrics over all attack paths.

    Paths are counted by visit vector.  A state is (current tier, unused
    replicas per tier as digits of one int); it holds the number of
    instance paths that reach it, with their impact and probability.  A
    step into tier t multiplies that number by t's unused replicas, and
    walks that reach the same state merge, cycles and self-loops alike.
    ASP is the noisy-OR of the paths (assumed independent), summed as
    log(1 - ASP) = sum of log1p(-p) so that a p too small to change
    1.0 - p still counts.  NoEV counts vulnerabilities per exploitable
    replica; NoEP counts the replicas of exploitable entry tiers.  The
    per-tier values are ``harm.trees.scores``, evaluated once per
    ``tier_trees`` result, which designs can share.
    """
    reach, replicas = harm.reachability, harm.counts
    value = {t: score for t, score in harm.trees.scores.items() if replicas[t]}
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
                log_miss += _log_miss(count, prob)
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
    return SecurityMetrics(aim=aim, asp=-math.expm1(log_miss) if log_miss else 0.0,
                           noev=noev, noap=noap, noep=sum(replicas[t] for t in entries))
