"""Reference computations the benchmark checks the program against.

Nothing here imports patchdesign.  Each oracle is a different method
from the one the program uses:

* security metrics come from tier-level paths times replica products
  (acyclic tier graphs) or from a dynamic programme over per-tier usage
  vectors (any tier graph), never from an instance-level DFS;
* COA is the binomial sum over per-tier up-counts;
* queueing nets are checked against birth-death closed forms;
* failure-free server nets against the sum of the patch-stage means.
"""

from __future__ import annotations

import math
from collections import defaultdict

# -- attack trees (model-file JSON form) -----------------------------------


def prune(node, critical):
    """The post-patch tree: critical leaves removed, an AND losing any
    child removed, an OR losing all children removed."""
    if node is None:
        return None
    (kind, value), = node.items()
    if kind == "vuln":
        return None if critical[value] else node
    kept = [prune(c, critical) for c in value]
    if kind == "and":
        return None if any(c is None for c in kept) else {"and": kept}
    kept = [c for c in kept if c is not None]
    return {"or": kept} if kept else None


def tree_value(node, leaf_value, and_op, or_op):
    (kind, value), = node.items()
    if kind == "vuln":
        return leaf_value[value]
    vals = [tree_value(c, leaf_value, and_op, or_op) for c in value]
    return and_op(vals) if kind == "and" else or_op(vals)


def tree_leaf_ids(node):
    (kind, value), = node.items()
    if kind == "vuln":
        return {value}
    out = set()
    for c in value:
        out |= tree_leaf_ids(c)
    return out


def tier_profiles(doc, patched):
    """tier -> (probability, impact, distinct vulnerabilities), or None for
    a tier whose (pruned) tree is empty."""
    vulns = {v["id"]: v for v in doc["vulnerabilities"]}
    critical = {k: v["critical"] for k, v in vulns.items()}
    prob = {k: v["probability"] for k, v in vulns.items()}
    impact = {k: v["impact"] for k, v in vulns.items()}
    out = {}
    for tier in doc["tiers"]:
        tree = doc["servers"][tier].get("attack_tree")
        if tree and patched:
            tree = prune(tree, critical)
        if not tree:
            out[tier] = None
            continue
        out[tier] = (tree_value(tree, prob, math.prod, max),
                     tree_value(tree, impact, math.fsum, max),
                     len(tree_leaf_ids(tree)))
    return out


# -- security metrics -------------------------------------------------------


def _successors(doc, profiles):
    succ = defaultdict(list)
    for a, b in doc["reachability"]["edges"]:
        if profiles[a] is not None and profiles[b] is not None:
            succ[a].append(b)
    return succ


def tier_graph_is_acyclic(doc) -> bool:
    succ = defaultdict(list)
    for a, b in doc["reachability"]["edges"]:
        succ[a].append(b)
    state = {}

    def visit(t):
        state[t] = 1
        for u in succ[t]:
            if state.get(u) == 1 or (u not in state and not visit(u)):
                return False
        state[t] = 2
        return True

    return all(visit(t) for t in doc["tiers"] if t not in state)


def _entry_tiers(doc, profiles):
    return sorted(t for t in doc["reachability"]["entry_tiers"]
                  if profiles[t] is not None)


def terminal_usage_acyclic(doc, counts, profiles):
    """{usage vector: instance paths} from tier paths x replica products.

    In an acyclic tier graph an instance path visits each tier at most
    once, so every tier path carries exactly prod(n_t) instance paths."""
    tiers = doc["tiers"]
    target = doc["reachability"]["target_tier"]
    succ = _successors(doc, profiles)
    out = defaultdict(int)

    def walk(path):
        t = path[-1]
        if t == target:
            vec = tuple(int(x in path) for x in tiers)
            out[vec] += math.prod(counts[x] for x in path)
            return
        for u in succ[t]:
            walk(path + [u])

    for e in _entry_tiers(doc, profiles):
        walk([e])
    return out


def terminal_usage_dp(doc, counts, profiles):
    """{usage vector: instance paths} for any tier graph.

    A simple instance path is fixed by its tier sequence plus, at each
    step, which still-unused replica of the next tier it enters.  The
    programme walks usage vectors (replicas used per tier) and multiplies
    by the number of unused replicas, so replicas are never enumerated."""
    tiers = doc["tiers"]
    pos = {t: i for i, t in enumerate(tiers)}
    n = [counts[t] for t in tiers]
    target = pos[doc["reachability"]["target_tier"]]
    succ = _successors(doc, profiles)
    succ_idx = {pos[a]: [pos[b] for b in bs] for a, bs in succ.items()}

    terminal = defaultdict(int)
    level = defaultdict(int)  # (usage vector, current tier) -> paths
    for e in _entry_tiers(doc, profiles):
        i = pos[e]
        vec = tuple(int(j == i) for j in range(len(tiers)))
        if i == target:
            terminal[vec] += n[i]
        else:
            level[(vec, i)] += n[i]
    while level:
        nxt = defaultdict(int)
        for (vec, i), ways in level.items():
            for j in succ_idx.get(i, ()):
                free = n[j] - vec[j]
                if free <= 0:
                    continue
                v2 = vec[:j] + (vec[j] + 1,) + vec[j + 1:]
                if j == target:
                    terminal[v2] += ways * free
                else:
                    nxt[(v2, j)] += ways * free
        level = nxt
    return terminal


def security_metrics(doc, counts, patched, method="auto"):
    """dict(aim, asp, noev, noap, noep) for one design.

    ``method`` is "paths" (tier paths, acyclic graphs only), "dp" (usage
    vectors) or "auto" (tier paths when the tier graph is acyclic)."""
    profiles = tier_profiles(doc, patched)
    if method == "auto":
        method = "paths" if tier_graph_is_acyclic(doc) else "dp"
    if method == "paths":
        terminal = terminal_usage_acyclic(doc, counts, profiles)
    else:
        terminal = terminal_usage_dp(doc, counts, profiles)
    tiers = doc["tiers"]
    log_miss = 0.0
    aim = 0.0
    for vec, ways in terminal.items():
        p = math.prod(profiles[t][0] ** k for t, k in zip(tiers, vec) if k)
        if p >= 1.0:
            log_miss = -math.inf
        elif log_miss > -math.inf:
            log_miss += ways * math.log1p(-p)
        aim = max(aim, math.fsum(profiles[t][1] * k for t, k in zip(tiers, vec) if k))
    noap = sum(terminal.values())
    return {
        "aim": aim,
        "asp": -math.expm1(log_miss) if noap else 0.0,
        "noev": sum(counts[t] * prof[2] for t, prof in profiles.items() if prof),
        "noap": noap,
        "noep": sum(counts[t] for t in _entry_tiers(doc, profiles)),
    }


# -- availability -------------------------------------------------------------


def coa(counts, avail):
    """Capacity-oriented availability of independent two-state servers.

    ``counts`` and ``avail`` are per-tier lists.  Reward is up/total when
    every tier has a server up, else 0; the sum runs over per-tier
    binomial up-counts k_t >= 1."""
    total = sum(counts)
    per_tier = [[math.comb(n, k) * a ** k * (1.0 - a) ** (n - k) for k in range(n + 1)]
                for n, a in zip(counts, avail)]
    # distribution of total servers up, given every tier has one up
    dist = {0: 1.0}
    for probs in per_tier:
        nxt = defaultdict(float)
        for s, p in dist.items():
            for k in range(1, len(probs)):
                nxt[s + k] += p * probs[k]
        dist = nxt
    return math.fsum(p * s for s, p in dist.items()) / total


def failure_free_mttr_hours(server):
    """Mean patch outage of a server with no failures: the four stages of
    the patch cycle run back to back (model-file minutes)."""
    return (server["svc_patch_minutes"] + server["os_patch_minutes"]
            + server["os_reboot_after_patch_minutes"]
            + server["svc_reboot_after_patch_minutes"]) / 60.0


# -- queueing closed forms -----------------------------------------------------


def birth_death(births, deaths):
    """Stationary distribution of a birth-death chain on 0..len(births)."""
    w = [1.0]
    for lam, mu in zip(births, deaths):
        w.append(w[-1] * lam / mu)
    s = math.fsum(w)
    return [x / s for x in w]


def mmck(lam, mu, c, k):
    """M/M/c/K stationary probabilities of 0..K customers."""
    return birth_death([lam] * k, [mu * min(j, c) for j in range(1, k + 1)])


def mean(dist):
    return math.fsum(j * p for j, p in enumerate(dist))


# -- comparisons ------------------------------------------------------------------


def printed_matches(text, ref, digits=6):
    """True iff ``text`` (printed with ``digits`` significant digits) is
    ``ref`` rounded to that precision, allowing half a unit in the last
    printed place."""
    value = float(text)
    if ref == 0.0:
        return value == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - digits + 1)
    return abs(value - ref) <= half_unit * (1 + 1e-9) + 1e-300


def within(bound_kind, value, bound, tol=1e-9):
    """Membership of one value in one bound: True, False, or None when the
    value is so close to the bound that rounding may decide it."""
    if bound is None:
        return True
    if tol and abs(value - bound) <= tol * max(1.0, abs(bound)):
        return None
    return value <= bound if bound_kind == "upper" else value >= bound


def region_membership(metrics, coa_value, bounds):
    """True, False or None (undecidable at float precision) for one design
    against one bound set (model-file keys phi, psi, xi, omega, kappa)."""
    votes = [
        within("upper", metrics["asp"], bounds.get("phi")),
        within("lower", coa_value, bounds.get("psi")),
        within("upper", metrics["noev"], bounds.get("xi"), tol=0),
        within("upper", metrics["noap"], bounds.get("omega"), tol=0),
        within("upper", metrics["noep"], bounds.get("kappa"), tol=0),
    ]
    if False in votes:
        return False
    return None if None in votes else True
