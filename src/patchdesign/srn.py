"""Stochastic reward net engine.

Nets have exponentially timed transitions (optionally with a
marking-dependent rate ``const * #place``), immediate transitions with
weights and priorities, and boolean guards over markings.  Analysis
follows the usual GSPN pipeline: breadth-first reachability, a
steady-state solve, expected reward.

``Net.branches`` is the one step rule: it decides whether a marking is
vanishing or tangible and which transitions may fire from it, with what
weight or rate.  Both the explorer here and the discrete-event simulator
(``simulate.simulate_reward``) take their steps from it.

Exploration is structural; values come from the net's constants.  The
reachability graph keeps each edge as indices (source, target, firing
transition) and a rate factor, and ``rerate`` turns a net's rate
constants and weights into edge rates and probabilities.  Exploration
sees the constants only through their being positive, so one graph
serves every net that differs from its own only in them.

The steady state keeps the vanishing markings in the chain rather than
eliminating them (Ciardo, Muppala and Trivedi, "On the solution of GSPN
reward models", Performance Evaluation 12(4), 1991).  Each vanishing
marking that a tangible one reaches becomes a state whose exit rate is
the largest total timed rate out of any tangible marking, split by its
branching probabilities.  The time spent in those states is a fiction,
but censoring the chain on the tangible markings gives back the reduced
CTMC exactly, so the tangible part of its stationary vector, renormalised,
is the net's steady state.

Two kernels solve the chain.  Grassmann, Taksar and Heyman's state
reduction (GTH, ``_gth_kernel``) removes one state at a time with no
subtraction, so every probability, however rare, comes out to a small
relative error; it runs in plain Python.  Its symbolic phase
(``_plan``) picks the elimination order and the slot of every update
once per chain; every re-rated copy pays only the numeric phase.  A
chain whose symbolic phase would pass ``GTH_UPDATES`` updates goes to
scipy's sparse LU instead (``_sparse_kernel``, W. J. Stewart,
"Introduction to the Numerical Solution of Markov Chains", 1994, ch. 2),
which pins state 0 and, if another state is more probable, that one.
``_solve_pinned`` gives the measured crossover, and it alone rules the
system singular and checks the residual, for both kernels.

Exploration fixes what is structural in one record, ``Chain``: the
state numbering, the generator's (row, column) triplets and distinct
entries, which immediate edges stay in the chain, the strong-connectivity
verdict of ``_components``, from walks forward and backward from state
0, and the state reduction's plan, which every re-rated copy of a graph
shares.  A solve gives each triplet its value.
``eliminate_vanishing`` keeps the reduced generator as the plain
reference, and ``steady_state`` solves it as a chain with no vanishing
states.

The graph, the chain and the steady state are plain lists, so a chain
the state reduction solves, every server net among them, needs neither
numpy nor scipy.  Both are imported only by the sparse kernel, for the
components of a reducible chain, and by the reference functions
``eliminate_vanishing`` and ``steady_state``.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .guards import TRUE, check_places
from .model import SrnError, _closure

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_STATE_CAP = 1_000_000
RESIDUAL_TOLERANCE = 1e-10  # the steady-state solve's bound on its relative residual
GTH_UPDATES = 5_000  # the most updates of a chain the state reduction solves


class StateCapExceeded(SrnError):
    pass


class TimelessTrap(SrnError):
    """A set of vanishing markings with no path to any tangible marking."""

    def __init__(self, markings):
        self.markings = markings
        super().__init__(
            "timeless trap among vanishing markings: " + "; ".join(map(str, markings))
        )


class ReducibleChain(SrnError):
    pass


@dataclass(frozen=True)
class RateExpr:
    """Firing rate ``constant`` or ``constant * #place``."""

    constant: float
    place: str | None = None

    def value(self, marking) -> float:
        if self.place is None:
            return self.constant
        return self.constant * marking[self.place]


@dataclass(frozen=True)
class Transition:
    name: str
    inputs: tuple  # ((place, multiplicity), ...)
    outputs: tuple
    guard: object = TRUE
    # timed
    rate: RateExpr | None = None
    # immediate
    weight: float = 1.0
    priority: int = 0

    @property
    def timed(self) -> bool:
        return self.rate is not None


class Marking:
    """Immutable token-count vector with by-name lookup."""

    __slots__ = ("counts", "_index")

    def __init__(self, counts: tuple, index: dict):
        self.counts = counts
        self._index = index

    def __getitem__(self, place: str) -> int:
        return self.counts[self._index[place]]

    def __eq__(self, other):
        return self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __str__(self):
        return "{" + ", ".join(
            f"{p}:{c}" for p, c in zip(self._index, self.counts) if c
        ) + "}"

    __repr__ = __str__


class Net:
    """A stochastic reward net definition."""

    def __init__(self):
        self._places: dict[str, int] = {}  # name -> initial tokens
        self._index: dict[str, int] = {}
        self.transitions: list[Transition] = []
        self._names: set[str] = set()  # of the transitions

    @property
    def places(self):
        return list(self._places)

    def add_place(self, name: str, tokens: int = 0) -> None:
        if name in self._places:
            raise ValueError(f"duplicate place {name!r}")
        if tokens < 0:
            raise ValueError(f"negative initial tokens for {name!r}")
        self._places[name] = tokens
        self._index[name] = len(self._index)

    def add_timed(self, name, rate, inputs, outputs, guard=TRUE):
        if not isinstance(rate, RateExpr):
            rate = RateExpr(float(rate))
        self._add(name, "rate constant", rate.constant, inputs, outputs, guard, rate=rate)

    def add_immediate(self, name, inputs, outputs, guard=TRUE, weight=1.0, priority=0):
        weight = float(weight)
        self._add(name, "weight", weight, inputs, outputs, guard,
                  weight=weight, priority=priority)

    def _add(self, name, what, constant, inputs, outputs, guard, priority=0, **kind):
        """Append a new-named transition whose rate constant or weight
        ``constant`` is positive and finite and whose places are declared."""
        if name in self._names:
            raise ValueError(f"duplicate transition {name!r}")
        if not 0 < constant < math.inf:
            raise ValueError(f"transition {name!r}: {what} must be positive "
                             f"and finite, got {constant!r}")
        t = Transition(name, _arcs(name, inputs), _arcs(name, outputs), guard,
                       priority=int(priority), **kind)
        for p, _ in t.inputs + t.outputs:
            if p not in self._places:
                raise ValueError(f"transition {t.name!r} references unknown place {p!r}")
        check_places(t.guard, self._places)
        if t.rate is not None and t.rate.place is not None and t.rate.place not in self._places:
            raise ValueError(f"transition {t.name!r}: rate references unknown place")
        self.transitions.append(t)
        self._names.add(name)

    def initial_marking(self) -> Marking:
        return Marking(tuple(self._places.values()), self._index)

    def marking(self, counts) -> Marking:
        return Marking(tuple(counts), self._index)

    def constants(self) -> list:
        """The rate constant of each timed transition and the weight of
        each immediate one, in the order of ``transitions``."""
        return [t.rate.constant if t.timed else t.weight for t in self.transitions]

    # -- semantics -----------------------------------------------------

    def enabled(self, t: Transition, m: Marking) -> bool:
        """Input tokens and guard; a timed transition must also have a
        positive rate, which ``branches`` checks."""
        for p, mult in t.inputs:
            if m[p] < mult:
                return False
        return t.guard.evaluate(m)

    def fire(self, t: Transition, m: Marking) -> Marking:
        counts = list(m.counts)
        for p, mult in t.inputs:
            counts[self._index[p]] -= mult
        for p, mult in t.outputs:
            counts[self._index[p]] += mult
        return Marking(tuple(counts), self._index)

    def branches(self, m: Marking) -> tuple[bool, list[tuple[Transition, float]]]:
        """The step rule: (vanishing, [(transition, weight), ...]).

        A marking is vanishing iff an immediate transition is enabled in
        it; its branches are the enabled immediates of the highest
        enabled priority, weighted by ``weight``.  Otherwise the
        branches are the enabled timed transitions with their rates,
        each rate evaluated once; a timed transition whose rate is not
        positive is not enabled.  A tangible marking with no branches is
        absorbing.
        """
        immediates = [t for t in self.transitions if not t.timed and self.enabled(t, m)]
        if immediates:
            top = max(t.priority for t in immediates)
            return True, [(t, t.weight) for t in immediates if t.priority == top]
        timed = []
        for t in self.transitions:
            if t.timed and self.enabled(t, m):
                rate = t.rate.value(m)
                if rate > 0:
                    timed.append((t, rate))
        return False, timed


def _arcs(name, spec) -> tuple:
    """((place, multiplicity), ...) sorted by place, from a dict or a list
    of places and (place, multiplicity) pairs; a place listed more than
    once gets the sum of its multiplicities, so ['a', 'a'] is {'a': 2}."""
    items = spec.items() if isinstance(spec, dict) else (
        (item, 1) if isinstance(item, str) else item for item in spec)
    total = {}
    for place, mult in items:
        if mult <= 0:
            raise ValueError(f"transition {name!r}: nonpositive arc multiplicity")
        total[place] = total.get(place, 0) + mult
    return tuple(sorted(total.items()))


class Edges(NamedTuple):
    """The out-edges of one kind of marking as flat lists, in order of
    source marking and, within a source, in branch order."""

    source: list          # index of the source marking
    target: list          # index of the target among the markings of its kind
    into_vanishing: list  # whether the target is vanishing
    transition: list      # index of the firing transition in Net.transitions
    factor: list          # tokens in the rate place, or 1 for a constant rate or weight
    value: list | None = None  # rate of a timed edge, probability of an immediate one


class Plan(NamedTuple):
    """The symbolic phase of the state reduction (``_plan``): what its
    numeric phase (``_gth_kernel``) does, slot by slot.  Slots below
    ``len(Chain.pairs)`` hold G's entries, in that order, and ``fill``
    more hold the entries that elimination creates."""

    # per eliminated state k, in order: (the slots of a_kj for the states
    # j that remain, [(slot of a_ik, [(slot of a_ij, slot of a_kj), ...])
    # for each predecessor i that remains])
    steps: list
    back: list     # (k, i, slot of a_ik) in back-substitution order
    fill: int
    updates: int   # (predecessor, successor) pairs over the eliminated states


class Chain(NamedTuple):
    """The continuous-time chain of a reachability graph, with its
    vanishing markings kept as states: the one structure a steady-state
    solve takes.  It depends on the graph's structure only, so every
    re-rated copy shares it.

    The states are the tangible markings, in the order of
    ``graph.tangible``, then the vanishing markings that a tangible one
    reaches, in their order.  Any other vanishing marking is only passed
    on the way from the initial marking, and holds no steady-state
    probability.
    The generator G holds each timed edge out of a tangible marking at
    its rate and each immediate edge out of a kept vanishing marking at
    its probability times one exit rate s; its diagonal is minus each
    row's sum, so a self-loop cancels against its own diagonal entry.
    ``rows`` and ``cols`` hold G's triplets in that order, the diagonal
    last; ``pairs`` holds G's distinct (row, column) entries, and
    ``entry`` the entry of each triplet, so a solve sums duplicate
    triplets in triplet order.  ``plan`` is the state reduction's
    symbolic phase, or None when it would take more than ``GTH_UPDATES``
    updates, and then the sparse LU solves the chain.
    """

    trapped: list     # vanishing markings with no path to a tangible one
    kept: list        # indices of the immediate edges out of kept vanishing markings
    rows: list        # the row of each triplet of G, the diagonal last
    cols: list        # the column of each triplet of G
    n: int
    components: list  # ``_components`` of G's pattern
    pairs: list       # G's distinct (row, column) entries
    entry: list       # the index in ``pairs`` of each triplet
    plan: Plan | None

    @classmethod
    def of(cls, vanishing: list, timed: Edges, immediate: Edges, nt: int) -> Chain:
        nv, into_v = len(vanishing), immediate.into_vanishing
        inner = [(i, j) for i, j, v in zip(immediate.source, immediate.target, into_v) if v]
        v_source, v_target = [i for i, _ in inner], [j for _, j in inner]
        escapes = _closure(nv, v_target, v_source,
                           [i for i, v in zip(immediate.source, into_v) if not v])
        reached = _closure(nv, v_source, v_target,
                           [j for j, v in zip(timed.target, timed.into_vanishing) if v])
        state, n = [-1] * nv, nt
        for v in range(nv):
            if reached[v]:
                state[v], n = n, n + 1

        def columns(edges):
            return [state[j] if v else j for j, v in zip(edges.target, edges.into_vanishing)]

        kept = [e for e, i in enumerate(immediate.source) if reached[i]]
        into = columns(immediate)
        diagonal = list(range(n))
        rows = timed.source + [state[immediate.source[e]] for e in kept] + diagonal
        cols = columns(timed) + [into[e] for e in kept] + diagonal
        return cls.over(rows, cols, n, nt, kept=kept,
                        trapped=[m for m, ok in zip(vanishing, escapes) if not ok])

    @classmethod
    def over(cls, rows: list, cols: list, n: int, nt: int, kept=(), trapped=()) -> Chain:
        """The chain of G's triplets (rows, cols) over n states, the first
        nt of them tangible."""
        index = {}
        entry = [index.setdefault(pair, len(index)) for pair in zip(rows, cols)]
        pairs = list(index)
        return cls(list(trapped), list(kept), rows, cols, n,
                   _components(rows, cols, n, nt), pairs, entry, _plan(pairs, n))


def _components(rows, cols, n: int, nt: int) -> list:
    """[] when the pattern (rows, cols) over n states is strongly
    connected, else the tangible states (the first nt) of each strongly
    connected component that has any.

    The pattern is strongly connected when state 0 reaches every state
    and every state reaches state 0 (``_closure`` forward and backward),
    which needs neither numpy nor scipy.  Only a chain found reducible
    goes to scipy's ``connected_components`` for its components."""
    origin = [0] if n else []  # none in an empty chain
    if all(_closure(n, rows, cols, origin)) and all(_closure(n, cols, rows, origin)):
        return []
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(
        sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)),
        directed=True, connection="strong")
    groups = (np.nonzero(labels[:nt] == c)[0].tolist() for c in range(ncomp))
    return [group for group in groups if group]


def _plan(pairs: list, n: int) -> Plan | None:
    """The symbolic phase of the state reduction of a chain over n states
    whose generator has the entries ``pairs``: an elimination order with
    state 0 last and the slot of every update, or None once the updates
    pass ``GTH_UPDATES``.

    Eliminating k joins each predecessor i of k to each successor j, one
    update per pair (i, j); a new pair gets a fill slot, and i == j, a
    self-loop, which the reduction never reads, gets none.  The next
    state to eliminate is one of least Markowitz cost, its predecessors
    times its successors among the states that remain, taken from a heap
    whose stale entries are skipped when popped.  So the phase costs
    O(log n) per update beyond reading the pattern, and it stops within
    ``GTH_UPDATES`` updates on a chain of any size."""
    if n - 1 > GTH_UPDATES:  # each state but 0 leaves with at least one update
        return None
    succ = [{} for _ in range(n)]  # i -> {j: slot of a_ij} over the states that remain
    pred = [{} for _ in range(n)]  # j -> {i: slot of a_ij}
    for slot, (i, j) in enumerate(pairs):
        if i != j:
            succ[i][j] = pred[j][i] = slot
    heap = [(len(pred[k]) * len(succ[k]), k) for k in range(1, n)]
    heapq.heapify(heap)
    gone = [False] * n
    steps, back, size, updates = [], [], len(pairs), 0
    while heap:
        cost, k = heapq.heappop(heap)
        if gone[k] or cost != len(pred[k]) * len(succ[k]):
            continue
        updates += cost
        if updates > GTH_UPDATES:
            return None
        gone[k] = True
        out, preds = succ[k], []
        for i, p in pred[k].items():
            row = succ[i]
            del row[k]
            pairs_i = []
            for j, q in out.items():
                if j != i:
                    if j not in row:
                        row[j] = pred[j][i] = size
                        size += 1
                    pairs_i.append((row[j], q))
            preds.append((p, pairs_i))
            back.append((k, i, p))
        for j in out:
            del pred[j][k]
        steps.append((list(out.values()), preds))
        for i in {*pred[k], *out}:
            if i:
                heapq.heappush(heap, (len(pred[i]) * len(succ[i]), i))
    back.reverse()
    return Plan(steps, back, size - len(pairs), updates)


@dataclass
class ReachabilityGraph:
    tangible: list   # markings
    vanishing: list
    timed: Edges      # out of tangible markings
    immediate: Edges  # out of vanishing markings
    chain: Chain = field(repr=False, compare=False)


def reachability(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> ReachabilityGraph:
    """Explore the reachable markings of a net breadth-first.

    ``Net.branches`` classifies each new marking once and yields its
    out-edges.  Each edge keeps the index of the transition that fires
    and its rate factor; ``rerate`` then derives the edge values from
    the net's constants.  Exploration stops with StateCapExceeded after
    ``state_cap`` markings, which is what ends it on an unbounded net;
    a ``state_cap`` below 1 raises ValueError.
    """
    if state_cap < 1:
        raise ValueError(f"state cap must be at least 1, got {state_cap!r}")
    # transition -> (its index, the index of its rate place or None)
    info = {id(t): (k, net._index[t.rate.place] if t.timed and t.rate.place is not None
                    else None) for k, t in enumerate(net.transitions)}
    seen: dict[tuple, tuple] = {}  # counts -> (vanishing, index)
    markings = {False: [], True: []}
    # per kind: (source, target, into vanishing, transition, factor) per edge
    edges = {False: [], True: []}
    queue = deque()

    def register(m: Marking):
        key = m.counts
        if key in seen:
            return seen[key]
        if len(seen) >= state_cap:
            raise StateCapExceeded(f"more than {state_cap} markings")
        vanishing, step = net.branches(m)
        ref = seen[key] = (vanishing, len(markings[vanishing]))
        markings[vanishing].append(m)
        queue.append((ref, m, step))
        return ref

    register(net.initial_marking())
    while queue:
        (vanishing, i), m, step = queue.popleft()
        out = edges[vanishing]
        for t, _ in step:
            into_v, j = register(net.fire(t, m))
            k, place = info[id(t)]
            out.append((i, j, into_v, k, 1 if place is None else m.counts[place]))

    timed, immediate = _edges(edges[False]), _edges(edges[True])
    chain = Chain.of(markings[True], timed, immediate, len(markings[False]))
    graph = ReachabilityGraph(markings[False], markings[True], timed, immediate, chain)
    return rerate(graph, net.constants())


def _edges(edges: list) -> Edges:
    columns = [list(column) for column in zip(*edges)] or [[] for _ in range(5)]
    return Edges(*columns)


def rerate(graph: ReachabilityGraph, constants) -> ReachabilityGraph:
    """``graph`` with its edge values taken from ``constants``, the rate
    constant of each timed transition and the weight of each immediate
    one in the order of ``Net.transitions`` (``Net.constants``).

    A timed edge's rate is its transition's rate constant times the
    edge's factor; an immediate edge's probability is its transition's
    weight over the sum of the weights out of its source, summed in
    branch order.  ``graph`` may have been explored from any net with
    the same places, arcs, guards, priorities and rate places as the
    one the constants belong to: exploration depends on rate constants
    and weights only through their being positive and finite, which
    ``Net.add_timed`` and ``Net.add_immediate`` enforce.  A caller that
    passes constants without building a net must check that itself.
    """
    timed, immediate = graph.timed, graph.immediate
    weights = [constants[k] * f for k, f in zip(immediate.transition, immediate.factor)]
    totals = [0.0] * len(graph.vanishing)
    for i, w in zip(immediate.source, weights):
        totals[i] += w
    return ReachabilityGraph(
        graph.tangible, graph.vanishing,
        timed._replace(value=[constants[k] * f for k, f in zip(timed.transition, timed.factor)]),
        immediate._replace(value=[w / totals[i] for i, w in zip(immediate.source, weights)]),
        graph.chain)


def eliminate_vanishing(graph: ReachabilityGraph) -> sp.csr_matrix:
    """The CTMC generator Q over the tangible markings, with the
    vanishing markings eliminated.

    Q is a sparse matrix with zero row sums.  The edge lists split by
    target kind into timed rates R_TT and R_TV out of tangible markings
    and branching probabilities P_VV and P_VT out of vanishing ones.  The
    off-diagonal part of Q is

        R = R_TT + R_TV B,   B = (I - P_VV)^(-1) P_VT,

    where row j of B holds the probabilities of being absorbed in each
    tangible marking from vanishing marking j.  Its diagonal is minus
    each row's sum, so a self-loop cancels against its own diagonal
    entry; entries that come out zero are dropped.  The solve does not
    go through Q (see ``solve_graph``); this is the plain reference for
    the chain the solve keeps.

    Raises TimelessTrap when some vanishing marking cannot reach any
    tangible marking.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    if graph.chain.trapped:
        raise TimelessTrap(graph.chain.trapped)
    nt, nv = len(graph.tangible), len(graph.vanishing)

    def block(edges, into_vanishing, shape):
        pick = np.array(edges.into_vanishing, dtype=bool) == into_vanishing
        return sp.csr_matrix((np.array(edges.value, dtype=float)[pick],
                              (np.array(edges.source, dtype=np.intp)[pick],
                               np.array(edges.target, dtype=np.intp)[pick])), shape=shape)

    r = block(graph.timed, False, (nt, nt))
    if nv:
        i_minus_p_vv = sp.identity(nv, format="csc") - block(graph.immediate, True, (nv, nv))
        b = splu(sp.csc_matrix(i_minus_p_vv)).solve(
            block(graph.immediate, False, (nv, nt)).toarray())
        r = r + block(graph.timed, True, (nt, nv)) @ sp.csr_matrix(b)
    q = sp.csr_matrix(r - sp.diags(np.asarray(r.sum(axis=1)).ravel()))
    q.eliminate_zeros()
    return q


@dataclass
class SteadyStateSolution:
    states: list  # tangible markings
    pi: list
    residual: float

    def probability(self, predicate) -> float:
        """Total stationary probability of markings satisfying a predicate."""
        return float(sum(p for m, p in zip(self.states, self.pi) if predicate(m)))


def steady_state(q: sp.spmatrix, states=None) -> SteadyStateSolution:
    """Solve pi Q = 0, sum(pi) = 1 for a CTMC generator Q: the triplets of
    Q as a ``Chain`` with no vanishing states, and one solve
    (``_solve_pinned``).

    Requires a single closed communicating class covering all states
    (checked via strong connectivity of the sparsity pattern).
    """
    n = q.shape[0]
    q = q.tocoo()
    chain = Chain.over(q.row.tolist(), q.col.tolist(), n, n)
    return _solve_pinned(chain, q.data.tolist(), list(range(n)) if states is None else states)


def solve_graph(graph: ReachabilityGraph) -> SteadyStateSolution:
    """The steady state over ``graph.tangible``, from the chain that keeps
    the vanishing markings (``Chain``) and one solve.

    The exit rate s of every kept vanishing marking is the largest total
    timed rate out of any tangible marking, so every row of G has the
    scale of the timed rates and the relative residual keeps its
    meaning.  Raises TimelessTrap when some vanishing marking cannot
    reach any tangible marking.
    """
    if graph.chain.trapped:
        raise TimelessTrap(graph.chain.trapped)
    return _solve_pinned(graph.chain, _chain_data(graph), graph.tangible)


def _chain_data(graph: ReachabilityGraph) -> list:
    """The value of each triplet of G (``graph.chain``), in
    ``solve_graph``'s terms."""
    chain, timed = graph.chain, graph.timed
    totals = [0.0] * len(graph.tangible)
    for i, rate in zip(timed.source, timed.value):
        totals[i] += rate
    exit_rate = max(totals, default=0.0)
    probability = graph.immediate.value
    data = timed.value + [exit_rate * probability[e] for e in chain.kept]
    diagonal = [0.0] * chain.n
    for i, value in zip(chain.rows, data):  # the off-diagonal triplets
        diagonal[i] -= value
    return data + diagonal


def _solve_pinned(chain: Chain, data: list, states: list) -> SteadyStateSolution:
    """pi over the states of a generator G whose triplets ``chain`` holds
    and ``data`` gives values; the returned pi is its part over the first
    len(states) (tangible) states, renormalised.

    A chain whose state reduction takes at most ``GTH_UPDATES`` updates
    (``chain.plan`` is not None) is solved by it (``_gth_kernel``), in
    plain Python, a larger one by scipy's sparse LU (``_sparse_kernel``).
    The numeric phase of the reduction costs about 0.1 us per update,
    and its symbolic phase, once per chain, 0.2-0.5 us per update (about
    3 us per state on a birth-death chain); the sparse LU costs about
    0.2 ms per solve plus what its fill needs.  Measured single-threaded
    on a 2-vCPU VM, the numeric phase breaks even with the sparse LU near
    5 000 updates on the flat network SRN of the bundled model (54
    states, 4 443 updates: 0.34 ms against 0.36 ms; 81 states, 11 307
    updates: 1.5 ms against 0.56 ms), and later on chains with less fill
    (two birth-death pools, 15 513 updates: 1.6 ms against 2.1 ms).  The
    budget is the lower crossover.  Below it a new chain pays at most a
    few ms for its symbolic phase, far less than importing scipy, and a
    re-rated one (``availability.aggregate_rates``) nothing.  The server
    nets take 104 updates, and a birth-death chain of n states n - 1.

    Whichever kernel solves, the singular verdict is this one: the
    reduction meets an exit rate that is not positive, the sparse LU an
    exactly singular matrix, or state 0's entry lies beyond double range
    relative to the largest one: max(x) is not finite or x[0] < tiny *
    max(x), with tiny the smallest normal double (a pool that starts in
    a marking of pi near 1e-600); a net should therefore not start in
    such a marking.  Both kernels find every entry to a small relative
    error: the reduction because it never subtracts, the sparse LU
    because it pins the most probable state.

    The reported residual is max|pi G| / ||G||_inf, over G's entries with
    duplicate triplets summed, so the tolerance does not depend on the
    scale of the rates.  SrnError, naming the stage and the state count,
    is raised when the system is singular or the solution is not
    finite, has a residual above ``RESIDUAL_TOLERANCE`` or has an entry
    below ``-RESIDUAL_TOLERANCE``; ReducibleChain when G's pattern is not
    strongly connected.
    """
    nt, n = len(states), chain.n
    if nt == 1:
        return SteadyStateSolution(states, [1.0], 0.0)
    if chain.components:
        groups = chain.components
        raise ReducibleChain(
            f"chain is reducible into {len(groups)} strongly connected components: {groups}"
        )
    where = f"{nt} tangible states" if n == nt else \
        f"{nt} tangible and {n - nt} vanishing states"
    g = data
    if len(chain.pairs) < len(data):  # G's entries, duplicate triplets summed in order
        g = [0.0] * len(chain.pairs)
        for e, value in zip(chain.entry, data):
            g[e] += value
    x = (_sparse_kernel if chain.plan is None else _gth_kernel)(chain, g)
    top = math.nan if x is None else max(x)
    if not math.isfinite(top) or x[0] < sys.float_info.min * top:  # the smallest normal double
        raise SrnError(f"steady-state solve failed at {where}: the pinned system is singular")
    total = sum(x)
    if not 0 < total < math.inf:  # pi = x / total would not be finite
        raise SrnError(f"steady-state solve failed at {where}: non-finite solution")
    y, norm = [0.0] * n, [0.0] * n  # x G and G's absolute row sums
    for (i, j), value in zip(chain.pairs, g):
        y[j] += x[i] * value
        norm[i] += abs(value)
    residual = max(map(abs, y)) / (total * max(norm))  # of pi
    if not math.isfinite(residual):
        raise SrnError(f"steady-state solve failed at {where}: non-finite solution")
    if residual > RESIDUAL_TOLERANCE or min(x) < -RESIDUAL_TOLERANCE * total:
        raise SrnError(f"steady-state solve failed at {where}: "
                       f"relative residual {residual:g}")
    pi = [v if v > 0.0 else 0.0 for v in x[:nt]]
    total = sum(pi)
    return SteadyStateSolution(states, [p / total for p in pi], residual)


def _gth_kernel(chain: Chain, g: list) -> list | None:
    """x with x[0] = 1 and (x G)_j = 0 for every j != 0, or None when an
    exit rate comes out not positive: Grassmann, Taksar and Heyman's
    state reduction ("Regenerative analysis and steady state
    distributions for Markov chains", Oper. Res. 33(5), 1985), the
    numeric phase of ``chain.plan`` over G's entries g.

    Each state k in turn, in the plan's order, leaves the chain: with s
    the sum of its rates a_kj to the states that remain, each
    predecessor i takes f = a_ik / s, kept in a_ik's slot, and
    a_ij += f a_kj for each such j.  Then x_0 = 1 and, in reverse order,
    x_k = sum_i x_i f_ik.  Only positive terms are ever added, so each
    entry of x is found to a small relative error (O'Cinneide, Numer.
    Math. 65, 1993).  The diagonal is never read."""
    plan = chain.plan
    a = g + [0.0] * plan.fill
    for out, preds in plan.steps:
        s = 0.0
        for q in out:
            s += a[q]
        if not s > 0:
            return None
        for p, targets in preds:
            f = a[p] = a[p] / s
            for t, q in targets:
                a[t] += f * a[q]
    x = [0.0] * chain.n
    x[0] = 1.0
    for k, i, p in plan.back:
        x[k] += x[i] * a[p]
    return x


def _sparse_kernel(chain: Chain, g: list) -> list | None:
    """x with (x G)_j = 0 for every j != k and x[k] = 1, or None when the
    system is exactly singular, from scipy's sparse LU of A = G^T with
    G's column k (A's row k) replaced by e_k: the entries of that column
    are left out and one for e_k leads them, so A stays as sparse as G (a
    dense row of ones would fill the LU factors).

    k is state 0 first and, if another state's entry comes out larger in
    magnitude, that state, solved again, so every probability is found
    relative to the largest one: on a pool whose initial marking has pi
    near 1e-48, every entry is within 1e-11 of its exact value,
    relatively."""
    import warnings

    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    n = chain.n
    rows, cols = (np.array(index, dtype=np.intp) for index in zip(*chain.pairs))
    data = np.array(g)

    def solve(k: int):
        keep = cols != k
        a = sp.csc_matrix((np.append(1.0, data[keep]),
                           (np.append(k, cols[keep]), np.append(k, rows[keep]))),
                          shape=(n, n))
        b = np.zeros(n)
        b[k] = 1.0
        return np.asarray(spsolve(a, b)).ravel()

    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            x = solve(0)
            # when state 0 is rare, x is pi times any factor, even a negative one
            top = int(abs(x).argmax())
            if top:
                x = solve(top)
        except MatrixRankWarning:
            return None
    return x.tolist()


def solve(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> SteadyStateSolution:
    """Reachability and the steady state of its chain, in one call."""
    return solve_graph(reachability(net, state_cap=state_cap))


def expected_reward(solution: SteadyStateSolution, reward) -> float:
    """Expected steady-state reward rate: sum over states of pi(s)*r(s)."""
    return float(sum(p * reward(m) for m, p in zip(solution.states, solution.pi)))
