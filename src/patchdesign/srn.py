"""Stochastic reward net engine.

Nets have exponentially timed transitions (optionally with a
marking-dependent rate ``const * #place``), immediate transitions with
weights and priorities, and boolean guards over markings.  Analysis
follows the usual GSPN pipeline: breadth-first reachability, a
steady-state solve, expected reward.

``Net.branches`` is the one step rule: it decides whether a marking is
vanishing or tangible and which transitions may fire from it, with what
weight or rate.  Both the explorer here and the discrete-event simulator
(``simulate.simulate_reward``) take their steps from it, split them
(``_split``) and find timeless traps (``_exits``) alike.

Exploration is structural: the reachability graph keeps each edge as
indices (source, target, firing transition) and a rate factor, and its
``Chain`` fixes the state numbering, G's pattern, the class of state 0
and the state reduction's plan; it stores no value.  Each solve is
given constants, ordered as ``Net.constants``, which ``_edge_values``
turns into edge rates and weights.  Exploration sees them only
through their being positive, so one graph serves every net that
differs from its own only in them.

The steady state keeps vanishing markings in the chain rather than
eliminating them (Ciardo, Muppala and Trivedi, "On the solution of GSPN
reward models", Performance Evaluation 12(4), 1991), but only those that
need it.  A vanishing marking whose zero-time paths all end in one
tangible marking, its exit (``_exits``), is left for that marking with
probability 1 whatever its weights, so every edge into it goes straight
to its exit and its weights never enter the chain.  Each other vanishing
marking that a tangible one reaches, with several exits or none (a
trap), becomes a state whose exit rate is the largest total timed rate
out of any tangible marking, split by its branching probabilities.  The
time spent in those states is a fiction, but censoring the chain on the
tangible markings gives back the reduced CTMC exactly, so the tangible
part of its stationary vector, renormalised, is the net's steady state.

Two kernels solve the chain.  Grassmann, Taksar and Heyman's state
reduction (GTH, ``_gth_kernel``) removes one state at a time with no
subtraction, so every probability, however rare, comes out to a small
relative error; it runs in plain Python.  Its symbolic phase
(``_plan``) picks the elimination order and the slot of every update
once per chain; every solve of a graph pays only the numeric phase.  A
chain whose symbolic phase would pass ``GTH_UPDATES`` updates goes to
scipy's sparse LU instead (``_sparse_kernel``, W. J. Stewart,
"Introduction to the Numerical Solution of Markov Chains", 1994, ch. 2),
which pins state 0 and, if another state is more probable, that one.
``_solve_pinned`` gives the measured crossover, and it raises the solve's
verdicts, for both kernels, each naming the stage and state count, but
one: ``solve_graph`` refuses an infinite rate, naming its transition.

A solve runs in the number type of its constants (``solve_graph``):
float constants give the float solve, bit for bit, and ``Fraction``
constants the exact steady state.  The sparse LU takes floats only.

``eliminate_vanishing`` keeps the reduced generator as the plain
reference, and ``steady_state`` solves it as a chain with no vanishing
states.

The graph, the chain and the steady state are plain lists, so a chain
the state reduction solves, every server net among them, needs neither
numpy nor scipy, and nor does a verdict reached before a kernel runs.
Both are imported only by the sparse kernel and by the reference
``eliminate_vanishing``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import NamedTuple

from .guards import TRUE, check_places
from .model import SrnError, _closure

DEFAULT_STATE_CAP = 1_000_000
RESIDUAL_TOLERANCE = 1e-10  # the steady-state solve's bound on its relative residual
GTH_UPDATES = 5_000  # the most updates of a chain the state reduction solves
_RESCALE = 2.0 ** 600  # the back pass scales x down by this once an entry passes it


class StateCapExceeded(SrnError):
    pass


class TimelessTrap(SrnError):
    """A set of vanishing markings with no path to any tangible marking."""

    def __init__(self, failed: str, markings):
        self.markings = markings
        super().__init__(f"{failed}: timeless trap among vanishing markings: "
                         + "; ".join(map(str, markings)))


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
        self._add(name, inputs, outputs, guard, rate=rate)

    def add_immediate(self, name, inputs, outputs, guard=TRUE, weight=1.0, priority=0):
        self._add(name, inputs, outputs, guard, priority, weight=float(weight))

    def _add(self, name, inputs, outputs, guard, priority=0, kept=True, **kind) -> None:
        """Append a transition or, unless ``kept``, only take its name.  It
        is refused if its name is taken, by a kept transition or not, if
        it reads a place, by an arc, its guard or its rate, that is not
        declared, or, when kept, if its rate constant or weight is not
        positive and finite."""
        if name in self._names:
            raise ValueError(f"duplicate transition {name!r}")
        t = Transition(name, _arcs(name, inputs), _arcs(name, outputs), guard,
                       priority=int(priority), **kind)
        places = t.guard.places().union(p for p, _ in t.inputs + t.outputs)
        if t.timed and t.rate.place is not None:
            places.add(t.rate.place)
        check_places(f"transition {name!r}", places, self._places)
        what, constant = ("rate constant", t.rate.constant) if t.timed else ("weight", t.weight)
        if kept and not 0 < constant < math.inf:
            raise ValueError(f"transition {name!r}: {what} must be positive "
                             f"and finite, got {constant!r}")
        self._names.add(name)
        if kept:
            self.transitions.append(t)

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


class Plan(NamedTuple):
    """The symbolic phase of the state reduction (``_plan``): what its
    numeric phase (``_gth_kernel``) does, slot by slot.  Slots below
    ``len(Chain.pairs)`` hold G's entries, in that order, and ``fill``
    more hold the entries that elimination creates."""

    # per eliminated state k, in order: (the slots of a_kj for the states
    # j that remain, [(slot of a_ik, [(slot of a_ij, slot of a_kj), ...])
    # for each predecessor i that remains])
    steps: list
    back: list     # (k, [(i, slot of a_ik), ...]) in back-substitution order
    fill: int
    updates: int   # (predecessor, successor) pairs over the eliminated states


class Chain(NamedTuple):
    """The continuous-time chain of a reachability graph, with some of its
    vanishing markings kept as states: the one structure a steady-state
    solve takes.  It depends on the graph's structure only, so every
    solve of the graph shares it, whatever constants it is given.

    The states are the tangible markings, in the order of
    ``graph.tangible``, then the vanishing markings that a tangible one
    reaches and that have more than one exit or none (are trapped), in
    their order.  An edge into a vanishing marking with one exit
    (``_exits``) enters its exit instead; any other vanishing marking is
    only passed on the way from the initial marking, and holds no
    steady-state probability.
    The generator G holds each timed edge out of a tangible marking at
    its rate and each immediate edge out of a kept vanishing marking at
    its probability times one exit rate s; its diagonal is minus each
    row's sum, so a self-loop, which a timed edge into a marking whose
    exit is its source also makes, cancels against its own diagonal entry.
    G's triplets come in that order, the diagonal last; ``pairs`` holds
    G's distinct (row, column) entries, and ``entry`` the entry of each
    triplet, so ``solve_graph`` sums duplicate triplets in triplet
    order.  ``plan`` is the state reduction's symbolic phase, or None
    when it would take more than ``GTH_UPDATES`` updates, and then the
    sparse LU solves the chain.
    """

    trapped: list     # vanishing markings with no path to a tangible one
    kept: list        # (edge, row) of each immediate edge out of a kept vanishing marking
    n: int
    outside: list | None  # ``_outside`` of G's pattern: None when it is strongly connected
    pairs: list       # G's distinct (row, column) entries
    entry: list       # the index in ``pairs`` of each triplet
    plan: Plan | None

    @classmethod
    def of(cls, vanishing: list, timed: Edges, immediate: Edges, nt: int) -> Chain:
        nv, into_v = len(vanishing), immediate.into_vanishing
        exits = _exits(nv, immediate)
        trapped = [m for m, e in zip(vanishing, exits) if e is None]
        # the column of the edges into each vanishing marking: its exit; or,
        # if it has several or none, its own state when a tangible marking
        # reaches it, and -1 when none does
        state, n = [_MANY if e is None else e for e in exits], nt
        if _MANY in state:
            inner = [(i, j) for i, j, v in zip(immediate.source, immediate.target, into_v) if v]
            reached = _closure(nv, [i for i, _ in inner], [j for _, j in inner],
                               [j for j, v in zip(timed.target, timed.into_vanishing) if v])
            for v in range(nv):
                if state[v] == _MANY and reached[v]:
                    state[v], n = n, n + 1

        def columns(edges):
            return [state[j] if v else j for j, v in zip(edges.target, edges.into_vanishing)]

        kept = [(e, state[i]) for e, i in enumerate(immediate.source) if state[i] >= nt]
        into = columns(immediate)
        diagonal = list(range(n))
        rows = timed.source + [i for _, i in kept] + diagonal
        cols = columns(timed) + [into[e] for e, _ in kept] + diagonal
        return cls.over(rows, cols, n, nt, kept=kept, trapped=trapped)

    @classmethod
    def over(cls, rows: list, cols: list, n: int, nt: int, kept=(), trapped=()) -> Chain:
        """The chain of G's triplets (rows, cols) over n states, the first
        nt of them tangible."""
        index = {}
        entry = [index.setdefault(pair, len(index)) for pair in zip(rows, cols)]
        pairs = list(index)
        return cls(list(trapped), list(kept), n, _outside(rows, cols, n, nt), pairs, entry,
                   _plan(pairs, n))


_MANY = -1  # the exit of a vanishing marking whose zero-time paths end in several


def _exits(nv: int, immediate) -> list:
    """The exit of each of nv vanishing markings, given their immediate
    edges' source, target and into_vanishing (as an ``Edges`` or alone):
    the index of the one tangible marking in which every zero-time path
    from it ends, _MANY if they end in several, or None if in none (it
    is trapped).

    One backward worklist pass over the immediate edges: an edge into a
    tangible marking seeds its source, and a marking whose exit changes
    passes it to the sources of the edges into it.  An exit changes at
    most twice (None, then one, then _MANY), so the pass is linear in the
    edges."""
    exits, into, work = [None] * nv, [[] for _ in range(nv)], []

    def meet(i, e):
        if exits[i] != e and exits[i] != _MANY:
            exits[i] = e if exits[i] is None else _MANY
            work.append(i)

    for i, j, v in zip(*immediate[:3]):
        if v:
            into[j].append(i)
        else:
            meet(i, j)
    while work:
        j = work.pop()
        for i in into[j]:
            meet(i, exits[j])
    return exits


def _outside(rows, cols, n: int, nt: int) -> list | None:
    """None when walks forward and backward from state 0 (``_closure``)
    reach all n states of the pattern (rows, cols), else (state, reached)
    for each tangible state (of the first nt) outside state 0's class:
    reached is whether state 0 reaches it, so that it cannot return."""
    origin = [0] if n else []  # none in an empty chain
    forward, backward = _closure(n, rows, cols, origin), _closure(n, cols, rows, origin)
    if all(forward) and all(backward):
        return None
    return [(i, forward[i]) for i in range(nt) if not (forward[i] and backward[i])]


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
        for j in out:
            del pred[j][k]
        steps.append((list(out.values()), preds))
        back.append((k, list(reversed(pred[k].items()))))
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
    names: list = field(repr=False)  # of the transitions, as the edges index them


def reachability(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> ReachabilityGraph:
    """Explore the reachable markings of a net breadth-first.

    ``Net.branches`` classifies each new marking once and yields its
    out-edges.  Each edge keeps the index of the transition that fires
    and its rate factor, and no value: a solve values the edges from the
    constants it is given (``_edge_values``).  Exploration stops with
    StateCapExceeded after ``state_cap`` markings, which is what ends it
    on an unbounded net; a ``state_cap`` below 1 raises ValueError.
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
            raise StateCapExceeded(f"reachability failed: more than {state_cap} markings")
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
    return ReachabilityGraph(markings[False], markings[True], timed, immediate, chain,
                             [t.name for t in net.transitions])


def _edges(edges: list) -> Edges:
    columns = [list(column) for column in zip(*edges)] or [[] for _ in range(5)]
    return Edges(*columns)


def _edge_values(edges: Edges, constants) -> list:
    """Each edge's value, a timed one's rate or an immediate one's
    weight: its factor times its transition's constant in ``constants``,
    ordered as ``Net.constants``.  The edges may come from any net with
    the same places, arcs, guards, priorities and rate places as the
    constants' own: exploration sees rate constants and weights only
    through their being positive and finite, which ``Net.add_timed`` and
    ``Net.add_immediate`` enforce; a caller that passes constants
    without building a net must check that itself."""
    return [constants[k] * f for k, f in zip(edges.transition, edges.factor)]


def _probabilities(immediate: Edges, constants) -> list:
    """Each immediate edge's weight (``_edge_values``) over the sum of
    those out of its source (``_split``)."""
    probabilities = []
    for _, run in groupby(zip(immediate.source, _edge_values(immediate, constants)),
                          lambda edge: edge[0]):
        weights = [w for _, w in run]
        scale, sums = _split(weights)
        probabilities += [w / scale / sums[-1] for w in weights]
    return probabilities


def _split(values: list) -> tuple[float, list]:
    """(scale, sums): the running sums, in branch order, of one marking's
    branch values divided by scale, which is 1.0, or their largest when
    their sum passes float range and it does not."""
    sums, largest = list(accumulate(values)), max(values, default=0.0)
    if sums and sums[-1] == math.inf and largest < math.inf:
        return largest, list(accumulate(v / largest for v in values))
    return type(largest)(1), sums


def eliminate_vanishing(graph: ReachabilityGraph, constants):
    """The CTMC generator Q over the tangible markings, with the
    vanishing markings eliminated, under ``constants`` (``_edge_values``).

    Q is a scipy sparse CSR matrix with zero row sums.  The edge values split by
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

    nt, nv = len(graph.tangible), len(graph.vanishing)
    if graph.chain.trapped:
        raise TimelessTrap(_failed(nt, graph.chain.n), graph.chain.trapped)
    rates = _edge_values(graph.timed, constants)
    probabilities = _probabilities(graph.immediate, constants)

    def block(edges, values, into_vanishing, shape):
        pick = np.array(edges.into_vanishing, dtype=bool) == into_vanishing
        return sp.csr_matrix((np.array(values, dtype=float)[pick],
                              (np.array(edges.source, dtype=np.intp)[pick],
                               np.array(edges.target, dtype=np.intp)[pick])), shape=shape)

    r = block(graph.timed, rates, False, (nt, nt))
    if nv:
        p_vv = block(graph.immediate, probabilities, True, (nv, nv))
        b = splu(sp.csc_matrix(sp.identity(nv, format="csc") - p_vv)).solve(
            block(graph.immediate, probabilities, False, (nv, nt)).toarray())
        r = r + block(graph.timed, rates, True, (nt, nv)) @ sp.csr_matrix(b)
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


def steady_state(q, states=None) -> SteadyStateSolution:
    """Solve pi Q = 0, sum(pi) = 1 for a CTMC generator Q, a scipy sparse
    matrix whose pattern is strongly connected: its entries, duplicates
    summed by scipy, as a ``Chain`` with no vanishing states, and one
    solve (``_solve_pinned``)."""
    n = q.shape[0]
    q = q.tocoo(copy=True)
    q.sum_duplicates()
    chain = Chain.over(q.row.tolist(), q.col.tolist(), n, n)
    return _solve_pinned(chain, q.data.tolist(), list(range(n)) if states is None else states)


def solve_graph(graph: ReachabilityGraph, constants) -> SteadyStateSolution:
    """The steady state over ``graph.tangible`` under ``constants``, from
    the chain that keeps the vanishing markings with several exits or
    none (``Chain``) and one solve (``_solve_pinned``).  Immediate edges
    are valued (``_probabilities``) only when the chain keeps one.  If a
    tangible marking's rates sum past float range, every rate is halved
    until none does: exactly, so pi keeps its bits.  An infinite rate, a
    rate constant times its place's tokens past float range, is refused
    in a verdict that names its transition and marking.

    pi and the residual are of the number type of ``constants``: any
    type closed under ``+ - * /`` and ordered, whose zero is ``type()``
    and whose value of a float x is ``type(x)``, such as ``float``, or
    ``fractions.Fraction``, in which pi is exact.  A chain past
    ``GTH_UPDATES`` takes floats only.

    The exit rate s of every kept vanishing marking is the largest total
    timed rate out of any tangible marking, so every row of G has the
    scale of the timed rates and the relative residual keeps its
    meaning.  A tangible row's diagonal is minus its total, and a kept
    vanishing row's is its entries subtracted in turn from 0.  Duplicate
    triplets are summed here, in triplet order, so the solve gets G's
    entries.
    """
    chain, nt = graph.chain, len(graph.tangible)
    zero = type(constants[0])() if constants else 0.0
    rates = _edge_values(graph.timed, constants)
    while True:
        totals = [zero] * nt
        for i, rate in zip(graph.timed.source, rates):
            totals[i] += rate
        if math.inf not in totals:
            break
        if math.inf in rates:
            e = rates.index(math.inf)
            raise SrnError(f"{_failed(nt, chain.n)}: transition "
                           f"{graph.names[graph.timed.transition[e]]!r} has an infinite "
                           f"rate in {graph.tangible[graph.timed.source[e]]}")
        rates = [rate / 2 for rate in rates]
    exit_rate = max(totals, default=zero)
    probabilities = _probabilities(graph.immediate, constants) if chain.kept else []
    kept = [exit_rate * probabilities[e] for e, _ in chain.kept]
    diagonal = [-total for total in totals] + [zero] * (chain.n - nt)
    for (_, i), value in zip(chain.kept, kept):
        diagonal[i] -= value
    g = rates + kept + diagonal  # the value of each triplet
    if len(chain.pairs) < len(g):
        g, values = [zero] * len(chain.pairs), g
        for e, value in zip(chain.entry, values):
            g[e] += value
    return _solve_pinned(chain, g, graph.tangible)


def _solve_pinned(chain: Chain, g: list, states: list) -> SteadyStateSolution:
    """pi over the states of a generator G whose entries ``chain.pairs``
    holds and ``g`` gives values, in that order; the returned pi is its
    part over the first len(states) (tangible) states, renormalised.

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
    stored one (``availability.aggregate_rates``) nothing.  The stock
    server net takes 69 updates, and a birth-death chain of n states n - 1.

    Both kernels find every entry to a small relative error: the
    reduction because it never subtracts, the sparse LU because it pins
    the most probable state.  The reduction rescales x, so a net may
    start in a marking of any probability; the sparse LU pins state 0
    first, so to it a start too rare for a double is singular.

    Every verdict but ``solve_graph``'s infinite rate is raised here, one
    line naming the stage and the state count (``_failed``): TimelessTrap
    (``Chain.trapped``), ReducibleChain with the first tangible state
    outside the class of state 0 (``Chain.outside``), and SrnError when
    the sparse LU is given numbers that are not floats, when the system
    is singular (a reduction's exit rate that is not positive, an exactly
    singular LU, an x that is not finite) or when the solution is not
    finite, has a residual above ``RESIDUAL_TOLERANCE`` or an entry below
    ``-RESIDUAL_TOLERANCE``.  The residual is max|pi G| / ||G||_inf, over
    G's entries with duplicate triplets summed, so the tolerance does not
    depend on the scale of the rates.  pi and the residual are of the
    type of g's entries.
    """
    nt, n = len(states), chain.n
    failed = _failed(nt, n)
    number = type(g[0]) if g else float
    if chain.trapped:
        raise TimelessTrap(failed, chain.trapped)
    if nt == 1:
        return SteadyStateSolution(states, [number(1)], number())
    if chain.outside is not None:
        (k, reached), count = chain.outside[0], len(chain.outside)
        first = f"the first, {states[k]}, cannot return to it" if reached else \
            f"it cannot reach the first, {states[k]}"
        raise ReducibleChain(f"{failed}: reducible chain: {count} tangible state"
                             f"{'s' * (count > 1)} outside the class of {states[0]}; {first}")
    if chain.plan is None and not all(isinstance(v, (int, float)) for v in g):
        raise SrnError(f"{failed}: the sparse LU, past {GTH_UPDATES} updates, "
                       "takes float constants only")
    x = (_sparse_kernel if chain.plan is None else _gth_kernel)(chain, g)
    if x is None or not -math.inf < max(x) < math.inf:  # math.isfinite takes a float of it
        raise SrnError(f"{failed}: the pinned system is singular")
    total = sum(x)
    if not 0 < total < math.inf:  # pi = x / total would not be finite
        raise SrnError(f"{failed}: non-finite solution")
    zero = number()
    y, norm = [zero] * n, [zero] * n  # x G and G's absolute row sums
    for (i, j), value in zip(chain.pairs, g):
        y[j] += x[i] * value
        norm[i] += abs(value)
    residual = max(map(abs, y)) / (total * max(norm))  # of pi
    if not residual < math.inf:
        raise SrnError(f"{failed}: non-finite solution")
    if residual > RESIDUAL_TOLERANCE:
        raise SrnError(f"{failed}: relative residual {float(residual):g}")
    low = min(x)
    if low < -total * number(RESIDUAL_TOLERANCE):  # no float of total, which may overflow
        raise SrnError(f"{failed}: negative entry at state {x.index(low)}: "
                       f"{float(low / total):g}")
    pi = [v if v > zero else zero for v in x[:nt]]
    total = sum(pi)
    return SteadyStateSolution(states, [p / total for p in pi], residual)


def _failed(nt: int, n: int) -> str:
    """The head of every steady-state verdict: the stage, and the count
    of the chain's n states, the first nt of them tangible."""
    vanishing = f" and {n - nt} vanishing" if n > nt else ""
    return f"steady-state solve failed at {nt} tangible{vanishing} states"


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
    Math. 65, 1993).  The diagonal is never read.  An x_k above
    ``_RESCALE`` scales x down by it, an exact power of two, so x stays in
    range however rare state 0 is; an entry too small beside it comes out 0.

    Its zero, one and rescale factor are of the type of g's entries: a
    float among ``Fraction``s would make x float, and an int among floats
    slows a stored solve by a fifth."""
    plan, number = chain.plan, type(g[0])
    zero, rescale = number(), number(_RESCALE)
    a = g + [zero] * plan.fill
    for out, preds in plan.steps:
        s = zero
        for q in out:
            s += a[q]
        if not s > zero:
            return None
        for p, targets in preds:
            f = a[p] = a[p] / s
            for t, q in targets:
                a[t] += f * a[q]
    x = [zero] * chain.n
    x[0] = number(1)
    for k, terms in plan.back:
        v = zero
        for i, p in terms:
            v += x[i] * a[p]
        if v > rescale:
            x = [e / rescale for e in x]
            v /= rescale
        x[k] = v
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
    return solve_graph(reachability(net, state_cap=state_cap), net.constants())


def expected_reward(solution: SteadyStateSolution, reward) -> float:
    """Expected steady-state reward rate: sum over states of pi(s)*r(s)."""
    return float(sum(p * reward(m) for m, p in zip(solution.states, solution.pi)))
