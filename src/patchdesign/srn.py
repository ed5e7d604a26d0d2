"""Stochastic reward net engine.

Nets have exponentially timed transitions (optionally with a
marking-dependent rate ``const * #place``), immediate transitions with
weights and priorities, and boolean guards over markings.  Analysis
follows the usual GSPN pipeline: breadth-first reachability, a sparse
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
is the net's steady state.  A pinned LU solves it (W. J. Stewart,
"Introduction to the Numerical Solution of Markov Chains", 1994, ch. 2):
numpy's dense LU for a chain of at most ``DENSE_STATES`` states, where
building and calling the sparse solver costs more than the arithmetic,
and scipy's sparse LU above that (``_solve_pinned`` gives the measured
crossover).  ``_solve_pinned`` pins for both: state 0 first and, if
another state is more probable, that one, so even the rarest states
come out to a small relative error.  It alone rules the system
singular: when a kernel's LU meets an exactly singular matrix, or when
state 0's probability is below tiny (the smallest normal double,
2.2e-308) times the largest one.

Exploration fixes what is structural in one record, ``Chain``: the
state numbering, the generator's (row, column) triplets, which
immediate edges stay in the chain, and the strong-connectivity verdict
of ``_components``, from walks forward and backward from state 0, which
every re-rated copy of a graph shares.  A solve gives each triplet its
value, and its kernel assembles its own matrix from them.
``eliminate_vanishing`` keeps the reduced generator as the plain
reference, and ``steady_state`` solves it as a chain with no vanishing
states.

numpy is imported inside the functions that explore, assemble and solve,
so building a net does not load it.  scipy is imported only for a chain
above ``DENSE_STATES`` states, for the components of a reducible chain,
and by the reference functions ``eliminate_vanishing`` and
``steady_state``, so the server nets and every chain of at most
``DENSE_STATES`` states solve without it.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .guards import TRUE, check_places

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

DEFAULT_STATE_CAP = 1_000_000
RESIDUAL_TOLERANCE = 1e-10  # the steady-state solve's bound on its relative residual
DENSE_STATES = 128  # the largest chain the steady-state solve factors densely


class SrnError(Exception):
    pass


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

    def __str__(self):
        if self.place is None:
            return f"{self.constant:g}"
        return f"{self.constant:g}*#{self.place}"


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

    def _check_transition(self, t: Transition) -> None:
        for p, _ in t.inputs + t.outputs:
            if p not in self._places:
                raise ValueError(f"transition {t.name!r} references unknown place {p!r}")
        check_places(t.guard, self._places)
        if t.rate is not None and t.rate.place is not None and t.rate.place not in self._places:
            raise ValueError(f"transition {t.name!r}: rate references unknown place")

    def add_timed(self, name, rate, inputs, outputs, guard=TRUE):
        if not isinstance(rate, RateExpr):
            rate = RateExpr(float(rate))
        if not 0 < rate.constant < math.inf:
            raise ValueError(f"transition {name!r}: rate constant must be positive "
                             f"and finite, got {rate.constant!r}")
        t = Transition(name, _arcs(name, inputs), _arcs(name, outputs), guard, rate=rate)
        self._check_transition(t)
        self.transitions.append(t)

    def add_immediate(self, name, inputs, outputs, guard=TRUE, weight=1.0, priority=0):
        weight = float(weight)
        if not 0 < weight < math.inf:
            raise ValueError(f"transition {name!r}: weight must be positive "
                             f"and finite, got {weight!r}")
        t = Transition(name, _arcs(name, inputs), _arcs(name, outputs), guard,
                       weight=weight, priority=int(priority))
        self._check_transition(t)
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
    """The out-edges of one kind of marking as flat arrays, in order of
    source marking and, within a source, in branch order."""

    source: np.ndarray          # index of the source marking
    target: np.ndarray          # index of the target among the markings of its kind
    into_vanishing: np.ndarray  # whether the target is vanishing
    transition: np.ndarray      # index of the firing transition in Net.transitions
    factor: np.ndarray          # tokens in the rate place, or 1 for a constant rate or weight
    value: np.ndarray | None = None  # rate of a timed edge, probability of an immediate one


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
    last.  pi G = 0 has rank n - 1; a pinned system replaces one
    equation by pi_k = 1.  Each kernel assembles G from the triplets and
    their values and sums duplicate triplets: ``_dense_kernel`` into a
    dense array, in triplet order, and ``_sparse_kernel`` into sparse
    matrices.
    """

    trapped: list       # vanishing markings with no path to a tangible one
    kept: np.ndarray    # indices of the immediate edges out of kept vanishing markings
    rows: np.ndarray    # the row of each triplet of G, the diagonal last
    cols: np.ndarray    # the column of each triplet of G
    n: int
    components: list    # ``_components`` of G's pattern

    @classmethod
    def of(cls, vanishing: list, timed: Edges, immediate: Edges, nt: int) -> Chain:
        import numpy as np

        nv, into_v = len(vanishing), immediate.into_vanishing
        v_source, v_target = immediate.source[into_v], immediate.target[into_v]
        escapes = _closure(nv, v_target, v_source, immediate.source[~into_v])
        reached = np.array(_closure(nv, v_source, v_target,
                                    timed.target[timed.into_vanishing]), dtype=bool)
        n = nt + np.count_nonzero(reached)
        state = np.full(nv, -1)
        state[reached] = np.arange(nt, n)

        def columns(edges):
            cols = edges.target.copy()
            cols[edges.into_vanishing] = state[edges.target[edges.into_vanishing]]
            return cols

        kept = np.flatnonzero(reached[immediate.source])
        diagonal = np.arange(n)
        rows = np.concatenate([timed.source, state[immediate.source[kept]], diagonal])
        cols = np.concatenate([columns(timed), columns(immediate)[kept], diagonal])
        return cls(trapped=[m for m, ok in zip(vanishing, escapes) if not ok], kept=kept,
                   rows=rows, cols=cols, n=n, components=_components(rows, cols, n, nt))


def _components(rows, cols, n: int, nt: int) -> list:
    """[] when the pattern (rows, cols) over n states is strongly
    connected, else the tangible states (the first nt) of each strongly
    connected component that has any.

    The pattern is strongly connected when state 0 reaches every state
    and every state reaches state 0 (``_closure`` forward and backward),
    which needs no scipy.  Only a chain found reducible goes to scipy's
    ``connected_components`` for its components."""
    import numpy as np

    origin = np.zeros(min(n, 1), dtype=np.intp)  # none in an empty chain
    if all(_closure(n, rows, cols, origin)) and all(_closure(n, cols, rows, origin)):
        return []
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(
        sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)),
        directed=True, connection="strong")
    groups = (np.nonzero(labels[:nt] == c)[0].tolist() for c in range(ncomp))
    return [group for group in groups if group]


def _closure(n: int, heads, tails, start) -> list:
    """Which of n nodes a walk from ``start`` along the edges
    heads[k] -> tails[k] reaches."""
    succ = [[] for _ in range(n)]
    for i, j in zip(heads.tolist(), tails.tolist()):
        succ[i].append(j)
    reached = [False] * n
    stack = start.tolist()
    while stack:
        i = stack.pop()
        if not reached[i]:
            reached[i] = True
            stack.extend(succ[i])
    return reached


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
    import numpy as np

    columns = np.array(edges, dtype=np.intp).reshape(len(edges), 5).T.copy()
    source, target, into_v, transition, factor = columns
    return Edges(source, target, into_v.astype(bool), transition, factor.astype(float))


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
    import numpy as np

    constants = np.asarray(constants, dtype=float)
    timed, immediate = graph.timed, graph.immediate
    weights = constants[immediate.transition] * immediate.factor
    totals = np.bincount(immediate.source, weights=weights, minlength=len(graph.vanishing))
    return ReachabilityGraph(
        graph.tangible, graph.vanishing,
        timed._replace(value=constants[timed.transition] * timed.factor),
        immediate._replace(value=weights / totals[immediate.source]), graph.chain)


def eliminate_vanishing(graph: ReachabilityGraph) -> sp.csr_matrix:
    """The CTMC generator Q over the tangible markings, with the
    vanishing markings eliminated.

    Q is a sparse matrix with zero row sums.  The edge arrays split by
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
        pick = edges.into_vanishing == into_vanishing
        return sp.csr_matrix((edges.value[pick], (edges.source[pick], edges.target[pick])),
                             shape=shape)

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
    pi: np.ndarray
    residual: float

    def probability(self, predicate) -> float:
        """Total stationary probability of markings satisfying a predicate."""
        return float(sum(p for m, p in zip(self.states, self.pi) if predicate(m)))


def steady_state(q: sp.spmatrix, states=None) -> SteadyStateSolution:
    """Solve pi Q = 0, sum(pi) = 1 for a CTMC generator Q: the triplets of
    Q as a ``Chain`` with no vanishing states, and one pinned solve
    (``_solve_pinned``).

    Requires a single closed communicating class covering all states
    (checked via strong connectivity of the sparsity pattern).
    """
    n = q.shape[0]
    q = q.tocoo()
    chain = Chain(trapped=[], kept=None, rows=q.row, cols=q.col, n=n,
                  components=_components(q.row, q.col, n, n))
    return _solve_pinned(chain, q.data, list(range(n)) if states is None else states)


def solve_graph(graph: ReachabilityGraph) -> SteadyStateSolution:
    """The steady state over ``graph.tangible``, from the chain that keeps
    the vanishing markings (``Chain``) and one pinned solve.

    The exit rate s of every kept vanishing marking is the largest total
    timed rate out of any tangible marking, so every row of G has the
    scale of the timed rates and the relative residual keeps its
    meaning.  Raises TimelessTrap when some vanishing marking cannot
    reach any tangible marking.
    """
    if graph.chain.trapped:
        raise TimelessTrap(graph.chain.trapped)
    return _solve_pinned(graph.chain, _chain_data(graph), graph.tangible)


def _chain_data(graph: ReachabilityGraph):
    """The value of each triplet of G (``graph.chain``), in
    ``solve_graph``'s terms, written in place into one array."""
    import numpy as np

    chain, timed = graph.chain, graph.timed
    rows, n = chain.rows, chain.n
    nt_edges, off = len(timed.value), len(rows) - n  # timed, all off-diagonal triplets
    data = np.empty(len(rows))
    data[:nt_edges] = timed.value
    exit_rate = np.bincount(timed.source, weights=timed.value,
                            minlength=len(graph.tangible)).max()
    np.multiply(exit_rate, graph.immediate.value[chain.kept], out=data[nt_edges:off])
    np.negative(np.bincount(rows[:off], weights=data[:off], minlength=n), out=data[off:])
    return data


def _solve_pinned(chain: Chain, data, states: list) -> SteadyStateSolution:
    """pi over the states of a generator G whose triplets ``chain`` holds
    and ``data`` gives values; the returned pi is its part over the first
    len(states) (tangible) states, renormalised.

    A chain of at most ``DENSE_STATES`` states is solved by numpy's dense
    LU (``_dense_kernel``), a larger one by scipy's sparse LU
    (``_sparse_kernel``).  The dense solve costs O(n^3) whatever the
    pattern, the sparse one a fixed overhead of about 0.15 ms plus what
    its fill needs.  Measured single-threaded on a 2-vCPU VM, the two
    break even between 96 and 128 states on a birth-death chain
    (tridiagonal, so the least fill) and between 225 and 320 states on
    the flat network SRN of the bundled model, where the dense solve is
    3-4 times faster up to 162 states.  The constant is the lower
    crossover.

    Whichever kernel solves, the pin rule and the singular verdict are
    these ones.  Any one state may be pinned in exact arithmetic; state
    0 is the initial marking, or the first tangible marking reached from
    it.  It is pinned first and, if another state's entry comes out
    larger in magnitude, that state is pinned and the system solved
    again, so every probability is found relative to the largest one: on
    a pool whose initial marking has pi near 1e-48, every entry is
    within 1e-11 of its exact value, relatively.  The pinned system is
    singular when a kernel's LU meets an exactly singular matrix (its
    LinAlgError) or when state 0's probability lies beyond double range
    relative to the largest one, pi[0] < tiny * max(pi) (near 1e-600 on
    such a pool); a net should therefore not start in such a marking.

    The reported residual is max|pi G| / ||G||_inf, so the tolerance
    does not depend on the scale of the rates.  SrnError, naming the
    stage and the state count, is raised when the pinned system is
    singular or the solution is not finite, has a residual above
    ``RESIDUAL_TOLERANCE`` or has an entry below ``-RESIDUAL_TOLERANCE``;
    ReducibleChain when G's pattern is not strongly connected.
    """
    import numpy as np

    nt, n = len(states), chain.n
    if nt == 1:
        return SteadyStateSolution(states, np.array([1.0]), 0.0)
    if chain.components:
        groups = chain.components
        raise ReducibleChain(
            f"chain is reducible into {len(groups)} strongly connected components: {groups}"
        )
    where = f"{nt} tangible states" if n == nt else \
        f"{nt} tangible and {n - nt} vanishing states"
    g, solve = (_dense_kernel if n <= DENSE_STATES else _sparse_kernel)(chain, data)
    try:
        x = solve(0)
        # when state 0 is rare, x is pi times any factor, even a negative one
        top = int(abs(x).argmax())
        if top:
            x = solve(top)
    except np.linalg.LinAlgError:
        x = None
    if x is None or x[0] < sys.float_info.min * x.max():  # the smallest normal double
        raise SrnError(f"steady-state solve failed at {where}: the pinned system is singular")
    pi = x / x.sum()
    residual = float(abs(pi @ g).max() / abs(g).sum(axis=1).max())
    if not (np.isfinite(pi).all() and math.isfinite(residual)):
        raise SrnError(f"steady-state solve failed at {where}: non-finite solution")
    if residual > RESIDUAL_TOLERANCE or pi.min() < -RESIDUAL_TOLERANCE:
        raise SrnError(f"steady-state solve failed at {where}: "
                       f"relative residual {residual:g}")
    pi = np.maximum(pi[:nt], 0.0)
    pi /= pi.sum()
    return SteadyStateSolution(states, pi, residual)


def _dense_kernel(chain: Chain, data):
    """(G as a dense array, solve) where solve(k) is x with x[k] = 1 and
    (x G)_j = 0 for every j != k, from numpy's dense LU with partial
    pivoting of G^T with its row k replaced by e_k; an exactly zero
    pivot raises numpy's LinAlgError."""
    import numpy as np

    rows, cols, n = chain.rows, chain.cols, chain.n
    flat = rows.astype(np.intp, copy=False) * n + cols  # scipy's rows may be int32
    g = np.bincount(flat, weights=data, minlength=n * n).reshape(n, n)

    def solve(k: int):
        a = g.T.copy(order="F")
        a[k] = 0.0
        a[k, k] = 1.0
        b = np.zeros(n)
        b[k] = 1.0
        return np.linalg.solve(a, b)

    return g, solve


def _sparse_kernel(chain: Chain, data):
    """(G as a CSR matrix, solve) where solve(k) is x with x[k] = 1 and
    (x G)_j = 0 for every j != k, from scipy's sparse LU of A = G^T with
    G's column k (A's row k) replaced by e_k: the triplets of that column
    are left out and one for e_k leads them, so A stays as sparse as G (a
    dense row of ones would fill the LU factors).  An exactly singular A
    raises numpy's LinAlgError, as in ``_dense_kernel``."""
    import warnings

    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    rows, cols, n = chain.rows, chain.cols, chain.n

    def solve(k: int):
        keep = cols != k
        a = sp.csc_matrix((np.append(1.0, data[keep]),
                           (np.append(k, cols[keep]), np.append(k, rows[keep]))),
                          shape=(n, n))
        b = np.zeros(n)
        b[k] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            try:
                return np.asarray(spsolve(a, b)).ravel()
            except MatrixRankWarning as e:
                raise np.linalg.LinAlgError(str(e)) from None

    return sp.csr_matrix((data, (rows, cols)), shape=(n, n)), solve


def solve(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> SteadyStateSolution:
    """Reachability and the steady state of its chain, in one call."""
    return solve_graph(reachability(net, state_cap=state_cap))


def expected_reward(solution: SteadyStateSolution, reward) -> float:
    """Expected steady-state reward rate: sum over states of pi(s)*r(s)."""
    return float(sum(p * reward(m) for m, p in zip(solution.states, solution.pi)))
