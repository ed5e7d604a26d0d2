"""Stochastic reward net engine.

Nets have exponentially timed transitions (optionally with a
marking-dependent rate ``const * #place``), immediate transitions with
weights and priorities, and boolean guards over markings.  Analysis
follows the usual GSPN pipeline: breadth-first reachability, vanishing
marking elimination, sparse CTMC steady-state solve, expected reward.

``Net.branches`` is the one step rule: it decides whether a marking is
vanishing or tangible and which transitions may fire from it, with what
weight or rate.  Both the explorer here and the discrete-event simulator
(``simulate.simulate_reward``) take their steps from it.

Exploration is structural; values come from the net's constants.  The
reachability graph keeps each edge as indices (source, target, firing
transition) and a rate factor, and ``rerate`` turns a net's rate
constants and weights into edge rates and probabilities.  Exploration
sees the constants only through their being positive, so one graph
serves every net that differs from its own only in them.  The sparsity
patterns that vanishing elimination fills (``Assembly``) are structural
too, derived once per exploration.

numpy and scipy are imported inside the functions that explore, assemble
and solve, so building a net loads neither.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

from .guards import TRUE, check_places

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

DEFAULT_STATE_CAP = 1_000_000
RESIDUAL_TOLERANCE = 1e-10  # steady_state's bound on its relative residual


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


class Pattern(NamedTuple):
    """A compressed sparse pattern (CSR by rows or CSC by columns) and
    the data slot of each triplet that fills it."""

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    @classmethod
    def of(cls, major, minor, n_major: int, n_minor: int) -> Pattern:
        """The pattern of triplets at (major, minor): row and column for
        CSR, column and row for CSC."""
        import numpy as np

        keys, slot = np.unique(major * n_minor + minor, return_inverse=True)
        indptr = np.zeros(n_major + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // n_minor, minlength=n_major), out=indptr[1:])
        return cls(indptr, keys % n_minor, slot)

    def fill(self, matrix, values, shape):
        """``matrix`` (a scipy CSR or CSC class) over this pattern, with
        duplicate triplets summed in triplet order."""
        import numpy as np

        data = np.bincount(self.slot, weights=values, minlength=len(self.indices))
        return matrix((data, self.indices.copy(), self.indptr.copy()), shape=shape)


class Assembly(NamedTuple):
    """Where ``eliminate_vanishing`` puts each edge value.  It depends
    on the graph's structure only, so every re-rated copy shares it."""

    trapped: list          # vanishing markings with no path to a tangible one
    sources: np.ndarray    # tangible markings with an edge into a vanishing one
    targets: np.ndarray    # tangible markings entered from a vanishing one
    i_minus_p_vv: Pattern  # CSC; the diagonal, then the P_VV edges
    p_vt_cells: np.ndarray  # flat cell of each P_VT edge in the (nv, targets) block
    r_tv: Pattern          # CSR over sources; the R_TV edges
    q: Pattern             # CSR; R_TT edges, the (sources, targets) block, the diagonal
    q_rows: np.ndarray     # the rows of those triplets before the diagonal

    @classmethod
    def of(cls, vanishing: list, timed: Edges, immediate: Edges, nt: int) -> Assembly:
        import numpy as np

        nv = len(vanishing)
        into_v, v_into_v = timed.into_vanishing, immediate.into_vanishing
        sources, source_of = np.unique(timed.source[into_v], return_inverse=True)
        targets, target_of = np.unique(immediate.target[~v_into_v], return_inverse=True)
        diagonal = np.arange(nv)
        rows = np.concatenate([timed.source[~into_v], np.repeat(sources, len(targets))])
        cols = np.concatenate([timed.target[~into_v], np.tile(targets, len(sources))])
        return cls(
            trapped=_trapped(vanishing, immediate),
            sources=sources, targets=targets,
            i_minus_p_vv=Pattern.of(np.append(diagonal, immediate.target[v_into_v]),
                                    np.append(diagonal, immediate.source[v_into_v]), nv, nv),
            p_vt_cells=immediate.source[~v_into_v] * len(targets) + target_of,
            r_tv=Pattern.of(source_of, timed.target[into_v], len(sources), nv),
            q=Pattern.of(np.append(rows, np.arange(nt)), np.append(cols, np.arange(nt)),
                         nt, nt),
            q_rows=rows)


@dataclass
class ReachabilityGraph:
    tangible: list   # markings
    vanishing: list
    timed: Edges      # out of tangible markings
    immediate: Edges  # out of vanishing markings
    assembly: Assembly = field(repr=False, compare=False)


def reachability(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> ReachabilityGraph:
    """Explore the reachable markings of a net breadth-first.

    ``Net.branches`` classifies each new marking once and yields its
    out-edges.  Each edge keeps the index of the transition that fires
    and its rate factor; ``rerate`` then derives the edge values from
    the net's constants.  Exploration stops with StateCapExceeded after
    ``state_cap`` markings, which is what ends it on an unbounded net.
    """
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
    assembly = Assembly.of(markings[True], timed, immediate, len(markings[False]))
    graph = ReachabilityGraph(markings[False], markings[True], timed, immediate, assembly)
    return rerate(graph, net)


def _edges(edges: list) -> Edges:
    import numpy as np

    columns = np.array(edges, dtype=np.intp).reshape(len(edges), 5).T.copy()
    source, target, into_v, transition, factor = columns
    return Edges(source, target, into_v.astype(bool), transition, factor.astype(float))


def rerate(graph: ReachabilityGraph, net: Net) -> ReachabilityGraph:
    """``graph`` with its edge values taken from ``net``'s constants.

    A timed edge's rate is its transition's rate constant times the
    edge's factor; an immediate edge's probability is its transition's
    weight over the sum of the weights out of its source, summed in
    branch order.  ``graph`` may have been explored from any net with
    the same places, arcs, guards, priorities and rate places as
    ``net``: exploration depends on rate constants and weights only
    through their being positive, which ``Net.add_timed`` and
    ``Net.add_immediate`` enforce.
    """
    import numpy as np

    constants = np.array([t.rate.constant if t.timed else t.weight
                          for t in net.transitions])
    timed, immediate = graph.timed, graph.immediate
    weights = constants[immediate.transition] * immediate.factor
    totals = np.bincount(immediate.source, weights=weights, minlength=len(graph.vanishing))
    return replace(graph,
                   timed=timed._replace(value=constants[timed.transition] * timed.factor),
                   immediate=immediate._replace(value=weights / totals[immediate.source]))


def eliminate_vanishing(graph: ReachabilityGraph) -> sp.csr_matrix:
    """Collapse vanishing markings and return the CTMC generator Q.

    Q is a sparse matrix over the tangible markings with zero row sums.
    The edge arrays split by target kind into timed rates R_TT and R_TV
    out of tangible markings and branching probabilities P_VV and P_VT
    out of vanishing ones.  The off-diagonal part of Q is

        R = R_TT + R_TV B,   B = (I - P_VV)^(-1) P_VT,

    where row j of B holds the probabilities of being absorbed in each
    tangible marking from vanishing marking j.  One sparse LU of I - P_VV
    solves for the columns of P_VT that hold an entry, and the sparse
    R_TV multiplies B only in the rows with an edge into a vanishing
    marking.  R_TT, the dense (sources, targets) block of R_TV B and the
    diagonal (minus each row's sum) fill Q's pattern, which sums
    duplicates in that order: two transitions leading to the same
    marking add up, and a self-loop cancels against its own diagonal
    entry.  Entries that come out zero are dropped.  The patterns come
    from ``graph.assembly``, so only the values are computed here.

    Raises TimelessTrap when some vanishing marking cannot reach any
    tangible marking; ``graph.assembly`` holds those markings, as the
    test depends on the structure only.
    """
    import numpy as np
    import scipy.sparse as sp

    assembly = graph.assembly
    if assembly.trapped:
        raise TimelessTrap(assembly.trapped)
    nt, nv = len(graph.tangible), len(graph.vanishing)

    timed = graph.timed
    vals = timed.value[~timed.into_vanishing]
    if nv:
        vals = np.append(vals, _absorbed(graph))
    diagonal = -np.bincount(assembly.q_rows, weights=vals, minlength=nt)
    q = assembly.q.fill(sp.csr_matrix, np.append(vals, diagonal), (nt, nt))
    q.eliminate_zeros()
    return q


def _absorbed(graph: ReachabilityGraph):
    """The (sources, targets) block of R_TV B, flattened by rows."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    assembly, timed, immediate = graph.assembly, graph.timed, graph.immediate
    nv, into_v = len(graph.vanishing), immediate.into_vanishing
    lu = splu(assembly.i_minus_p_vv.fill(
        sp.csc_matrix, np.append(np.ones(nv), -immediate.value[into_v]), (nv, nv)))
    k = len(assembly.targets)
    p_vt = np.bincount(assembly.p_vt_cells, weights=immediate.value[~into_v],
                       minlength=nv * k).reshape(nv, k)
    r_tv = assembly.r_tv.fill(sp.csr_matrix, timed.value[timed.into_vanishing],
                              (len(assembly.sources), nv))
    return (r_tv @ lu.solve(p_vt)).ravel()


def _trapped(vanishing: list, immediate: Edges) -> list:
    """The vanishing markings with no path to a tangible one: those that
    reverse reachability from the edges into tangible markings misses."""
    into_v = immediate.into_vanishing
    rev = [[] for _ in vanishing]
    for i, j in zip(immediate.source[into_v].tolist(), immediate.target[into_v].tolist()):
        rev[j].append(i)
    escapes = immediate.source[~into_v].tolist()
    can_escape = set()
    while escapes:
        i = escapes.pop()
        if i not in can_escape:
            can_escape.add(i)
            escapes.extend(rev[i])
    return [m for i, m in enumerate(vanishing) if i not in can_escape]


@dataclass
class SteadyStateSolution:
    states: list  # tangible markings
    pi: np.ndarray
    residual: float

    def probability(self, predicate) -> float:
        """Total stationary probability of markings satisfying a predicate."""
        return float(sum(p for m, p in zip(self.states, self.pi) if predicate(m)))


def steady_state(q: sp.spmatrix, states=None) -> SteadyStateSolution:
    """Solve pi Q = 0, sum(pi) = 1 by direct sparse elimination.

    Requires a single closed communicating class covering all states
    (checked via strong connectivity of the sparsity pattern).

    The system Q^T x = 0 has rank n - 1.  Its balance equation for
    state 0 is replaced by x_0 = 1, which keeps the matrix as sparse as
    Q (a dense row of ones would fill the LU factors); the solution is
    then divided by its sum.  Any one state may be pinned in exact
    arithmetic; state 0 is the initial marking, or the first tangible
    marking reached from it.  The solve stays accurate when that marking
    is rare (pi near 1e-48 is solved to 1e-12), but when its probability
    lies beyond double range relative to the largest one (near 1e-600)
    the pinned system is singular in double precision and SrnError is
    raised.  A net should therefore not start in such a marking.

    The reported residual is max|pi Q| / ||Q||_inf, so the tolerance
    does not depend on the scale of the rates.  SrnError is raised when
    the solution is not finite, has a residual above ``RESIDUAL_TOLERANCE``
    or has an entry below ``-RESIDUAL_TOLERANCE``.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    n = q.shape[0]
    if states is None:
        states = list(range(n))
    if n == 1:
        return SteadyStateSolution(states, np.array([1.0]), 0.0)

    q = q.tocsr()
    ncomp, labels = connected_components(q, directed=True, connection="strong")
    if ncomp > 1:
        groups = [np.nonzero(labels == c)[0].tolist() for c in range(ncomp)]
        raise ReducibleChain(
            f"chain is reducible into {ncomp} strongly connected components: {groups}"
        )

    # A = Q^T with row 0 replaced by e_0, in one CSC constructor: column i
    # of A is row i of Q without its column-0 entry, and e_0 leads column 0
    rows = np.repeat(np.arange(n), np.diff(q.indptr))
    keep = q.indices != 0
    a = sp.csc_matrix((np.append(1.0, q.data[keep]), np.append(0, q.indices[keep]),
                       np.append(0, 1 + np.cumsum(np.bincount(rows[keep], minlength=n)))),
                      shape=(n, n))
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.asarray(spsolve(a, b)).ravel()
    pi = pi / pi.sum()
    q_norm = float(np.bincount(rows, weights=np.abs(q.data), minlength=n).max())
    pi_q = np.bincount(q.indices, weights=pi[rows] * q.data, minlength=n)
    residual = float(np.max(np.abs(pi_q))) / q_norm
    if not (np.all(np.isfinite(pi)) and np.isfinite(residual)):
        raise SrnError(f"steady-state solve failed at {n} tangible states: "
                       "non-finite solution")
    if residual > RESIDUAL_TOLERANCE or np.any(pi < -RESIDUAL_TOLERANCE):
        raise SrnError(f"steady-state solve failed at {n} tangible states: "
                       f"relative residual {residual:g}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return SteadyStateSolution(states, pi, residual)


def solve(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> SteadyStateSolution:
    """Reachability + vanishing elimination + steady state, in one call."""
    graph = reachability(net, state_cap=state_cap)
    q = eliminate_vanishing(graph)
    return steady_state(q, states=graph.tangible)


def expected_reward(solution: SteadyStateSolution, reward) -> float:
    """Expected steady-state reward rate: sum over states of pi(s)*r(s)."""
    return float(sum(p * reward(m) for m, p in zip(solution.states, solution.pi)))
