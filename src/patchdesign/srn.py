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

numpy and scipy are imported inside the functions that assemble and
solve the CTMC, so building and exploring a net loads neither.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
        if rate.constant <= 0:
            raise ValueError(f"transition {name!r}: rate constant must be positive")
        t = Transition(name, _arcs(name, inputs), _arcs(name, outputs), guard, rate=rate)
        self._check_transition(t)
        self.transitions.append(t)

    def add_immediate(self, name, inputs, outputs, guard=TRUE, weight=1.0, priority=0):
        if weight <= 0:
            raise ValueError(f"transition {name!r}: weight must be positive")
        t = Transition(name, _arcs(name, inputs), _arcs(name, outputs), guard,
                       weight=float(weight), priority=int(priority))
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


@dataclass
class ReachabilityGraph:
    tangible: list
    vanishing: list
    # tangible i -> [(rate, ('T'|'V', index)), ...]
    timed_edges: list = field(default_factory=list)
    # vanishing i -> [(prob, ('T'|'V', index)), ...]
    immediate_edges: list = field(default_factory=list)
    initial: tuple = ("T", 0)


def reachability(net: Net, state_cap: int = DEFAULT_STATE_CAP) -> ReachabilityGraph:
    """Explore the reachable markings of a net breadth-first.

    ``Net.branches`` classifies each new marking once and yields its
    out-edges: the normalised immediate weights of a vanishing marking,
    the rates of a tangible one.  Exploration stops with
    StateCapExceeded after ``state_cap`` markings, which is what ends
    it on an unbounded net.
    """
    seen: dict[tuple, tuple] = {}  # counts -> ('T'|'V', index)
    markings = {"T": [], "V": []}
    edges = {"T": [], "V": []}
    queue = deque()

    def register(m: Marking):
        key = m.counts
        if key in seen:
            return seen[key]
        if len(seen) >= state_cap:
            raise StateCapExceeded(f"more than {state_cap} markings")
        vanishing, step = net.branches(m)
        kind = "V" if vanishing else "T"
        ref = seen[key] = (kind, len(markings[kind]))
        markings[kind].append(m)
        edges[kind].append(None)
        queue.append((ref, m, step))
        return ref

    initial_ref = register(net.initial_marking())
    while queue:
        (kind, idx), m, step = queue.popleft()
        total = sum(w for _, w in step) if kind == "V" else 1.0
        edges[kind][idx] = [(w / total, register(net.fire(t, m))) for t, w in step]

    return ReachabilityGraph(markings["T"], markings["V"], edges["T"],
                             edges["V"], initial_ref)


def eliminate_vanishing(graph: ReachabilityGraph) -> sp.csr_matrix:
    """Collapse vanishing markings and return the CTMC generator Q.

    Q is a sparse matrix over the tangible markings with zero row sums.
    Each edge list is read once into flat (row, column, value) arrays and
    split by target kind: timed rates R_TT and R_TV out of tangible
    markings, branching probabilities P_VV and P_VT out of vanishing
    ones.  The off-diagonal part of Q is

        R = R_TT + R_TV B,   B = (I - P_VV)^(-1) P_VT,

    where row j of B holds the probabilities of being absorbed in each
    tangible marking from vanishing marking j.  One sparse LU of I - P_VV
    solves for the columns of P_VT that hold an entry, and the sparse
    R_TV multiplies B only in the rows with an edge into a vanishing
    marking.  The triplets of R_TT, of R_TV B and of the diagonal (minus
    each row's sum) go to one CSR constructor, which sums duplicates: two
    transitions leading to the same marking add up, and a self-loop
    cancels against its own diagonal entry.

    Raises TimelessTrap when some vanishing marking cannot reach any
    tangible marking.
    """
    import numpy as np
    import scipy.sparse as sp

    nt, nv = len(graph.tangible), len(graph.vanishing)
    if nt == 0:
        raise TimelessTrap(graph.vanishing)

    rows, cols, vals, into_v = _triplets(graph.timed_edges)
    parts = [(rows[~into_v], cols[~into_v], vals[~into_v])]
    if nv:
        _check_timeless_trap(graph)
        parts.append(_absorbed(rows[into_v], cols[into_v], vals[into_v],
                               graph.immediate_edges, nv))
    rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    diagonal = np.arange(nt)
    q = sp.csr_matrix((np.append(vals, -np.bincount(rows, weights=vals, minlength=nt)),
                       (np.append(rows, diagonal), np.append(cols, diagonal))),
                      shape=(nt, nt))
    q.eliminate_zeros()
    return q


def _triplets(edge_lists) -> tuple:
    """(rows, cols, values, into_vanishing) arrays of an edge list."""
    import numpy as np

    rows = np.repeat(np.arange(len(edge_lists)), [len(edges) for edges in edge_lists])
    flat = [edge for edges in edge_lists for edge in edges]
    return (rows, np.array([j for _, (_, j) in flat], dtype=np.intp),
            np.array([value for value, _ in flat], dtype=float),
            np.array([kind == "V" for _, (kind, _) in flat], dtype=bool))


def _absorbed(rows, cols, vals, immediate_edges, nv) -> tuple:
    """Triplets of R_TV B, given the R_TV triplets."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    v_rows, v_cols, probs, into_v = _triplets(immediate_edges)
    diagonal = np.arange(nv)
    lu = splu(sp.csc_matrix((np.append(np.ones(nv), -probs[into_v]),
                             (np.append(diagonal, v_rows[into_v]),
                              np.append(diagonal, v_cols[into_v]))), shape=(nv, nv)))
    targets, target_of = np.unique(v_cols[~into_v], return_inverse=True)
    p_vt = np.zeros((nv, len(targets)))
    np.add.at(p_vt, (v_rows[~into_v], target_of), probs[~into_v])
    sources, source_of = np.unique(rows, return_inverse=True)
    r_tv = sp.csr_matrix((vals, (source_of, cols)), shape=(len(sources), nv))
    rb = r_tv @ lu.solve(p_vt)
    i, k = np.nonzero(rb)
    return sources[i], targets[k], rb[i, k]


def _check_timeless_trap(graph: ReachabilityGraph) -> None:
    # reverse-reachability from tangible markings over the vanishing graph
    rev = [[] for _ in graph.vanishing]
    escapes = []
    for i, edges in enumerate(graph.immediate_edges):
        for _, (kind, j) in edges:
            (escapes if kind == "T" else rev[j]).append(i)
    can_escape = set()
    while escapes:
        i = escapes.pop()
        if i not in can_escape:
            can_escape.add(i)
            escapes.extend(rev[i])
    trapped = [m for i, m in enumerate(graph.vanishing) if i not in can_escape]
    if trapped:
        raise TimelessTrap(trapped)


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
