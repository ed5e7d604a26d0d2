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
        for p, mult in t.inputs + t.outputs:
            if p not in self._places:
                raise ValueError(f"transition {t.name!r} references unknown place {p!r}")
            if mult <= 0:
                raise ValueError(f"transition {t.name!r}: nonpositive arc multiplicity")
        check_places(t.guard, self._places)
        if t.rate is not None and t.rate.place is not None and t.rate.place not in self._places:
            raise ValueError(f"transition {t.name!r}: rate references unknown place")

    def add_timed(self, name, rate, inputs, outputs, guard=TRUE):
        if not isinstance(rate, RateExpr):
            rate = RateExpr(float(rate))
        if rate.constant <= 0:
            raise ValueError(f"transition {name!r}: rate constant must be positive")
        t = Transition(name, _arcs(inputs), _arcs(outputs), guard, rate=rate)
        self._check_transition(t)
        self.transitions.append(t)

    def add_immediate(self, name, inputs, outputs, guard=TRUE, weight=1.0, priority=0):
        if weight <= 0:
            raise ValueError(f"transition {name!r}: weight must be positive")
        t = Transition(name, _arcs(inputs), _arcs(outputs), guard,
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


def _arcs(spec) -> tuple:
    if isinstance(spec, dict):
        return tuple(sorted(spec.items()))
    out = []
    for item in spec:
        if isinstance(item, str):
            out.append((item, 1))
        else:
            out.append(tuple(item))
    return tuple(out)


@dataclass
class ReachabilityGraph:
    tangible: list
    vanishing: list
    # tangible i -> [(rate, ('T'|'V', index)), ...]
    timed_edges: list = field(default_factory=list)
    # vanishing i -> [(prob, ('T'|'V', index)), ...]
    immediate_edges: list = field(default_factory=list)
    initial: tuple = ("T", 0)


def reachability(net: Net, m0: Marking | None = None,
                 state_cap: int = DEFAULT_STATE_CAP) -> ReachabilityGraph:
    """Explore the reachable markings of a net breadth-first.

    ``Net.branches`` classifies each new marking once and yields its
    out-edges: the normalised immediate weights of a vanishing marking,
    the rates of a tangible one.  Exploration stops with
    StateCapExceeded after ``state_cap`` markings, which is what ends
    it on an unbounded net.
    """
    if m0 is None:
        m0 = net.initial_marking()

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

    initial_ref = register(m0)
    while queue:
        (kind, idx), m, step = queue.popleft()
        total = sum(w for _, w in step) if kind == "V" else 1.0
        edges[kind][idx] = [(w / total, register(net.fire(t, m))) for t, w in step]

    return ReachabilityGraph(markings["T"], markings["V"], edges["T"],
                             edges["V"], initial_ref)


def eliminate_vanishing(graph: ReachabilityGraph) -> sp.csr_matrix:
    """Collapse vanishing markings and return the CTMC generator Q.

    Q is a sparse matrix over the tangible markings with zero row sums.
    The edges are gathered into COO triplets, one pass per edge list,
    and split by target kind into four sparse blocks: timed rates R_TT
    and R_TV out of tangible markings, immediate branching probabilities
    P_VV and P_VT out of vanishing ones.  The off-diagonal part is then

        R = R_TT + R_TV B,   B = (I - P_VV)^(-1) P_VT,

    where row j of B holds the probabilities of being absorbed in each
    tangible marking from vanishing marking j.  B comes from one sparse
    LU of I - P_VV and is stored sparse.  Duplicate edges (two
    transitions leading to the same marking) are summed, and a timed
    self-loop cancels against its own diagonal entry.

    Raises TimelessTrap when some vanishing marking cannot reach any
    tangible marking.
    """
    import numpy as np
    import scipy.sparse as sp

    nt, nv = len(graph.tangible), len(graph.vanishing)
    if nt == 0:
        raise TimelessTrap(graph.vanishing)

    timed = _split_triplets(graph.timed_edges)
    r = _block(timed["T"], (nt, nt))
    if nv:
        _check_timeless_trap(graph)
        immediate = _split_triplets(graph.immediate_edges)
        p_vv = _block(immediate["V"], (nv, nv))
        p_vt = _block(immediate["T"], (nv, nt))
        r = r + _block(timed["V"], (nt, nv)) @ _absorption(p_vv, p_vt)
    return (r - sp.diags(np.asarray(r.sum(axis=1)).ravel())).tocsr()


def _split_triplets(edge_lists) -> dict:
    """COO triplets (rows, cols, values) of an edge list, keyed by the
    kind ('T' or 'V') of the target marking."""
    out = {"T": ([], [], []), "V": ([], [], [])}
    for i, edges in enumerate(edge_lists):
        for value, (kind, j) in edges:
            rows, cols, vals = out[kind]
            rows.append(i)
            cols.append(j)
            vals.append(value)
    return out


def _block(triplets, shape) -> sp.csr_matrix:
    import scipy.sparse as sp

    rows, cols, vals = triplets
    return sp.csr_matrix((vals, (rows, cols)), shape=shape, dtype=float)


def _absorption(p_vv: sp.csr_matrix, p_vt: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse B = (I - P_VV)^(-1) P_VT, solved only for the columns of
    P_VT with a non-zero entry."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    nv, nt = p_vt.shape
    lu = splu((sp.eye(nv, format="csr") - p_vv).tocsc())
    p_vt = p_vt.tocsc()
    targets = np.flatnonzero(np.diff(p_vt.indptr))
    x = lu.solve(p_vt[:, targets].toarray())
    i, k = np.nonzero(x)
    return sp.csr_matrix((x[i, k], (i, targets[k])), shape=(nv, nt))


def _check_timeless_trap(graph: ReachabilityGraph) -> None:
    # reverse-reachability from tangible markings over the vanishing graph
    nv = len(graph.vanishing)
    rev = [[] for _ in range(nv)]
    escapes = deque()
    can_escape = [False] * nv
    for i, edges in enumerate(graph.immediate_edges):
        for _, (kind, j) in edges:
            if kind == "T":
                if not can_escape[i]:
                    can_escape[i] = True
                    escapes.append(i)
            else:
                rev[j].append(i)
    while escapes:
        j = escapes.popleft()
        for i in rev[j]:
            if not can_escape[i]:
                can_escape[i] = True
                escapes.append(i)
    trapped = [graph.vanishing[i] for i in range(nv) if not can_escape[i]]
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


def steady_state(q: sp.spmatrix, states=None,
                 tolerance: float = 1e-10) -> SteadyStateSolution:
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
    the solution is not finite, has a residual above ``tolerance`` or
    has an entry below ``-tolerance``.
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

    ncomp, labels = connected_components(q, directed=True, connection="strong")
    if ncomp > 1:
        groups = [np.nonzero(labels == c)[0].tolist() for c in range(ncomp)]
        raise ReducibleChain(
            f"chain is reducible into {ncomp} strongly connected components: {groups}"
        )

    # A = Q^T with row 0 (column 0 of Q) replaced by e_0
    coo = q.tocoo()
    keep = coo.col != 0
    a = sp.csc_matrix(
        (np.append(coo.data[keep], 1.0),
         (np.append(coo.col[keep], 0), np.append(coo.row[keep], 0))),
        shape=(n, n))
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.asarray(spsolve(a, b)).ravel()
    pi = pi / pi.sum()
    q_norm = float(abs(q).sum(axis=1).max())
    residual = float(np.max(np.abs(pi @ q))) / q_norm
    if not (np.all(np.isfinite(pi)) and np.isfinite(residual)):
        raise SrnError(f"steady-state solve failed at {n} tangible states: "
                       "non-finite solution")
    if residual > tolerance or np.any(pi < -tolerance):
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
