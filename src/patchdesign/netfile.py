"""Textual net format, one statement per line::

    place <id> <tokens>
    timed <id> rate=<float>[*#<place>] [guard="<expr>"] in=<place>[:mult],... out=...
    immediate <id> [weight=<float>] [priority=<int>] [guard="..."] in=... out=...
    reward <name> "<guarded expression>" = <float>

Blanks (spaces and tabs) separate tokens.  Double quotes group text,
blanks included, into one token and are dropped.  There are no escapes:
a line with an odd number of double quotes is an error.  Blank lines and
lines starting with '#' are ignored.

Places may follow their first use.  Every guard, of a transition or of
a reward, every arc and every marking-dependent rate is checked against
the declared places.  A place or transition named twice is an error, as
is a key given twice or one that a statement does not take.  A place
listed twice in one arc list gets the sum of its multiplicities:
``in=a,a`` is ``in=a:2``.

Reward clauses with the same name are tried in file order; the first
matching guard supplies the reward, with 0 as the fallback.

The initial marking is the pinned state of the steady-state solve
(``srn.solve_graph``): it may be rare, but not so rare that its
probability underflows double precision relative to the likeliest
marking.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import srn
from .guards import TRUE, check_places, parse_guard


class NetFileError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class RewardSpec:
    """First-match-wins clause list."""

    name: str
    clauses: list = field(default_factory=list)  # (guard, value)

    def __call__(self, marking) -> float:
        for guard, value in self.clauses:
            if guard.evaluate(marking):
                return value
        return 0.0


@dataclass
class NetDocument:
    net: srn.Net
    rewards: dict  # name -> RewardSpec


_TOKEN_RE = re.compile(r'(?:[^ \t"]+|"[^"]*")+')
_RATE_RE = re.compile(r"([0-9.eE+-]+)(?:\*#(\w+))?")
_KEYS = {"timed": {"rate", "guard", "in", "out"},
         "immediate": {"weight", "priority", "guard", "in", "out"}}


def _tokens(line: str) -> list:
    if line.count('"') % 2:
        raise ValueError("No closing quotation")
    return [token.replace('"', "") for token in _TOKEN_RE.findall(line)]


def _statement(tokens):
    """(kind, name, operands) of a statement of checked shape: a place's
    tokens, a reward's guard and value text, a transition's options."""
    kind = tokens[0]
    if kind == "place":
        if len(tokens) != 3:
            raise ValueError("usage: place <id> <tokens>")
        return kind, tokens[1], int(tokens[2])
    if kind == "reward":
        if len(tokens) != 5 or tokens[3] != "=":
            raise ValueError('usage: reward <name> "<expr>" = <value>')
        return kind, tokens[1], (tokens[2], tokens[4])
    if kind not in _KEYS:
        raise ValueError(f"unknown statement {kind!r}")
    if len(tokens) < 2:
        raise ValueError(f"{kind} statement needs a name")
    opts = {}
    for token in tokens[2:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {token!r}")
        if key not in _KEYS[kind]:
            raise ValueError(f"unknown key {key!r} for a {kind} transition")
        if key in opts:
            raise ValueError(f"duplicate key {key!r}")
        opts[key] = value
    return kind, tokens[1], opts


def _arcs(text: str):
    arcs = []
    for part in filter(None, text.split(",")):
        place, colon, mult = part.partition(":")
        try:
            arcs.append((place, int(mult) if colon else 1))
        except ValueError:
            raise ValueError(f"bad arc multiplicity {mult!r}") from None
    return arcs


def _add_transition(net: srn.Net, kind: str, name: str, opts: dict) -> None:
    guard = parse_guard(opts["guard"]) if "guard" in opts else TRUE
    inputs, outputs = _arcs(opts.get("in", "")), _arcs(opts.get("out", ""))
    if kind == "immediate":
        return net.add_immediate(name, inputs, outputs, guard,
                                 weight=float(opts.get("weight", 1.0)),
                                 priority=int(opts.get("priority", 0)))
    if "rate" not in opts:
        raise ValueError("timed transition needs rate=")
    m = _RATE_RE.fullmatch(opts["rate"])
    if not m:
        raise ValueError(f"bad rate {opts['rate']!r}")
    net.add_timed(name, srn.RateExpr(float(m[1]), m[2]), inputs, outputs, guard)


def parse_net(text: str) -> NetDocument:
    """Pass one lexes each line, checks its shape and declares places;
    pass two reads transitions and rewards against the declared places."""
    net = srn.Net()
    rewards: dict[str, RewardSpec] = {}
    statements = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                kind, name, operands = _statement(_tokens(line))
                if kind == "place":
                    net.add_place(name, operands)
                else:
                    statements.append((lineno, kind, name, operands))
        for lineno, kind, name, operands in statements:
            if kind != "reward":
                _add_transition(net, kind, name, operands)
                continue
            guard = parse_guard(operands[0])
            check_places(guard, net.places)
            value = float(operands[1])
            if not math.isfinite(value):
                raise ValueError(f"reward value must be finite, got {value}")
            rewards.setdefault(name, RewardSpec(name)).clauses.append((guard, value))
    except ValueError as e:
        raise NetFileError(lineno, str(e)) from None
    return NetDocument(net=net, rewards=rewards)


def solve_document(doc: NetDocument, state_cap: int = srn.DEFAULT_STATE_CAP):
    """Solve the net; returns (solution, {reward name: expected value})."""
    solution = srn.solve(doc.net, state_cap=state_cap)
    values = {name: srn.expected_reward(solution, spec)
              for name, spec in doc.rewards.items()}
    return solution, values
