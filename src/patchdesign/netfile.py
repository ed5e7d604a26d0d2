"""Textual net format, one statement per line::

    place <id> <tokens>
    timed <id> rate=<float>|$<param>[*#<place>] [guard="<expr>"] in=<place>[:mult],... out=...
    immediate <id> [weight=<float>] [priority=<int>] [guard="..."] in=... out=...
    reward <name> "<guarded expression>" = <float>

Blanks (spaces and tabs) separate tokens.  Double quotes, and no other
quote, group text, blanks included, into one token and are dropped.
There are no escapes: a line with an odd number of double quotes is an
error.  Blank lines and lines starting with '#' are ignored.

Places may follow their first use.  Every guard, of a transition or of
a reward, every arc and every marking-dependent rate is checked against
the declared places, by one check that names the transition or the
reward.  A place or transition named twice is an error, as is a key
given twice or one that a statement does not take.  A place listed twice
in one arc list gets the sum of its multiplicities: ``in=a,a`` is
``in=a:2``.  Every number, rate constants included, is read by
``_number``; ``srn.Net`` alone checks a rate constant's or weight's range.

A rate constant may instead name a parameter, ``$<param>``, that the
caller of ``parse_net`` binds to a rate.  One nobody binds is an error at
its line (``solve-srn`` binds none).  One bound to 0 leaves its checked
transition out, as an infinite MTTF does a failure arc, but its name stays
taken; ``rate=0`` is an error.

Reward clauses with the same name are tried in file order; the first
matching guard supplies the reward, with 0 as the fallback.

The initial marking, which the steady-state solve pins, may be of any
probability when the state reduction solves the chain; to the sparse LU
of a larger chain one too rare for a double is singular (``srn._solve_pinned``).
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
    parameters: dict = field(default_factory=dict)  # transition -> the parameter its rate names


_TOKEN_RE = re.compile(r'(?:[^ \t"]+|"[^"]*")+')
_KEYS = {"timed": {"rate", "guard", "in", "out"},
         "immediate": {"weight", "priority", "guard", "in", "out"}}


def _tokens(line: str) -> list:
    if line.count('"') % 2:
        raise ValueError("No closing quotation")
    return [token.replace('"', "") for token in _TOKEN_RE.findall(line)]


def _number(kind, text: str, what: str):
    """``kind(text)``, or the error ``bad <what> '<text>'``: the one
    reader of every number in a net file."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _guard_text(text: str) -> str:
    """``text``, a transition's or a reward's guard, unless a single
    quote opens it: net files group text with double quotes only."""
    if text.startswith("'"):
        raise ValueError(f"single quote in guard {text!r}: group text with double quotes")
    return text


def _statement(tokens):
    """(kind, name, operands) of a statement of checked shape: a place's
    tokens, a reward's guard and value text, a transition's options."""
    kind = tokens[0]
    if kind == "place":
        if len(tokens) != 3:
            raise ValueError("usage: place <id> <tokens>")
        return kind, tokens[1], _number(int, tokens[2], "token count")
    if kind == "reward":
        _guard_text("".join(tokens[2:3]))  # first: blanks in single quotes break the shape
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
        opts[key] = _guard_text(value) if key == "guard" else value
    return kind, tokens[1], opts


def _arcs(text: str):
    arcs = []
    for part in filter(None, text.split(",")):
        place, colon, mult = part.partition(":")
        arcs.append((place, _number(int, mult, "arc multiplicity") if colon else 1))
    return arcs


def _add_transition(doc: NetDocument, kind: str, name: str, opts: dict, params: dict) -> None:
    guard = parse_guard(opts["guard"]) if "guard" in opts else TRUE
    inputs, outputs = _arcs(opts.get("in", "")), _arcs(opts.get("out", ""))
    if kind == "immediate":
        return doc.net.add_immediate(name, inputs, outputs, guard,
                                     weight=_number(float, opts.get("weight", "1"), "weight"),
                                     priority=_number(int, opts.get("priority", "0"), "priority"))
    if "rate" not in opts:
        raise ValueError("timed transition needs rate=")
    constant, star, place = opts["rate"].partition("*#")
    parameter = constant[1:] if constant.startswith("$") else None
    if parameter is not None and parameter not in params:
        raise ValueError(f"unbound rate parameter {parameter!r}")
    rate = srn.RateExpr(_number(float, constant, "rate") if parameter is None
                        else params[parameter], place if star else None)
    if parameter is not None:
        if rate.constant == 0:  # left out, once its name and places are checked
            return doc.net._add(name, inputs, outputs, guard, kept=False, rate=rate)
        doc.parameters[name] = parameter
    doc.net.add_timed(name, rate, inputs, outputs, guard)


def parse_net(text: str, params: dict | None = None) -> NetDocument:
    """Pass one lexes each line, checks its shape and declares places;
    pass two reads transitions and rewards against the declared places.
    ``params`` binds each rate parameter's name to its rate."""
    doc = NetDocument(net=srn.Net(), rewards={})
    net, rewards = doc.net, doc.rewards
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
                _add_transition(doc, kind, name, operands, params or {})
                continue
            guard = parse_guard(operands[0])
            check_places(f"reward {name!r}", guard.places(), net.places)
            value = _number(float, operands[1], "reward value")
            if not math.isfinite(value):
                raise ValueError(f"reward value must be finite, got {value}")
            rewards.setdefault(name, RewardSpec(name)).clauses.append((guard, value))
    except ValueError as e:
        raise NetFileError(lineno, str(e)) from None
    return doc


def solve_document(doc: NetDocument, state_cap: int = srn.DEFAULT_STATE_CAP):
    """Solve the net; returns (solution, {reward name: expected value})."""
    solution = srn.solve(doc.net, state_cap=state_cap)
    values = {name: srn.expected_reward(solution, spec)
              for name, spec in doc.rewards.items()}
    return solution, values
