"""Textual net format, one statement per line::

    place <id> <tokens>
    timed <id> rate=<float>[*#<place>] [guard="<expr>"] in=<place>[:mult],... out=...
    immediate <id> [weight=<float>] [priority=<int>] [guard="..."] in=... out=...
    reward <name> "<guarded expression>" = <float>

Reward clauses with the same name are tried in file order; the first
matching guard supplies the reward, with 0 as the fallback.  Blank lines
and lines starting with '#' are ignored.  A key that a statement does not
take, or a key given twice, is an error.  A place listed twice in one
arc list gets the sum of its multiplicities: ``in=a,a`` is ``in=a:2``.

The initial marking is the pinned state of the steady-state solve
(``srn.solve_graph``): it may be rare, but not so rare that its
probability underflows double precision relative to the likeliest
marking.
"""

from __future__ import annotations

import math
import re
import shlex
from dataclasses import dataclass, field

from . import srn
from .guards import parse_guard


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


_RATE_RE = re.compile(r"^([0-9.eE+-]+)(?:\*#(\w+))?$")
_KEYS = {"timed": {"rate", "guard", "in", "out"},
         "immediate": {"weight", "priority", "guard", "in", "out"}}


def _parse_arcs(text: str, lineno: int):
    arcs = []
    for part in text.split(","):
        if not part:
            continue
        if ":" in part:
            place, mult = part.split(":", 1)
            try:
                arcs.append((place, int(mult)))
            except ValueError:
                raise NetFileError(lineno, f"bad arc multiplicity {mult!r}") from None
        else:
            arcs.append((part, 1))
    return arcs


def _split_kv(kind, tokens, lineno):
    opts = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetFileError(lineno, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in _KEYS[kind]:
            raise NetFileError(lineno, f"unknown key {key!r} for a {kind} transition")
        if key in opts:
            raise NetFileError(lineno, f"duplicate key {key!r}")
        opts[key] = value
    return opts


def parse_net(text: str) -> NetDocument:
    net = srn.Net()
    rewards: dict[str, RewardSpec] = {}
    pending = []  # transitions deferred so places can appear in any order

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = shlex.split(line)
        except ValueError as e:
            raise NetFileError(lineno, str(e)) from None
        kind = tokens[0]

        if kind == "place":
            if len(tokens) != 3:
                raise NetFileError(lineno, "usage: place <id> <tokens>")
            try:
                net.add_place(tokens[1], int(tokens[2]))
            except ValueError as e:
                raise NetFileError(lineno, str(e)) from None

        elif kind in ("timed", "immediate"):
            if len(tokens) < 2:
                raise NetFileError(lineno, f"{kind} statement needs a name")
            pending.append((lineno, kind, tokens[1], _split_kv(kind, tokens[2:], lineno)))

        elif kind == "reward":
            # reward <name> "<expr>" = <value>
            if len(tokens) != 5 or tokens[3] != "=":
                raise NetFileError(lineno, 'usage: reward <name> "<expr>" = <value>')
            name, expr_text, value_text = tokens[1], tokens[2], tokens[4]
            try:
                guard = parse_guard(expr_text)
                value = float(value_text)
                if not math.isfinite(value):
                    raise ValueError(f"reward value must be finite, got {value}")
            except ValueError as e:
                raise NetFileError(lineno, str(e)) from None
            rewards.setdefault(name, RewardSpec(name)).clauses.append((guard, value))

        else:
            raise NetFileError(lineno, f"unknown statement {kind!r}")

    for lineno, kind, name, opts in pending:
        try:
            guard = parse_guard(opts["guard"]) if "guard" in opts else None
            inputs = _parse_arcs(opts.get("in", ""), lineno)
            outputs = _parse_arcs(opts.get("out", ""), lineno)
            common = {"guard": guard} if guard is not None else {}
            if kind == "timed":
                if "rate" not in opts:
                    raise NetFileError(lineno, "timed transition needs rate=")
                m = _RATE_RE.match(opts["rate"])
                if not m:
                    raise NetFileError(lineno, f"bad rate {opts['rate']!r}")
                rate = srn.RateExpr(float(m.group(1)), m.group(2))
                net.add_timed(name, rate, inputs, outputs, **common)
            else:
                net.add_immediate(
                    name, inputs, outputs,
                    weight=float(opts.get("weight", 1.0)),
                    priority=int(opts.get("priority", 0)),
                    **common)
        except NetFileError:
            raise
        except ValueError as e:
            raise NetFileError(lineno, str(e)) from None

    return NetDocument(net=net, rewards=rewards)


def solve_document(doc: NetDocument, state_cap: int = srn.DEFAULT_STATE_CAP):
    """Solve the net; returns (solution, {reward name: expected value})."""
    solution = srn.solve(doc.net, state_cap=state_cap)
    values = {name: srn.expected_reward(solution, spec)
              for name, spec in doc.rewards.items()}
    return solution, values
