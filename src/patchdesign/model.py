"""Domain model: network description, vulnerability catalog, server rate
parameters, patch policy, redundancy designs.

Everything is immutable after load; a validated model can be shared
read-only across concurrent evaluators.  ``load_model`` reads every
object of a model file through one reader, ``_fields``, against that
object's schema (``_DOCUMENT``, ``_VULNERABILITY``, ``_SERVER``,
``_REACHABILITY``), and builds each through ``_build``, which names a
range error by its model-file key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


class ModelError(ValueError):
    """Validation failure, with a path to the offending field."""

    def __init__(self, path: str, message: str, field: str | None = None):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
        self.field = field  # the key a constructor's range check names

    def at(self, prefix: str, keys: dict | None = None) -> ModelError:
        """A constructor's range error under ``prefix``: its ``field``,
        renamed by ``keys`` if given, joined to ``prefix``, or ``prefix``
        alone for an error of the whole object.  The constructor names a
        field in the library's terms; the loader renames the error to
        the key it read in the model file."""
        if self.field is None:
            return ModelError(prefix, self.message)
        return ModelError(f"{prefix}.{keys[self.field] if keys else self.field}",
                          self.message)


class SrnError(Exception):
    """An SRN that cannot be explored or solved.  It lives here, next to
    ``ModelError``, so the command line can tell the two apart without
    importing the SRN engine; ``srn.SrnError`` is the same class."""


def _closure(n: int, heads, tails, start) -> list:
    """Which of n nodes a walk from ``start`` along the edges
    heads[k] -> tails[k] reaches: tiers here, chain states in ``srn``."""
    succ = [[] for _ in range(n)]
    for i, j in zip(heads, tails):
        succ[i].append(j)
    reached = [False] * n
    stack = list(start)
    while stack:
        i = stack.pop()
        if not reached[i]:
            reached[i] = True
            stack.extend(succ[i])
    return reached


@dataclass(frozen=True)
class Vulnerability:
    id: str
    attack_impact: float
    attack_success_prob: float
    critical: bool
    component: str  # "os" | "application"

    def __post_init__(self):
        """Range checks; an error names the model-file key and the id."""
        vid, impact, prob = self.id, self.attack_impact, self.attack_success_prob
        if not vid:
            raise ModelError(f"vulnerabilities[{vid}].id", "empty vulnerability id", "id")
        if not 0.0 <= impact <= 10.0:
            raise ModelError(f"vulnerabilities[{vid}].impact",
                             f"attack impact {impact} of {vid!r} outside [0, 10]", "impact")
        if not 0.0 <= prob <= 1.0:
            raise ModelError(f"vulnerabilities[{vid}].probability",
                             f"attack success probability {prob} of {vid!r} outside [0, 1]",
                             "probability")
        if self.component not in ("os", "application"):
            raise ModelError(f"vulnerabilities[{vid}].component",
                             f"unknown component {self.component!r} of {vid!r}", "component")


@dataclass(frozen=True)
class AttackTreeNode:
    """AND/OR tree over vulnerabilities; leaves carry a Vulnerability."""

    kind: str  # "leaf" | "and" | "or"
    vulnerability: Vulnerability | None = None
    children: tuple = ()

    def __post_init__(self):
        if self.kind == "leaf":
            if self.vulnerability is None:
                raise ModelError("attack_tree", "leaf without vulnerability")
        elif self.kind in ("and", "or"):
            if not self.children:
                raise ModelError("attack_tree", f"{self.kind} node with no children")
        else:
            raise ModelError("attack_tree", f"unknown node kind {self.kind!r}")

    def leaves(self):
        if self.kind == "leaf":
            yield self.vulnerability
        else:
            for c in self.children:
                yield from c.leaves()


def leaf(v: Vulnerability) -> AttackTreeNode:
    return AttackTreeNode("leaf", vulnerability=v)


def and_node(*children) -> AttackTreeNode:
    return AttackTreeNode("and", children=tuple(children))


def or_node(*children) -> AttackTreeNode:
    return AttackTreeNode("or", children=tuple(children))


# ServerTemplate duration field -> model-file key, whose suffix is the
# field's unit.  Downstream rates are reciprocals (exponential assumption).
_SERVER_FIELD_KEYS = {
    "hw_mttf": "hw_mttf_hours",
    "hw_mttr": "hw_mttr_hours",
    "os_mttf": "os_mttf_hours",
    "os_mttr": "os_mttr_hours",
    "os_patch_mean": "os_patch_minutes",
    "os_reboot_after_patch": "os_reboot_after_patch_minutes",
    "os_reboot_after_failure": "os_reboot_after_failure_minutes",
    "svc_mttf": "svc_mttf_hours",
    "svc_mttr": "svc_mttr_minutes",
    "svc_patch_mean": "svc_patch_minutes",
    "svc_reboot_after_patch": "svc_reboot_after_patch_minutes",
    "svc_reboot_after_failure": "svc_reboot_after_failure_minutes",
}
_MINUTE_FIELDS = frozenset(f for f, key in _SERVER_FIELD_KEYS.items()
                           if key.endswith("_minutes"))
_FAILURE_FIELDS = ("hw_mttf", "os_mttf", "svc_mttf")


def _rate(name: str, mean: float) -> float:
    """Reciprocal of the mean duration ``name``, in events per hour."""
    return (60.0 if name in _MINUTE_FIELDS else 1.0) / mean


def _check_duration(tier: str, name: str, value: float) -> None:
    """Every rate the server net uses is positive and finite, except a
    failure rate, which an infinite MTTF makes 0.  An error names
    ``servers.<tier>.<name>``, a path built only when a check fails."""
    if not value > 0:
        raise ModelError(f"servers.{tier}.{name}",
                         f"duration must be strictly positive, got {value}", name)
    if value == math.inf and name not in _FAILURE_FIELDS:
        raise ModelError(f"servers.{tier}.{name}", "duration must be finite; only a "
                                                   "failure MTTF may be infinite", name)
    if _rate(name, value) == math.inf:
        raise ModelError(f"servers.{tier}.{name}",
                         f"duration {value} is too short: its rate overflows", name)


@dataclass(frozen=True)
class ServerTemplate:
    tier: str
    attack_tree: AttackTreeNode | None  # None = no exploitable vulnerabilities
    hw_mttf: float  # hours
    hw_mttr: float  # hours
    os_mttf: float  # hours
    os_mttr: float  # hours
    os_patch_mean: float  # minutes
    os_reboot_after_patch: float  # minutes
    os_reboot_after_failure: float  # minutes
    svc_mttf: float  # hours
    svc_mttr: float  # minutes
    svc_patch_mean: float  # minutes
    svc_reboot_after_patch: float  # minutes
    svc_reboot_after_failure: float  # minutes

    def __post_init__(self):
        for name in _SERVER_FIELD_KEYS:
            _check_duration(self.tier, name, getattr(self, name))

    def rate_per_hour(self, name: str) -> float:
        """Reciprocal of a mean duration, converted to events per hour."""
        return _rate(name, getattr(self, name))


@dataclass(frozen=True)
class ReachabilityTemplate:
    tiers: tuple
    edges: frozenset  # of (tier, tier)
    entry_tiers: frozenset
    target_tier: str

    def __post_init__(self):
        declared = set(self.tiers)
        if self.target_tier not in declared:
            raise ModelError("reachability.target_tier",
                             f"unknown tier {self.target_tier!r}", "target_tier")
        for t in self.entry_tiers:
            if t not in declared:
                raise ModelError("reachability.entry_tiers", f"unknown tier {t!r}",
                                 "entry_tiers")
        for a, b in self.edges:
            if a not in declared or b not in declared:
                raise ModelError("reachability.edges", f"unknown tier in edge ({a}, {b})",
                                 "edges")
        index = {t: i for i, t in enumerate(self.tiers)}
        heads, tails = [index[a] for a, _ in self.edges], [index[b] for _, b in self.edges]
        if not _closure(len(self.tiers), heads, tails,
                        [index[t] for t in self.entry_tiers])[index[self.target_tier]]:
            raise ModelError("reachability",
                             "no tier-path from any entry tier to the target tier")


@dataclass(frozen=True)
class DesignSpec:
    label: str
    counts: tuple  # ((tier, count), ...) in tier order

    @property
    def total(self) -> int:
        return sum(n for _, n in self.counts)


@dataclass(frozen=True)
class PatchPolicy:
    """Monthly-style patch schedule; it patches every critical vulnerability."""

    interval_mean: float = 720.0  # hours

    def __post_init__(self):
        """The patch clock's rate 1/interval_mean is positive and finite."""
        value, path, key = self.interval_mean, "patch_policy.interval_hours", "interval_hours"
        if not value > 0:
            raise ModelError(path, "patch interval must be positive", key)
        if value == math.inf:
            raise ModelError(path, "patch interval must be finite", key)
        if 1.0 / value == math.inf:
            raise ModelError(path, f"patch interval {value} is too short: its rate overflows",
                             key)

    def matches(self, v: Vulnerability) -> bool:
        return v.critical


@dataclass(frozen=True)
class Bounds:
    asp_upper: float | None = None   # phi
    coa_lower: float | None = None   # psi
    noev_upper: int | None = None    # xi
    noap_upper: int | None = None    # omega
    noep_upper: int | None = None    # kappa

    def __post_init__(self):
        for key, value in bounds_keys(self).items():
            _check_bound(key, value, f"bounds.{key}")


# bound key (model file "bounds" object, --bounds) -> (Bounds field, type)
BOUND_KEYS = {"phi": ("asp_upper", float), "psi": ("coa_lower", float),
              "xi": ("noev_upper", int), "omega": ("noap_upper", int),
              "kappa": ("noep_upper", int)}


def _check_bound(key: str, value, path: str) -> None:
    """A probability bound (phi, psi) lies in [0, 1]; a count bound is
    not negative."""
    if BOUND_KEYS[key][1] is float:
        if not 0.0 <= value <= 1.0:
            raise ModelError(path, f"{value} outside [0, 1]")
    elif value < 0:
        raise ModelError(path, f"{value} is negative")


def make_bounds(values: dict, path: str = "bounds") -> Bounds:
    """Bounds from {key: number} over the keys of BOUND_KEYS.  A count
    bound (xi, omega, kappa) must be an integer; phi and psi take any
    number.  Unknown keys and other values raise ModelError."""
    fields = {}
    for key, value in values.items():
        if key not in BOUND_KEYS:
            raise ModelError(path, f"unknown bound {key!r} "
                             f"(expected one of {sorted(BOUND_KEYS)})")
        name, kind = BOUND_KEYS[key]
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ModelError(f"{path}.{key}", f"expected {kind.__name__}, got {value!r}")
        _check_bound(key, value, f"{path}.{key}")
        fields[name] = kind(value)
    return Bounds(**fields)


def bounds_keys(bounds: Bounds) -> dict:
    """{key: value} of the bounds that are set; inverse of make_bounds."""
    return {key: getattr(bounds, name) for key, (name, _) in BOUND_KEYS.items()
            if getattr(bounds, name) is not None}


@dataclass(frozen=True)
class Model:
    templates: dict  # tier -> ServerTemplate
    reachability: ReachabilityTemplate
    designs: dict    # label -> DesignSpec
    policy: PatchPolicy
    bounds: Bounds | None = None


def prune_attack_tree(node: AttackTreeNode | None, selector) -> AttackTreeNode | None:
    """Remove selector-matching leaves.  An AND with any removed child is
    removed entirely; an OR with all children removed is removed."""
    if node is None:
        return None
    if node.kind == "leaf":
        return None if selector(node.vulnerability) else node
    kept = [prune_attack_tree(c, selector) for c in node.children]
    if node.kind == "and":
        if any(c is None for c in kept):
            return None
        return AttackTreeNode("and", children=tuple(kept))
    kept = [c for c in kept if c is not None]
    if not kept:
        return None
    return AttackTreeNode("or", children=tuple(kept))


# -- loading -----------------------------------------------------------


# JSON type -> the Python types json.loads gives for it: a number is an
# int or a float, and a bool, though an int subclass, is neither
_JSON_TYPES = {dict: (dict,), list: (list,), str: (str,), bool: (bool,), float: (int, float)}


def _of_kind(value, kind, path, key=None):
    """``value`` if it has the JSON type ``kind``: ``dict``, ``list``,
    ``str``, ``bool``, or ``float`` for a number, returned as a float.
    The error names ``path``, and ``key`` under it if given; it is
    joined only on failure, since every field of a model passes here."""
    if type(value) in _JSON_TYPES[kind]:
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:  # an int beyond float range
            pass
    if key is not None:
        path = f"{path}.{key}"
    if kind is not float:
        raise ModelError(path, f"expected {kind.__name__}")
    raise ModelError(path, "number out of float range" if type(value) is int
                     else "expected number")


def _strings(items, path):
    """``items``, a list, if every item is a string."""
    for i, item in enumerate(items):
        if type(item) is not str:
            raise ModelError(f"{path}[{i}]", "expected str")
    return items


def _fields(raw, schema, path, optional=()):
    """The values of the object ``raw`` for the keys of ``schema``, in
    its order: the one reader of every object of a model file.
    ``schema`` maps a key to its JSON type (see ``_of_kind``), or to None
    for a value read as it is.  A key of ``raw`` that ``schema`` does not
    name is refused first; then each value is read, and a key not in
    ``optional`` must be present (an absent optional key reads None)."""
    if not isinstance(raw, dict):
        raise ModelError(path, "expected dict")
    for key in raw:
        if key not in schema:
            raise ModelError(f"{path}.{key}",
                             f"unknown key {key!r} (expected one of {sorted(schema)})")
    values = []
    for key, kind in schema.items():
        if key in raw:
            value = raw[key]
            if kind is not None and type(value) is not kind:  # most values skip the call
                value = _of_kind(value, kind, path, key)
        elif key in optional:
            value = None
        else:
            raise ModelError(f"{path}.{key}", "missing required field")
        values.append(value)
    return values


def _build(cls, path, *args, keys=None):
    """``cls(*args)``, whose range error is renamed to the model-file
    key under ``path`` (see ``ModelError.at``)."""
    try:
        return cls(*args)
    except ModelError as e:
        raise e.at(path, keys) from None


def _parse_tree(node, catalog, path):
    if not isinstance(node, dict) or len(node) != 1:
        raise ModelError(path, "attack tree node must be a single-key object")
    (key, value), = node.items()
    if key == "vuln":
        if _of_kind(value, str, path, "vuln") not in catalog:
            raise ModelError(path, f"unknown vulnerability {value!r}")
        return leaf(catalog[value])
    if key in ("and", "or"):
        if not isinstance(value, list) or not value:
            raise ModelError(f"{path}.{key}", "needs a nonempty child list")
        children = [_parse_tree(c, catalog, f"{path}.{key}[{i}]")
                    for i, c in enumerate(value)]
        return AttackTreeNode(key, children=tuple(children))
    raise ModelError(path, f"unknown attack tree key {key!r}")


# The keys of each object of a model file, in the order they are read,
# with their JSON types.  An attack tree is read by _parse_tree; absent
# or null, the server has none.
_DOCUMENT = {"tiers": list, "vulnerabilities": list, "servers": dict, "reachability": dict,
             "designs": dict, "patch_policy": dict, "bounds": dict}
_VULNERABILITY = {"id": str, "impact": float, "probability": float, "critical": bool,
                  "component": str}
_SERVER = {**dict.fromkeys(_SERVER_FIELD_KEYS.values(), float), "attack_tree": None}
_REACHABILITY = {"edges": list, "entry_tiers": list, "target_tier": str}

# Tier names and design labels are fields of every CSV the program
# writes, unquoted: one of these characters in a name would split or
# join that CSV's rows.
_CSV_BREAKING = frozenset(',"\r\n')
_CSV_BREAKING_MESSAGE = "a name may not contain a comma, a double quote or a line break"


def _design(label, counts, tiers) -> DesignSpec:
    """The model file's design ``label``: an integer replica count >= 1
    for each tier, and no other key.  Every design of a grid passes here,
    so its error path is built only when a check fails.  The label
    ``all`` is refused: ``--design all`` selects every design; so is a
    label that would break a CSV row."""
    if label == "all":
        raise ModelError("$.designs.all", "the label 'all' is reserved: --design all "
                                          "selects every design")
    if not _CSV_BREAKING.isdisjoint(label):
        # the label's line breaks escaped, so that the error is one line
        raise ModelError(f"$.designs.{repr(label)[1:-1]}", _CSV_BREAKING_MESSAGE)
    _of_kind(counts, dict, "$.designs", label)
    for tier in tiers:
        n = counts.get(tier)
        if type(n) is not int or n < 1:
            raise ModelError(f"$.designs.{label}.{tier}",
                             "replica count must be an integer >= 1")
    if len(counts) != len(tiers):
        _fields(counts, dict.fromkeys(tiers), f"$.designs.{label}")
    return DesignSpec(label, tuple((tier, counts[tier]) for tier in tiers))


def _unique_keys(pairs):
    """One decoded JSON object, whose keys must differ: json.loads would
    keep only the last value of a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ModelError("$", f"duplicate key {key!r}")
    return obj


def load_model(source) -> Model:
    """Load and validate a model document.

    ``source`` is the path of a JSON file, as a ``str`` or a ``Path``
    (whatever its name looks like), or an already-parsed dict whose
    values have the types that json.loads gives.  Each object is read by
    ``_fields``: its keys first, then each value's type; a value's range
    is checked when its object is built.  So of several faults in one
    object, an unknown key is reported first, then a missing key or a
    type error (or an attack-tree error), then a range error.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(), object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise ModelError("$", f"invalid JSON: {e}") from e
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ModelError("$", "top level must be an object")
    tiers, vulnerabilities, servers, reachability, designs, policy, bounds = _fields(
        doc, _DOCUMENT, "$", optional=("patch_policy", "bounds"))

    _strings(tiers, "$.tiers")
    if not tiers:
        raise ModelError("$.tiers", "no tiers")
    if len(set(tiers)) < len(tiers):
        i = next(i for i, tier in enumerate(tiers) if tier in tiers[:i])
        raise ModelError(f"$.tiers[{i}]", f"duplicate tier {tiers[i]!r}")
    for i, tier in enumerate(tiers):
        if not _CSV_BREAKING.isdisjoint(tier):
            raise ModelError(f"$.tiers[{i}]", f"{_CSV_BREAKING_MESSAGE}: {tier!r}")

    catalog = {}
    for i, row in enumerate(vulnerabilities):
        path = f"$.vulnerabilities[{i}]"
        v = _build(Vulnerability, path, *_fields(row, _VULNERABILITY, path))
        if v.id in catalog and catalog[v.id] != v:
            raise ModelError(f"{path}.id",
                             f"vulnerability {v.id!r} redefined with different values")
        catalog[v.id] = v

    for tier in tiers:  # before an unknown key: a tier renamed in $.tiers names its template
        if tier not in servers:
            raise ModelError(f"$.servers.{tier}", "missing server template")
    templates = {}
    for tier, raw in zip(tiers, _fields(servers, dict.fromkeys(tiers, dict), "$.servers")):
        path = f"$.servers.{tier}"
        *durations, tree = _fields(raw, _SERVER, path, optional=("attack_tree",))
        tree = None if tree is None else _parse_tree(tree, catalog, f"{path}.attack_tree")
        templates[tier] = _build(ServerTemplate, path, tier, tree, *durations,
                                 keys=_SERVER_FIELD_KEYS)

    edges, entry_tiers, target_tier = _fields(reachability, _REACHABILITY, "$.reachability")
    for i, edge in enumerate(edges):
        if type(edge) is not list or [type(tier) for tier in edge] != [str, str]:
            raise ModelError(f"$.reachability.edges[{i}]", "expected [from tier, to tier]")
    reach = _build(ReachabilityTemplate, "$.reachability", tuple(tiers),
                   frozenset(map(tuple, edges)),
                   frozenset(_strings(entry_tiers, "$.reachability.entry_tiers")), target_tier)

    designs = {label: _design(label, counts, tiers) for label, counts in designs.items()}

    interval, = _fields(policy or {}, {"interval_hours": float}, "$.patch_policy",
                        optional=("interval_hours",))
    policy = PatchPolicy() if interval is None else _build(PatchPolicy, "$.patch_policy", interval)
    bounds = None if bounds is None else make_bounds(bounds, "$.bounds")

    return Model(templates=templates, reachability=reach, designs=designs,
                 policy=policy, bounds=bounds)


def example_network_path() -> Path:
    """Path of the bundled example model file."""
    return Path(__file__).parent / "data" / "example_network.json"
