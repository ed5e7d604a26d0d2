import math
import shlex
import string
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patchdesign import netfile, srn
from patchdesign.guards import parse_guard

TWO_STATE = """
# simple repairable component
place up 1
place down 0
timed fail rate=0.25 in=up out=down
timed repair rate=1.0 in=down out=up
reward avail "#up == 1" = 1.0
"""

GUARDED = """
place a 1
place b 0
place c 0
timed start rate=2.0 in=a out=b
immediate route weight=2 guard="#b == 1" in=b out=c
timed finish rate=1.0 in=c out=a
reward busy "#c == 1" = 1.0
reward busy "#b == 1" = 0.5
"""


def test_parse_two_state():
    doc = netfile.parse_net(TWO_STATE)
    assert set(doc.net.places) == {"up", "down"}
    assert len(doc.net.transitions) == 2
    assert "avail" in doc.rewards


def test_solve_two_state():
    doc = netfile.parse_net(TWO_STATE)
    solution, values = netfile.solve_document(doc)
    assert len(solution.states) == 2
    assert values["avail"] == pytest.approx(1.0 / 1.25, rel=1e-12)


def test_guarded_immediate_and_reward_clause_order():
    doc = netfile.parse_net(GUARDED)
    solution, values = netfile.solve_document(doc)
    # marking b is vanishing; only a and c remain
    assert len(solution.states) == 2
    p_c = solution.probability(lambda m: m["c"] == 1)
    assert values["busy"] == pytest.approx(p_c, rel=1e-12)


def test_marking_dependent_rate():
    doc = netfile.parse_net("""
place pool 3
place out 0
timed drain rate=0.5*#pool in=pool out=out
timed refill rate=2.0*#out in=out out=pool
""")
    graph = srn.reachability(doc.net)
    assert len(graph.tangible) == 4


def test_arc_multiplicity():
    doc = netfile.parse_net("""
place a 2
place b 0
timed t rate=1.0 in=a:2 out=b:2
timed back rate=1.0 in=b:2 out=a:2
""")
    graph = srn.reachability(doc.net)
    assert len(graph.tangible) == 2


def test_repeated_arc_place_sums_multiplicities():
    # in=a,a takes two tokens from a, as in=a:2 does; with one token in a
    # the transition stays disabled rather than reaching a negative marking
    for arcs in ("a,a", "a:2", "a:1,a"):
        doc = netfile.parse_net(f"""
place a 1
place b 0
timed t rate=1.0 in={arcs} out=b
timed back rate=1.0 in=b out=a
""")
        graph = srn.reachability(doc.net)
        assert [str(m) for m in graph.tangible] == ["{a:1}"]


@pytest.mark.parametrize("line,fragment", [
    ("place", "usage"),
    ("place a 1\nplace a 2", "duplicate"),
    ("widget w", "unknown statement"),
    ("timed t rate=1.0 in=missing out=missing", "unknown place"),
    ("place a 1\ntimed t in=a out=a", "needs rate"),
    ('place a 1\nreward r "#a == 1" 1.0', "usage"),
    ('place a 1\ntimed t rate=1.0 guard="#a ==" in=a out=a', "offset"),
    ("place a 1\nplace b 0\nimmediate x wieght=5 in=a out=b", "line 3: unknown key 'wieght'"),
    ("place a 1\ntimed v rate=3 priority=4 in=a out=a", "line 2: unknown key 'priority'"),
    ("place a 1\ntimed t rate=1 rate=2 in=a out=a", "line 2: duplicate key 'rate'"),
])
def test_errors_carry_line_numbers(line, fragment):
    with pytest.raises(netfile.NetFileError, match=fragment):
        netfile.parse_net(line)


# the documented grammar: runs of characters other than blanks and double
# quotes, and double-quoted text with blanks, a run and quoted text
# joined into one token; no backslash, and no single quote outside quotes
_BARE = st.text(string.ascii_letters + string.digits + "_.:,=*#+-<>!&|()",
                min_size=1, max_size=8)
_QUOTED = st.text(string.ascii_letters + string.digits + "_#=<>!&|() \t'",
                  max_size=10).map(lambda text: f'"{text}"')
_TOKEN = st.lists(st.one_of(_BARE, _QUOTED), min_size=1, max_size=3).map("".join)
_BLANKS = st.text(" \t", min_size=1, max_size=3)


@given(st.lists(st.tuples(_TOKEN, _BLANKS), max_size=6), st.sampled_from(["", " ", "\t "]))
@example([('immediate', ' '), ('route', ' '), ('guard="#b == 1"', ' '), ('in=b', ' ')], "")
@example([('reward', ' '), ('L', '\t'), ('"#free == 0 && #busy > 1"', ' '), ('=', ' '),
          ('1', ' ')], "")
@example([('""', ' '), ('a""b', ' '), ('"x"y"z"', ' ')], "")
def test_lexer_reads_the_documented_grammar_as_shlex_does(tokens, lead):
    line = lead + "".join(token + blanks for token, blanks in tokens)
    assert netfile._tokens(line) == shlex.split(line)


UP_DOWN = """place up 1
place down 0
timed fail rate=1 in=up out=down
timed repair rate=2 in=down out=up
"""


@pytest.mark.parametrize("text, message", [
    # a misspelt reward place used to end solve-srn in a KeyError
    (UP_DOWN + 'reward u "#upp == 1" = 1\n',
     "line 5: reward 'u' references unknown place(s) ['upp']"),
    ('place a 1\nreward r "#a == 1 || #b > 0" = 1\nplace c 0\n',
     "line 2: reward 'r' references unknown place(s) ['b']"),
    # a copy-pasted transition used to be kept and fired beside the first
    (UP_DOWN + "timed fail rate=5 in=up out=down\n", "line 5: duplicate transition 'fail'"),
    ("place a 1\nimmediate t in=a out=a\ntimed t rate=1 in=a out=a\n",
     "line 3: duplicate transition 't'"),
    ('place a 1\nreward r "#a == 1 = 1\n', "line 2: No closing quotation"),
    # each number names its field, where int() and float() used to speak
    ("place a 1\nplace b 0\nplace c x\n", "line 3: bad token count 'x'"),
    ("place a 1\nplace b -1\n", "line 2: negative initial tokens for 'b'"),
    ("place a 1\nimmediate i weight=x in=a out=a\n", "line 2: bad weight 'x'"),
    ("place a 1\nimmediate i priority=1.5 in=a out=a\n", "line 2: bad priority '1.5'"),
    ('place a 1\nreward r "#a == 1" = x\n', "line 2: bad reward value 'x'"),
    ("place a 1\ntimed t rate=1.2.3 in=a out=a\n", "line 2: bad rate '1.2.3'"),
    ("place a 1\ntimed t rate=x*#a in=a out=a\n", "line 2: bad rate 'x'"),
    ("place a 1\ntimed t rate=1 in=a:x out=a\n", "line 2: bad arc multiplicity 'x'"),
], ids=["misspelt-reward-place", "undeclared-reward-place", "duplicate-timed",
        "duplicate-across-kinds", "unclosed-quote", "bad-token-count", "negative-tokens",
        "bad-weight", "bad-priority", "bad-reward-value", "bad-rate-constant",
        "bad-rate-of-a-place", "bad-multiplicity"])
def test_error_messages(text, message):
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(text)
    assert str(info.value) == message


def test_rate_parameters_are_bound_by_the_caller():
    text = UP_DOWN.replace("rate=1 ", "rate=$lam*#up ").replace("rate=2 ", "rate=$mu ")
    doc = netfile.parse_net(text, {"lam": 0.5, "mu": 2.0, "unused": 1.0})
    assert [(t.name, t.rate) for t in doc.net.transitions] == \
        [("fail", srn.RateExpr(0.5, "up")), ("repair", srn.RateExpr(2.0))]
    assert doc.parameters == {"fail": "lam", "repair": "mu"}
    # a parameter bound to 0 leaves its transition out; a written 0 is refused
    assert [t.name for t in netfile.parse_net(text, {"lam": 0, "mu": 2.0}).net.transitions] \
        == ["repair"]
    with pytest.raises(netfile.NetFileError, match="^line 3: .* got 0.0$"):
        netfile.parse_net(UP_DOWN.replace("rate=1 ", "rate=0 "), {"lam": 0})
    # a left-out transition's name is taken all the same: a second 'fail',
    # left out or kept, is refused whatever lam is bound to
    for rate in ("$lam", "1"):
        for lam in (0, 2.0):
            with pytest.raises(netfile.NetFileError) as info:
                netfile.parse_net(text + f"timed fail rate={rate} in=down out=up\n",
                                  {"lam": lam, "mu": 2.0})
            assert str(info.value) == "line 5: duplicate transition 'fail'"
    # a parameter nobody binds is refused at its line, by name
    for params in (None, {"lam": 0.5}):
        with pytest.raises(netfile.NetFileError) as info:
            netfile.parse_net(text.replace("$lam", "1"), params)
        assert str(info.value) == "line 4: unbound rate parameter 'mu'"


def test_reward_may_name_a_place_declared_further_down():
    doc = netfile.parse_net('reward u "#up == 1" = 1\n' + UP_DOWN)
    _, values = netfile.solve_document(doc)
    assert values["u"] == pytest.approx(2 / 3, rel=1e-12)


# statement -> its error after "line 2: "; a single-quoted guard with a
# blank used to read as "unknown key ''", from the "==" the blank split off
_SHELL_QUOTING = {
    "timed t rate=1 guard='#a == 1' in=a out=a":
        "single quote in guard \"'#a\": group text with double quotes",
    "timed t rate=1 guard='#a==1' in=a out=a":
        "single quote in guard \"'#a==1'\": group text with double quotes",
    'timed t rate=1 guard="#a == \\"1\\"" in=a out=a': "unexpected character '\\\\' at offset 6",
    "timed t rate=1\\.5 in=a out=a": "bad rate '1\\\\.5'",
    "timed t rate=1 in=a\\ out=a": "transition 't' references unknown place(s) ['a\\\\']",
    "reward r '#a == 1' = 1": "single quote in guard \"'#a\": group text with double quotes",
    'reward r "#a == 1" = \\1': "bad reward value '\\\\1'",
}


@pytest.mark.parametrize("statement", list(_SHELL_QUOTING))
def test_shell_quoting_is_an_error_at_its_line(statement):
    # single quotes and backslash escapes are not in the grammar: each such
    # value is refused, where shlex used to read it as the shell does
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(f"place a 1\n{statement}\n")
    assert str(info.value) == f"line 2: {_SHELL_QUOTING[statement]}"


def test_a_name_holding_a_single_quote_reads_literally():
    doc = netfile.parse_net("place a'b 1\nplace 'c 0\n"
                            "timed t' rate=1 in=a'b out='c\ntimed 'u rate=2 in='c out=a'b\n")
    assert list(doc.net.places) == ["a'b", "'c"]
    assert [str(m) for m in srn.reachability(doc.net).tangible] == ["{a'b:1}", "{'c:1}"]


@pytest.mark.parametrize("statement,fragment", [
    ("timed t rate=1e999 in=a out=b", "rate constant must be positive and finite, got inf"),
    ("timed t rate=1e999*#a in=a out=b", "rate constant must be positive and finite, got inf"),
    ("timed t rate=nan in=a out=b", "rate constant must be positive and finite, got nan"),
    ("immediate i weight=nan in=a out=b", "weight must be positive and finite, got nan"),
    ("immediate i weight=inf in=a out=b", "weight must be positive and finite, got inf"),
    ('reward r "#a == 1" = nan', "reward value must be finite, got nan"),
    ('reward r "#a == 1" = inf', "reward value must be finite, got inf"),
    ('reward r "#a == 1" = -inf', "reward value must be finite, got -inf"),
])
def test_non_finite_rate_or_weight_rejected(statement, fragment):
    with pytest.raises(netfile.NetFileError, match=f"line 3: .*{fragment}"):
        netfile.parse_net(f"place a 1\nplace b 0\n{statement}\n")


def _library_error(add):
    """The message of the ValueError that ``add`` raises on a net with the
    one place ``a``, which must keep no transition."""
    net = srn.Net()
    net.add_place("a", 1)
    with pytest.raises(ValueError) as info:
        add(net)
    assert net.transitions == []
    return str(info.value)


# an undeclared place named by an arc, a guard, a marking-dependent rate or
# a reward's guard: one message, naming the owner and every such place,
# from a net file and from Net.add_*
@pytest.mark.parametrize("statement, add, message", [
    ("timed t rate=1 in=q out=a", lambda net: net.add_timed("t", 1.0, ["q"], ["a"]),
     "transition 't' references unknown place(s) ['q']"),
    ("immediate t in=a out=q,r:2", lambda net: net.add_immediate("t", ["a"], {"q": 1, "r": 2}),
     "transition 't' references unknown place(s) ['q', 'r']"),
    ('timed t rate=1 guard="#r == 1 || #q > 0" in=a out=a',
     lambda net: net.add_timed("t", 1.0, ["a"], ["a"], parse_guard("#r == 1 || #q > 0")),
     "transition 't' references unknown place(s) ['q', 'r']"),
    ("timed t rate=2*#q in=a out=a",
     lambda net: net.add_timed("t", srn.RateExpr(2.0, "q"), ["a"], ["a"]),
     "transition 't' references unknown place(s) ['q']"),
    ('immediate t guard="#q == 0" in=r out=a',
     lambda net: net.add_immediate("t", ["r"], ["a"], parse_guard("#q == 0")),
     "transition 't' references unknown place(s) ['q', 'r']"),
    ('reward t "#a == 1 && #q == 0" = 1', None,
     "reward 't' references unknown place(s) ['q']"),
], ids=["arc-in", "arcs-out", "timed-guard", "rate", "immediate-guard-and-arc", "reward"])
def test_undeclared_place_reads_the_same_every_way_in(statement, add, message):
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(f"place a 1\n{statement}\n")
    assert str(info.value) == f"line 2: {message}"
    if add is not None:
        assert _library_error(add) == message


# a transition whose rate parameter is bound to 0 is left out, but only
# after the place checks of its arcs, guard and rate place: bound to 0 or
# to a rate, a fault reads the same
@pytest.mark.parametrize("statement, places", [
    ("timed t rate=$p in=q out=a", "['q']"),
    ('timed t rate=$p guard="#q == 0" in=a out=r', "['q', 'r']"),
    ("timed t rate=$p*#q in=a out=a", "['q']"),
], ids=["arc", "guard-and-arc", "rate"])
@pytest.mark.parametrize("bound", [0, 1.0])
def test_undeclared_place_of_a_parameter_bound_to_0_is_refused(statement, places, bound):
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(f"place a 1\n{statement}\n", {"p": bound})
    assert str(info.value) == f"line 2: transition 't' references unknown place(s) {places}"


# a guard grouped by single quotes, with or without blanks in it, of a
# transition or of a reward: one message, naming the guard text up to
# the first blank
@pytest.mark.parametrize("statement, text", [
    ("timed t rate=1 guard='#a==1' in=a out=a", "'#a==1'"),
    ("timed t rate=1 guard='#a == 1' in=a out=a", "'#a"),
    ("immediate t guard='true' in=a out=a", "'true'"),
    ("reward r '#a==1' = 1", "'#a==1'"),
    ("reward r '#a == 1' = 1", "'#a"),
    ("reward r '#a", "'#a"),
])
def test_single_quoted_guard_reads_the_same_every_way_in(statement, text):
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(f"place a 1\n{statement}\n")
    assert str(info.value) == f"line 2: single quote in guard {text!r}: " \
                              "group text with double quotes"


# a rate constant or a weight that is a number but not positive and
# finite: one message from a net file, with or without a rate place, and
# from Net.add_timed and Net.add_immediate, whatever its spelling
@pytest.mark.parametrize("text", ["inf", "1e999", "-inf", "nan", "0", "-1", "+0.0"])
def test_rate_constant_fault_reads_the_same_every_way_in(text):
    value = float(text)
    errors = []
    for statement in (f"timed t rate={text} in=a out=a", f"timed t rate={text}*#a in=a out=a",
                      f"immediate t weight={text} in=a out=a"):
        with pytest.raises(netfile.NetFileError) as info:
            netfile.parse_net(f"place a 1\n{statement}\n")
        errors.append(str(info.value))
    errors += [_library_error(lambda net: net.add_timed("t", rate, ["a"], ["a"]))
               for rate in (value, srn.RateExpr(value), srn.RateExpr(value, "a"))]
    errors.append(_library_error(lambda net: net.add_immediate("t", ["a"], ["a"], weight=value)))
    rate, weight = (f"transition 't': {what} must be positive and finite, got {value!r}"
                    for what in ("rate constant", "weight"))
    assert errors == [f"line 2: {rate}", f"line 2: {rate}", f"line 2: {weight}",
                      rate, rate, rate, weight]


def test_unknown_guard_place_rejected():
    with pytest.raises(netfile.NetFileError, match="unknown place"):
        netfile.parse_net(
            'place a 1\ntimed t rate=1.0 guard="#nope == 1" in=a out=a')


def pool_net(tokens, repair, fail):
    """Repairable pool that starts with every unit down."""
    return netfile.parse_net(f"""
place down {tokens}
place up 0
timed repair rate={repair}*#down in=down out=up
timed fail rate={fail}*#up in=up out=down
reward avail "#down == 0" = 1.0
""")


def test_rare_initial_marking_solves_exactly():
    # the solve pins the initial marking first, then re-pins at the most
    # probable one; the initial marking's probability is
    # (1e-4 / 1.0001)^12, about 1e-48
    solution, values = netfile.solve_document(pool_net(12, 10.0, 0.001))
    assert solution.states[0]["down"] == 12
    assert values["avail"] == pytest.approx(1.0001 ** -12, rel=1e-12)


def test_rare_states_solve_to_a_small_relative_error():
    # re-pinned at the most probable marking, the solve finds even the
    # rarest marking (pi near 1e-48) to a small relative error; pinned at
    # the initial marking only, the seven rarest came out as exactly 0
    solution, _ = netfile.solve_document(pool_net(12, 10.0, 0.001))
    up, down = 10.0 / 10.001, 0.001 / 10.001
    assert len(solution.states) == 13
    for m, p in zip(solution.states, solution.pi):
        k = m["down"]
        exact = math.comb(12, k) * down ** k * up ** (12 - k)
        assert abs(p - exact) <= 1e-9 * exact, (k, p, exact)


def test_initial_marking_below_float_range_solves():
    # the initial marking has probability near 1e-600: the state reduction
    # pins it, rescales x as it grows, and finds it 0 beside the rest
    solution, values = netfile.solve_document(pool_net(3, 1e100, 1e-100))
    assert [m["down"] for m in solution.states] == [3, 2, 1, 0]
    assert solution.pi == [0.0, 0.0, pytest.approx(3e-200, rel=1e-12), 1.0]
    assert values["avail"] == 1.0
    # over Fractions pi is exact, also where x passes float range after
    # the rescale: at 1e300 and 1e-300 the float solve is singular
    doc = pool_net(3, 1e300, 1e-300)
    graph = srn.reachability(doc.net)
    up = Fraction(1e300) / (Fraction(1e300) + Fraction(1e-300))
    assert srn.solve_graph(graph, [Fraction(c) for c in doc.net.constants()]).pi == [
        math.comb(3, m["up"]) * up ** m["up"] * (1 - up) ** (3 - m["up"]) for m in graph.tangible]


def test_two_pools_of_3000_tokens_solve_to_the_binomial():
    # each token flips between a and b at rate 1 both ways, so #b is
    # binomial(3000, 1/2) and the initial marking has pi = 2^-3000; the
    # chain's 3 000 updates are within the state reduction's budget
    doc = netfile.parse_net("place a 3000\nplace b 0\n"
                            "timed fa rate=1*#a in=a out=b\n"
                            "timed fb rate=1*#b in=b out=a\n")
    solution = srn.solve(doc.net)
    assert len(solution.states) == 3001
    assert solution.residual <= srn.RESIDUAL_TOLERANCE
    for m, p in zip(solution.states, solution.pi):
        exact = math.comb(3000, m["b"]) / 2 ** 3000  # correctly rounded
        if exact > 1e-290:
            assert abs(p - exact) <= 1e-12 * exact, (m, p, exact)
        else:
            assert p <= 1e-290, (m, p, exact)


def test_initial_marking_below_float_range_is_singular_to_the_sparse_kernel(monkeypatch):
    # the same verdict from the kernel that solves chains above the update
    # budget: this pool's chain takes 3 updates
    monkeypatch.setattr(srn, "GTH_UPDATES", 2)
    monkeypatch.setattr(srn, "_gth_kernel", None)
    with pytest.raises(srn.SrnError, match="failed at 4 tangible states: .*singular"):
        srn.solve(pool_net(3, 1e100, 1e-100).net)
