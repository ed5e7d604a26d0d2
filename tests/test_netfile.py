import math
import shlex
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patchdesign import netfile, srn

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
     "line 5: guard references unknown place(s): ['upp']"),
    ('place a 1\nreward r "#a == 1 || #b > 0" = 1\nplace c 0\n',
     "line 2: guard references unknown place(s): ['b']"),
    # a copy-pasted transition used to be kept and fired beside the first
    (UP_DOWN + "timed fail rate=5 in=up out=down\n", "line 5: duplicate transition 'fail'"),
    ("place a 1\nimmediate t in=a out=a\ntimed t rate=1 in=a out=a\n",
     "line 3: duplicate transition 't'"),
    ('place a 1\nreward r "#a == 1 = 1\n', "line 2: No closing quotation"),
], ids=["misspelt-reward-place", "undeclared-reward-place", "duplicate-timed",
        "duplicate-across-kinds", "unclosed-quote"])
def test_error_messages(text, message):
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(text)
    assert str(info.value) == message


def test_reward_may_name_a_place_declared_further_down():
    doc = netfile.parse_net('reward u "#up == 1" = 1\n' + UP_DOWN)
    _, values = netfile.solve_document(doc)
    assert values["u"] == pytest.approx(2 / 3, rel=1e-12)


@pytest.mark.parametrize("statement", [
    "timed t rate=1 guard='#a == 1' in=a out=a",
    "timed t rate=1 guard='#a==1' in=a out=a",
    'timed t rate=1 guard="#a == \\"1\\"" in=a out=a',
    "timed t rate=1\\.5 in=a out=a",
    "timed t rate=1 in=a\\ out=a",
    "reward r '#a == 1' = 1",
    'reward r "#a == 1" = \\1',
])
def test_shell_quoting_is_an_error_at_its_line(statement):
    # single quotes and backslash escapes are not in the grammar: each such
    # value is refused, where shlex used to read it as the shell does
    with pytest.raises(netfile.NetFileError) as info:
        netfile.parse_net(f"place a 1\n{statement}\n")
    assert str(info.value).startswith("line 2: ") and "\n" not in str(info.value)


@pytest.mark.parametrize("statement,fragment", [
    ("timed t rate=1e999 in=a out=b", "rate constant must be positive and finite, got inf"),
    ("timed t rate=1e999*#a in=a out=b", "rate constant must be positive and finite, got inf"),
    ("timed t rate=nan in=a out=b", "bad rate"),
    ("immediate i weight=nan in=a out=b", "weight must be positive and finite, got nan"),
    ("immediate i weight=inf in=a out=b", "weight must be positive and finite, got inf"),
    ('reward r "#a == 1" = nan', "reward value must be finite, got nan"),
    ('reward r "#a == 1" = inf', "reward value must be finite, got inf"),
    ('reward r "#a == 1" = -inf', "reward value must be finite, got -inf"),
])
def test_non_finite_rate_or_weight_rejected(statement, fragment):
    with pytest.raises(netfile.NetFileError, match=f"line 3: .*{fragment}"):
        netfile.parse_net(f"place a 1\nplace b 0\n{statement}\n")


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


def test_initial_marking_below_float_range_fails_loudly():
    # the initial marking has probability near 1e-600, so the system with
    # its equation pinned is singular in double precision
    with pytest.raises(srn.SrnError, match="steady-state solve failed.*singular"):
        netfile.solve_document(pool_net(3, 1e100, 1e-100))


def test_initial_marking_below_float_range_is_singular_to_the_sparse_kernel(monkeypatch):
    # the same verdict from the kernel that solves chains above the update
    # budget: this pool's chain takes 3 updates
    monkeypatch.setattr(srn, "GTH_UPDATES", 2)
    monkeypatch.setattr(srn, "_gth_kernel", None)
    with pytest.raises(srn.SrnError, match="failed at 4 tangible states: .*singular"):
        srn.solve(pool_net(3, 1e100, 1e-100).net)
