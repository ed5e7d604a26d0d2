import pytest

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


@pytest.mark.parametrize("line,fragment", [
    ("place", "usage"),
    ("place a 1\nplace a 2", "duplicate"),
    ("widget w", "unknown statement"),
    ("timed t rate=1.0 in=missing out=missing", "unknown place"),
    ("place a 1\ntimed t in=a out=a", "needs rate"),
    ('place a 1\nreward r "#a == 1" 1.0', "usage"),
    ('place a 1\ntimed t rate=1.0 guard="#a ==" in=a out=a', "offset"),
])
def test_errors_carry_line_numbers(line, fragment):
    with pytest.raises(netfile.NetFileError, match=fragment):
        netfile.parse_net(line)


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
    # steady_state pins the initial marking; here its probability is
    # (1e-4 / 1.0001)^12, about 1e-48
    solution, values = netfile.solve_document(pool_net(12, 10.0, 0.001))
    assert solution.states[0]["down"] == 12
    assert values["avail"] == pytest.approx(1.0001 ** -12, rel=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_initial_marking_below_float_range_fails_loudly():
    # the initial marking has probability near 1e-600, so the system with
    # its equation pinned is singular in double precision
    with pytest.raises(srn.SrnError, match="steady-state solve failed"):
        netfile.solve_document(pool_net(3, 1e100, 1e-100))
