"""The bench's tracer wraps the program's functions and methods by name,
so a name it wraps that the program drops or renames would fail only in
a traced bench run; here it fails in the suite.  ``bench/tracer.py`` is
loaded from its file as it stands."""

import importlib.util
import io
from pathlib import Path

from patchdesign import cli, netfile, simulate
from patchdesign.model import example_network_path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

TWO_STATE_NET = """\
place up 1
place down 0
timed fail rate=0.5 in=up out=down
timed repair rate=2 in=down out=up
reward avail "#up == 1" = 1
"""


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_every_name_it_patches(tmp_path):
    net = tmp_path / "two_state.net"
    net.write_text(TWO_STATE_NET)
    out, err = io.StringIO(), io.StringIO()
    tracer = _tracer()
    tracer.install(0)
    try:
        patched = list(tracer._patches)
        codes = [cli.run(["compare", "--model", str(example_network_path()),
                          "--out", str(tmp_path)], out, err),
                 cli.run(["solve-srn", str(net)], out, err)]
        simulate.simulate_reward(netfile.parse_net(TWO_STATE_NET).net,
                                 lambda m: float(m["up"]), hours=10.0)
    finally:
        tracer.uninstall()
    assert (codes, err.getvalue()) == ([0, 0], "")
    spans = {span[3] for span in tracer.spans}
    assert {"cli.run", "srn.reachability", "simulate.wall"} <= spans
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
