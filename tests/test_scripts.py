"""The timing scripts run on the library as it is: given one source tree
twice, each prints one line per side, under a heading per stage when it
times more than one."""

from pathlib import Path

import pytest
from conftest import run_python

import patchdesign
from patchdesign.model import example_network_path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, options, command, stages", [
    ("design_grid.py", ["--pairs", "1", "--n", "2"], [], 1),
    ("cold_start.py", ["--pairs", "1"], ["--", "security", "--model", str(example_network_path())], 1),
    ("chain_solves.py", ["--pairs", "1", "--k", "10"], [], 7),
], ids=["design-grid", "cold-start", "chain-solves"])
def test_timing_script_prints_one_line_per_side(script, options, command, stages):
    src = str(Path(patchdesign.__file__).resolve().parent.parent)
    proc = run_python(str(SCRIPTS / script), *options, src, src, *command)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    if stages > 1:  # each stage: a heading, then its two sides
        assert all(heading.endswith(":") for heading in lines[::3])
        del lines[::3]
    assert [line.split(": best ")[0] for line in lines] == [f"{src} (A)", f"{src} (B)"] * stages
