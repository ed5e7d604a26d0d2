"""Timing of two source trees in alternating pairs, for the scripts here.

Each pair measures both trees, each in a fresh interpreter whose
PYTHONPATH is the tree, in alternating order, so drift on a shared
machine falls on both trees alike.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys


def parser(doc: str, pairs: int) -> argparse.ArgumentParser:
    """A parser taking ``--pairs`` (default ``pairs``) and the two trees."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=pairs)
    p.add_argument("trees", nargs=2, metavar="SRC", help="a directory holding patchdesign")
    return p


def run_python(src: str, args: list, **kwargs) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter with ``src`` as its PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, check=True, **kwargs)


def alternate(trees: list, pairs: int, measure) -> dict:
    """{"tree (A)", "tree (B)": [measure(tree) in each pair]}, the two
    sides taken in alternating order.  The timings are keyed by side, so
    an A/A run, one tree given twice, keeps its sides apart: their
    spread is the noise floor."""
    sides = [(f"{src} ({side})", src) for side, src in zip("AB", trees)]
    times = {key: [] for key, _ in sides}
    for pair in range(pairs):
        for key, src in (sides if pair % 2 == 0 else sides[::-1]):
            times[key].append(measure(src))
    return times


def report(times: dict, unit: str, digits: int) -> None:
    """Print the best and the median of each side's measurements."""
    for side, values in times.items():
        print(f"{side}: best {min(values):.{digits}f} {unit}, "
              f"median {statistics.median(values):.{digits}f} {unit} over {len(values)} runs")
