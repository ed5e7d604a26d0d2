"""Command-line front end: load -> build -> solve -> emit pipelines.

Each command imports the modules it runs, so ``security`` never loads
the SRN engine; ``run`` maps the errors of all of them to exit codes
without importing any."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import __version__
from .model import _SERVER_FIELD_KEYS, Bounds, ModelError, SrnError, load_model, make_bounds

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2


def _parse_bounds(text: str) -> Bounds:
    values = {}
    for pair in text.split(","):
        if not pair:
            continue
        key, eq, raw = pair.partition("=")
        if not eq:
            raise ModelError("bounds", f"expected key=value, got {pair!r}")
        if key in values:
            raise ModelError("bounds", f"bound {key!r} given twice")
        values[key] = _number(raw)
    return make_bounds(values)


def _number(text: str):
    """The int or float that ``text`` spells; otherwise ``text`` itself,
    which ``make_bounds`` rejects with the key it was given for."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _apply_rate_overrides(model, overrides):
    templates = dict(model.templates)
    seen = set()
    for item in overrides or []:
        target, eq, raw = item.rpartition("=")  # a tier name may hold '='; no number does
        tier, dot, param = target.rpartition(".")  # a tier name may hold a dot
        if not (eq and dot):
            raise ModelError("rate-override", f"expected tier.param=value, got {item!r}")
        if target in seen:
            raise ModelError("rate-override", f"{target!r} given twice")
        seen.add(target)
        if tier not in templates:
            raise ModelError("rate-override", f"{item!r}: unknown tier {tier!r}")
        if param not in _SERVER_FIELD_KEYS:
            raise ModelError("rate-override", f"{item!r}: unknown rate parameter {param!r} "
                             f"(expected one of {sorted(_SERVER_FIELD_KEYS)})")
        try:
            value = float(raw)
        except ValueError:
            raise ModelError("rate-override", f"{item!r}: {raw!r} is not a number") from None
        templates[tier] = dataclasses.replace(templates[tier], **{param: value})
    return dataclasses.replace(model, templates=templates)


def _select_designs(model, selector):
    if selector in (None, "all"):
        return sorted(model.designs.values(), key=lambda d: d.label)
    if selector not in model.designs:
        raise ModelError("design", f"unknown design {selector!r} "
                         f"(known: {sorted(model.designs)})")
    return [model.designs[selector]]


def _write_atomic(path: Path, content: str) -> None:
    # write-then-rename: error paths never leave a partial data file; the
    # file gets mode 0o666 less the umask, where mkstemp would give 0o600
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_rows(header, rows, fmt, out):
    """``rows`` of raw values under ``header``: as a JSON list of objects,
    or, each value but a string written by ``evaluate._fmt``, as CSV or
    a table padded to its column widths."""
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=2), file=out)
        return
    from .evaluate import _fmt

    rows = [[x if isinstance(x, str) else _fmt(x) for x in r] for r in rows]
    if fmt == "csv":
        print(",".join(header), file=out)
        for r in rows:
            print(",".join(str(x) for x in r), file=out)
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)), file=out)


def cmd_security(args, out) -> int:
    from . import evaluate

    model = load_model(args.model)
    evaluations = evaluate.Evaluator(model, args.patched).evaluate_all(
        _select_designs(model, args.design), coa=False)
    rows = [[e.label, e.patched, *e.metrics] for e in evaluations]
    _emit_rows(["design", "patched", "aim", "asp", "noev", "noap", "noep"],
               rows, args.format, out)
    return EXIT_OK


def cmd_availability(args, out) -> int:
    from . import evaluate

    model = _apply_rate_overrides(load_model(args.model), args.rate_override)
    designs = _select_designs(model, args.design)
    evaluator = evaluate.Evaluator(model)
    header = ["service", "mttp_hours", "patch_rate", "mttr_hours", "recovery_rate"]
    rows = [[tier, agg.mttp, agg.lambda_eq, agg.mttr, agg.mu_eq]
            for tier, agg in evaluator.rates.items()]
    coas = {e.label: e.coa for e in evaluator.evaluate_all(designs, security=False)}
    if args.format == "json":  # one document: the rate rows and each design's COA
        print(json.dumps({"rates": [dict(zip(header, r)) for r in rows], "coa": coas},
                         indent=2), file=out)
        return EXIT_OK
    _emit_rows(header, rows, args.format, out)
    for label, coa in coas.items():
        print(f"COA[{label}] = {coa:.6g}", file=out)
    return EXIT_OK


def cmd_compare(args, out) -> int:
    from . import evaluate

    model = _apply_rate_overrides(load_model(args.model), args.rate_override)
    designs = _select_designs(model, args.design)
    if args.bounds:
        bounds_list = [_parse_bounds(b) for b in args.bounds]
    else:
        bounds_list = [] if model.bounds is None else [model.bounds]
    result = evaluate.sweep(model, bounds_list, patched=args.patched,
                            designs=designs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_atomic(outdir / "scatter.csv", evaluate.scatter_csv(result.evaluations))
    _write_atomic(outdir / "radar.csv", evaluate.radar_csv(result.evaluations))
    _write_atomic(outdir / "regions.json", evaluate.regions_json(result.regions))
    print(f"wrote scatter.csv, radar.csv, regions.json to {outdir}", file=out)
    for bounds, accepted in result.regions:
        print(f"accepted: {', '.join(accepted) if accepted else '(none)'}", file=out)
    return EXIT_OK


def cmd_solve_srn(args, out) -> int:
    from . import netfile, srn

    doc = netfile.parse_net(Path(args.netfile).read_text())
    state_cap = srn.DEFAULT_STATE_CAP if args.state_cap is None else args.state_cap
    solution, rewards = netfile.solve_document(doc, state_cap=state_cap)
    print(f"tangible states: {len(solution.states)}", file=out)
    print(f"residual: {solution.residual:.3g}", file=out)
    order = sorted(range(len(solution.states)), key=lambda i: -solution.pi[i])
    for i in order[:10]:
        print(f"  pi{solution.states[i]} = {solution.pi[i]:.6g}", file=out)
    if len(order) > 10:
        print(f"  ... {len(order) - 10} more states", file=out)
    for name in sorted(rewards):
        print(f"reward {name} = {rewards[name]:.6g}", file=out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="patchdesign",
        description="Evaluate server-redundancy designs under security "
                    "patching: attack-model metrics and capacity-oriented "
                    "availability.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add_model_args(p):
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--design", default="all", help="design label, or 'all'")

    def add_override_args(p):  # the server rates: read by availability and compare
        p.add_argument("--rate-override", action="append", metavar="tier.param=value")

    def add_patch_args(p):
        patch = p.add_mutually_exclusive_group()
        patch.add_argument("--patched", dest="patched", action="store_true",
                           default=True)
        patch.add_argument("--unpatched", dest="patched", action="store_false")

    p = sub.add_parser("security", help="print security metric rows")
    add_model_args(p)
    add_patch_args(p)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")

    p = sub.add_parser("availability", help="print aggregated rates and COA")
    add_model_args(p)
    add_override_args(p)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")

    p = sub.add_parser("compare", help="sweep designs and write comparison files")
    add_model_args(p)
    add_override_args(p)
    add_patch_args(p)
    p.add_argument("--bounds", action="append",
                   metavar="phi=..,psi=..[,xi=..,omega=..,kappa=..]",
                   help="bound set, repeatable (default: the model file's bounds)")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("solve-srn", help="solve a textual net file")
    p.add_argument("netfile")
    p.add_argument("--state-cap", type=int)  # default: srn.DEFAULT_STATE_CAP
    return parser


_COMMANDS = {
    "security": cmd_security,
    "availability": cmd_availability,
    "compare": cmd_compare,
    "solve-srn": cmd_solve_srn,
}


def run(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    parser = build_parser()
    try:
        # argparse writes --help and --version to sys.stdout and usage
        # errors to sys.stderr; send them to out and err
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 is reserved for solver failures
        return EXIT_OK if e.code in (0, None) else EXIT_VALIDATION
    if args.command is None:
        parser.print_usage(err)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args, out)
    except (OSError, ValueError) as e:  # file I/O, ModelError, netfile.NetFileError
        print(f"error: {e}", file=err)
        return EXIT_VALIDATION
    except SrnError as e:
        print(f"solver error: {e}", file=err)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
