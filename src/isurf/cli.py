"""Command-line scenario runner.

Exit codes: 0 all checks pass, 1 a check failed or errored, 2 usage errors.
Reports are deterministic for a fixed seed; wall-clock timing is only
included when --timing is passed, so default output is byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import UnknownScenario
from .scenarios import Params, find_scenario, list_scenarios, run
from .tsing import DEFAULT_ORDER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isurf",
        description="Exact verification scenarios for T-singular I-surfaces.")
    parser.add_argument("--scenario", metavar="NAME", help="run one scenario")
    parser.add_argument("--all", action="store_true", help="run every scenario")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    parser.add_argument("--tag", help="filter the listing by tag")
    parser.add_argument("--param", action="append", default=[], metavar="K=V",
                        help="parameter override, e.g. theta=0 or tau=1/2; the scenario "
                             "(with --all, some scenario) must read it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--order", type=int, default=DEFAULT_ORDER,
                        help="cap on the series truncation order for germ computations "
                             "(at least 1); each germ runs at the lowest order that decides it")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    parser.add_argument("--timing", action="store_true",
                        help="include elapsed_ms in reports (non-deterministic)")
    return parser


def parse_params(args) -> Params:
    """The --param values, each a name that some scenario reads, and the
    seed and order."""
    names = sorted({name for s in list_scenarios() for name in s.params})
    values = {}
    for item in args.param:
        if "=" not in item:
            raise ValueError(f"--param needs K=V, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in names:
            raise ValueError(f"unknown parameter {key!r} (choices: {', '.join(names)})")
        try:
            values[key] = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--param {key} needs a rational number, got {raw.strip()!r}") from None
    if args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    return Params(seed=args.seed, order=args.order, values=values)


def render_text(report: dict) -> str:
    lines = [f"scenario {report['scenario']}: {report['status'].upper()}"
             + (f"  [{report['elapsed_ms']} ms]" if "elapsed_ms" in report else "")]
    for c in report["checks"]:
        mark = "ok " if c["ok"] else "FAIL"
        lines.append(f"  [{mark}] {c['desc']}")
        if not c["ok"]:
            lines.append(f"         expected: {c['expected']}")
            lines.append(f"         actual:   {c['actual']}")
        lines.append(f"         ({c['provenance']}; {c['anchor']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = parse_params(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list:
        scenarios = list_scenarios(args.tag)
        if args.format == "json":
            payload = json.dumps([
                {"name": s.name, "tags": list(s.tags), "anchor": s.anchor}
                for s in scenarios], indent=1)
        else:
            payload = "\n".join(f"{s.name:20s} [{', '.join(s.tags)}]  {s.anchor}"
                                for s in scenarios)
        code = 0
    elif args.all:
        reports = [run(s.name, params, args.timing) for s in list_scenarios()]
        combined = {"seed": params.seed, "scenarios": reports}
        if args.format == "json":
            payload = json.dumps(combined, indent=1)
        else:
            payload = "\n\n".join(render_text(r) for r in reports)
        code = 0 if all(r["status"] == "pass" for r in reports) else 1
    elif args.scenario:
        try:
            chosen = find_scenario(args.scenario)
        except UnknownScenario as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        unread = [key for key in params.values if key not in chosen.params]
        if unread:
            print(f"error: scenario {chosen.name} does not read parameter {unread[0]!r} "
                  f"(it reads: {', '.join(chosen.params) or 'none'})", file=sys.stderr)
            return 2
        report = run(chosen.name, params, args.timing)
        payload = json.dumps(report, indent=1) if args.format == "json" else render_text(report)
        code = 0 if report["status"] == "pass" else 1
    else:
        parser.print_usage(sys.stderr)
        return 2

    if not args.out:
        print(payload)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(payload)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
