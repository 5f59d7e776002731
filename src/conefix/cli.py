"""Command line front end for the scenario registry.

Payloads (JSON or CSV) go to stdout or the --out target; human commentary
and the verdict line go to stderr, so piped output stays clean.  Exit code
0 means every requested verdict passed, 1 means at least one failed, and 2
means the request itself was invalid (unknown scenario, bad knob values, a
knob the scenario does not take).  --all hands each scenario only the
knobs it takes.
A valid request whose computation does not converge (NoConvergence) is a
failure, exit code 1, with the error on stderr and no payload.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConefixError, NoConvergence
from .scenarios import SCENARIOS, ScenarioConfig, ScenarioRun, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conefix",
        description="run desk-scale convergence scenarios for cone metric contractions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list available scenarios")
    lister.set_defaults(command="list")

    runner = sub.add_parser(
        "run",
        help="run one scenario (or --all) and emit its row table",
        description="Scenario knobs not given on the command line fall back "
        "to per-scenario defaults; 'conefix list' shows what exists.",
    )
    runner.add_argument("scenario", nargs="?", help="scenario name from 'conefix list'")
    runner.add_argument("--all", action="store_true",
                        help="run every scenario in turn; --out must be a directory")
    runner.add_argument("--tol", type=float, default=None,
                        help="solver tolerance override")
    runner.add_argument("--horizon", type=int, default=None,
                        help="probe horizon override")
    runner.add_argument("--grid-pts", type=int, default=None, dest="grid_pts",
                        help="grid size override")
    runner.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    runner.add_argument("--out", default=None,
                        help="output file, or directory with --all (default: stdout)")
    runner.add_argument("--format", choices=("json", "csv"), default="json",
                        help="payload format (default json)")
    return parser


def _payload(run: ScenarioRun, fmt: str) -> str:
    return run.to_json() if fmt == "json" else run.to_csv()


def _report_to_stderr(run: ScenarioRun) -> None:
    for note in run.notes:
        print(f"{run.name}: {note}", file=sys.stderr)
    print(f"{run.name}: verdict {'pass' if run.verdict else 'fail'}", file=sys.stderr)


def _run_all(args: argparse.Namespace, config: ScenarioConfig) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    invalid = False
    all_pass = True
    for name, scenario in SCENARIOS.items():
        try:
            run = run_scenario(name, config.declared_by(scenario))
        except NoConvergence as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            all_pass = False
            continue
        except (KeyError, ValueError, ConefixError) as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            invalid = True
            continue
        target = out_dir / f"{name}.{args.format}"
        target.write_text(_payload(run, args.format))
        _report_to_stderr(run)
        all_pass = all_pass and run.verdict
    if invalid:
        return 2
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for s in SCENARIOS.values():
            print(f"{s.name:<13} [{s.anchor}]  {s.summary}")
        return 0

    config = ScenarioConfig(
        tol=args.tol, horizon=args.horizon, grid_pts=args.grid_pts, seed=args.seed
    )
    if args.all:
        if args.scenario is not None:
            parser.error("give either a scenario name or --all, not both")
        if args.out is None:
            parser.error("--all writes one file per scenario; --out must name a directory")
        return _run_all(args, config)

    if args.scenario is None:
        parser.error("scenario name required (or use --all); see 'conefix list'")
    try:
        run = run_scenario(args.scenario, config)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ConefixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = _payload(run, args.format)
    if args.out is not None:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    _report_to_stderr(run)
    return 0 if run.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
