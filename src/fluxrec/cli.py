"""Command-line entry points: run, forward, report.

The argparse parser alone describes the command line: it prints ``--help``
and a failing command's usage, and picks the ``_cmd_*`` function to run.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import RunConfig, build_run, parse_config
from .driver import PartialRunError, run_adaptive
from .export import (
    export_flux_txt,
    export_history_csv,
    export_vtk,
    read_history_csv,
    write_measurement,
)
from .problems import (
    MEASUREMENT_LEVELS,
    builtin_problem,
    generate_measurement,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fluxrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the adaptive pipeline")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides out_dir in config)")
    p_run.set_defaults(run=_cmd_run)

    p_fwd = sub.add_parser("forward", help="generate a measurement file")
    p_fwd.add_argument("--problem", default="square_smooth")
    p_fwd.add_argument("--noise", type=float, default=0.0)
    p_fwd.add_argument("--seed", type=int, default=0)
    p_fwd.add_argument("--levels", type=int, default=MEASUREMENT_LEVELS)
    p_fwd.add_argument("--out", default="measurement.txt")
    p_fwd.set_defaults(run=_cmd_forward)

    p_rep = sub.add_parser("report", help="print a summary table")
    p_rep.add_argument("--history", required=True, help="history CSV path")
    p_rep.set_defaults(run=_cmd_report)
    return parser


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg: RunConfig = parse_config(fh.read())
    out_dir = args.out if args.out is not None else cfg.out_dir
    problem, loop = build_run(cfg)
    os.makedirs(out_dir, exist_ok=True)
    try:
        history = run_adaptive(problem, loop)
    except PartialRunError as exc:
        # keep the iterations that finished before the solver failed
        if exc.history.records:
            export_history_csv(exc.history,
                               os.path.join(out_dir, "history.csv"))
        print(f"error: {exc}", file=sys.stderr)
        print(f"stop_reason={exc.history.stop_reason} after "
              f"{len(exc.history.records)} iterations", file=sys.stderr)
        return 2

    export_history_csv(history, os.path.join(out_dir, "history.csv"))
    final = history.final_triplet
    export_vtk(final.mesh, {"state": final.u, "costate": final.p},
               os.path.join(out_dir, "final.vtk"),
               title=f"fluxrec {cfg.problem} {cfg.strategy}")
    export_flux_txt(final.q, os.path.join(out_dir, "flux.txt"))
    last = history.records[-1]
    print(f"{cfg.problem}: {len(history.records)} iterations, "
          f"{last.n_triangles} triangles, eta={last.eta:.6e} "
          f"({history.stop_reason})")
    return 0


def _cmd_forward(args) -> int:
    problem = builtin_problem(args.problem).with_overrides(
        noise=args.noise, seed=args.seed)
    measurement = generate_measurement(problem, extra_levels=args.levels)
    write_measurement(measurement, args.out)
    print(f"wrote {len(measurement.values)} samples to {args.out}")
    return 0


def _cmd_report(args) -> int:
    rows = read_history_csv(args.history)
    header = f"{'iter':>4} {'vertices':>9} {'triangles':>9} " \
             f"{'eta':>13} {'objective':>13} {'err_q':>13}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['iter']:>4d} {row['n_vertices']:>9d} "
              f"{row['n_triangles']:>9d} {row['eta']:>13.6e} "
              f"{row['objective']:>13.6e} {row['err_q']:>13.6e}")
    return 0


def cli_main(argv=None) -> int:
    """Run one command line; returns the process exit code.

    0 on success and for ``--help``, 1 on a usage error (argparse prints the
    failing command's usage to stderr), 2 on a runtime failure.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
