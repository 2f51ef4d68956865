"""Command-line interface: simulate, analyze, plot."""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .config import PROFILES, build_config, parse_config_text
from .errors import ConfigError, SeqbvsError
from .experiment import aggregate, run_experiment
from .inclusion import METHODS
from .outputs import (
    TRAJECTORIES_CSV,
    analyze_directory,
    emit_outputs,
    read_dgp_beta,
    read_trajectories_csv,
    write_crossing_totals_plot,
    write_replication_plots,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqbvs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the sequential study and write outputs")
    sim.add_argument("--config", type=Path, default=None, help="key=value config file")
    sim.add_argument("--out", type=Path, required=True, help="output directory")
    sim.add_argument("--reps", type=int, default=None, help="override replication count")
    sim.add_argument("--profile", choices=tuple(PROFILES), default="desk")
    sim.add_argument("--seed", type=int, default=None, help="override base seed")
    sim.add_argument("--workers", type=_positive_int, default=1, help="parallel replication workers (>= 1)")
    sim.add_argument("--no-plots", action="store_true", help="skip SVG emission")

    ana = sub.add_parser("analyze", help="recompute report tables from trajectories CSV")
    ana.add_argument("--in", dest="indir", type=Path, required=True, help="run directory")

    plo = sub.add_parser("plot", help="re-render plots for one replication from CSV")
    plo.add_argument("--in", dest="indir", type=Path, required=True, help="run directory")
    plo.add_argument("--rep", type=int, required=True, help="replication index")
    plo.add_argument("--method", choices=METHODS + ("all",), default="all")
    return parser


def _cmd_simulate(args) -> int:
    # profile preset < config file < flags: the flags are keys layered over the file's
    kv = {}
    if args.config is not None:
        try:
            kv = parse_config_text(args.config.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from exc
    flags = {"run.reps": args.reps, "run.base_seed": args.seed}
    kv.update((key, str(value)) for key, value in flags.items() if value is not None)
    config = build_config(kv, args.profile)

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    started = time.time()
    workers = min(args.workers, config.reps)  # run_experiment caps its pool so; the manifest records it
    results = run_experiment(config, workers=workers)
    stats = aggregate(results)
    written = emit_outputs(
        results,
        stats,
        args.out,
        config,
        plots=not args.no_plots,
        extra_manifest={"elapsed_seconds": round(time.time() - started, 3), "workers": workers},
    )
    print(f"wrote {written['trajectories']}")
    print(f"wrote {written['tables']}")
    print(f"wrote {written['manifest']}")
    return 0


def _print_table(name: str, per_method: dict[str, np.ndarray], p: int) -> None:
    print(name)
    header = "method".ljust(10) + "".join(f"x{k}".rjust(8) for k in range(1, p + 1))
    print(header)
    for meth, vals in per_method.items():
        print(meth.ljust(10) + "".join(f"{v:8.2f}" for v in vals))
    print()


def _cmd_analyze(args) -> int:
    stats = analyze_directory(args.indir)
    _print_table("mean crossings per covariate", stats.mean_crossings, stats.p)
    _print_table("final inclusion frequency", stats.final_freq, stats.p)
    print(f"total crossings per rep: mean {stats.total_mean}, variance {stats.total_var}")
    print(f"rewrote tables in {args.indir}")
    return 0


def _cmd_plot(args) -> int:
    results = read_trajectories_csv(Path(args.indir) / TRAJECTORIES_CSV)
    match = [r for r in results if r.rep == args.rep]
    if not match:
        print(f"no replication {args.rep} in {args.indir}", file=sys.stderr)
        return 2
    # coloured by the manifest's data-generating beta, as simulate draws them;
    # a directory without a manifest is coloured by the final bvs call
    methods = METHODS if args.method == "all" else (args.method,)
    for path in write_replication_plots(match, args.indir, read_dgp_beta(args.indir), methods):
        print(f"wrote {path}")
    stats = aggregate(results)
    path = write_crossing_totals_plot(stats, args.indir)
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_plot(args)
    except (SeqbvsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
