"""Command-line driver.

Subcommands
-----------
simulate   simulate the configured model and write its trajectory CSV
estimate   run one filter (hybrid or continuous) and write its report
compare    run both filters on one identical stream and write the report
verify     sampling-based safety falsification

Common flags: ``--config FILE`` (flat key=value text), ``--seed N``
(overrides the config), ``--out DIR``.  The ``HDS_SEED`` environment
variable is the lowest-priority seed source.  Exit codes: 0 success,
1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .compare import run_comparison
from .config import ExperimentConfig, read_values
from .errors import ConfigError, HdsimError
from .report import column_rows, ensure_dir, fmt, write_trajectory_csv
from .safety import box_sampler, check_safety
from .simulate import quiet_overflow, simulate

USAGE_ERROR = 1
RUNTIME_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdsim",
        description="Hybrid dynamical systems simulation and estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "simulate the configured model and write its trajectory"),
        ("estimate", "run a single filter and write its trajectory and report"),
        ("compare", "run hybrid and continuous filters on one stream"),
        ("verify", "sampling-based safety check"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _prepare(args) -> ExperimentConfig:
    """The run's one config: the file's values overlaid with ``--seed`` (else
    ``HDS_SEED`` if the file sets no seed), ``--out`` and compare's filter."""
    values = read_values(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    elif "seed" not in values and "HDS_SEED" in os.environ:
        env = os.environ["HDS_SEED"]
        try:
            values["seed"] = int(env)
        except ValueError as exc:
            raise ConfigError(f"HDS_SEED must be an integer, got {env!r}") from exc
    if args.out is not None:
        values["out"] = args.out
    if args.command == "compare":
        values["filter"] = "both"
    return ExperimentConfig(values=values)


def _cmd_simulate(config: ExperimentConfig) -> int:
    out_dir = config["out"]
    ensure_dir(out_dir)
    model = config.system()
    traj = simulate(
        model.system, model.x0, config["horizon"], config["max_jumps"], config["dt"],
        mode0=model.mode0,
    )
    rows = column_rows(
        traj.times, traj.jump_counts, traj.modes, *traj.states.T[: len(model.states)]
    )
    path = os.path.join(out_dir, f"trajectory_{config['model']}.csv")
    write_trajectory_csv(path, ("t", "j", "mode") + model.states, rows)
    print(f"termination: {traj.termination}")
    if traj.jumps:
        instants = ", ".join(fmt(t) for t in traj.jump_times)
        print(f"jumps at: {instants}")
    print(f"wrote {path}")
    return 0


def _cmd_estimate(config: ExperimentConfig) -> int:
    if config["filter"] == "both":
        raise ConfigError("estimate runs one filter; set filter = hybrid | continuous")
    return _run_filters(config)


def _run_filters(config: ExperimentConfig) -> int:
    report, paths = run_comparison(config)
    print(report.table())
    print(f"runtime: {report.runtime_seconds:.3f} s")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_verify(config: ExperimentConfig) -> int:
    out_dir = config["out"]
    ensure_dir(out_dir)
    threshold = config["verify.i_unsafe"]
    model = config.system()
    if threshold <= 0.0:
        threshold = model.current_limit

    def unsafe(x) -> bool:
        return model.current(x) > threshold - 1e-9

    sampler = box_sampler(model.x0 - model.half, model.x0 + model.half, config["seed"])
    verdict = check_safety(
        model.system, sampler, unsafe, config["horizon"], config["verify.samples"],
        config["dt"], max_jumps=config["max_jumps"], mode0=model.mode0,
    )

    path = os.path.join(out_dir, "verify_report.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"model: {config['model']}\n")
        fh.write(f"verdict: {verdict.status}\n")
        fh.write(f"samples checked: {verdict.samples_checked}\n")
        fh.write(f"unsafe threshold: {fmt(threshold)}\n")
        if verdict.unsafe:
            fh.write(f"witness time: {fmt(verdict.witness_time)}\n")
            x0 = ", ".join(fmt(v) for v in verdict.witness_initial_state)
            fh.write(f"witness initial state: {x0}\n")
            if verdict.witness.jumps:
                instants = ", ".join(fmt(t) for t in verdict.witness.jump_times)
                fh.write(f"witness jumps at: {instants}\n")
        fh.write(f"seed: {config['seed']}\n")
    print(f"verdict: {verdict.status}")
    if verdict.unsafe:
        print(f"witness time: {fmt(verdict.witness_time)}")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "compare": _run_filters,
    "verify": _cmd_verify,
}


@quiet_overflow
def cli_main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own message; map "--help" to success and
        # anything else to a usage error.
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return _COMMANDS[args.command](_prepare(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (HdsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
