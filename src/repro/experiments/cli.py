"""``alock-experiments`` command-line entry point.

::

    alock-experiments list
    alock-experiments run fig1 fig4 --scale small --out results.md
    alock-experiments run all --scale smoke --workers 2
    alock-experiments run fig5 --scale paper --workers 8
    alock-experiments run all --scale smoke --seed 0 1 2 --workers 2
    alock-experiments explore --lock alock --budget 50
    alock-experiments explore --lock mcs --lock-option bug=lost_wakeup \\
        --lock-option poll_interval_ns=200 --nodes 1 --threads 2 --ops 3 \\
        --cs-ns 100 --write-corpus --corpus-dir /tmp/corpus
    alock-experiments explore --preset bugs --workers 4 --budget 2000 \\
        --expect-find --write-corpus --corpus-dir tests/schedcheck/corpus
    alock-experiments explore --preset faults --policy pct --report fleet.json
    alock-experiments replay tests/schedcheck/corpus/ENTRY.json
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from repro.common.errors import ConfigError
from repro.experiments.base import recording
from repro.experiments.registry import (EXPERIMENTS, get_experiment,
                                        run_experiment)
from repro.obs.export import write_metrics, write_trace


#: schedule budget of a flag-built scenario
DEFAULT_BUDGET = 50


def _resolve_workers(args) -> int:
    """``--workers N``, checked (0, the default, is serial)."""
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0, got {args.workers}")
    return args.workers


def _parse_lock_options(pairs: list[str]) -> tuple:
    """``["bug=lost_wakeup", "poll_interval_ns=200"]`` -> option tuple,
    with numeric-looking values coerced."""
    options = []
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--lock-option wants KEY=VALUE, got {pair!r}")
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        options.append((key, value))
    return tuple(options)


def _explore(args) -> int:
    from dataclasses import fields

    from repro.schedcheck.corpus import scenario_digest
    from repro.schedcheck.fleet import (
        PRESETS,
        FleetConfig,
        run_fleet,
        write_fleet_corpus,
    )
    from repro.schedcheck.scenario import LockScenario

    # A scenario flag is on the namespace only when named, under its
    # LockScenario field: the scenario's own defaults fill the rest, and
    # naming one beside --preset can be refused.
    named = {f.name: getattr(args, f.name) for f in fields(LockScenario)
             if hasattr(args, f.name)}
    if args.preset is not None:
        if named:
            raise ConfigError("--preset explores its own scenarios; drop "
                              "the scenario flags or the preset")
        preset = PRESETS[args.preset]
        # The preset's per-bug budgets are the documented *serial* repro
        # constants; a fleet run explores all scenarios at one budget.
        scenarios = tuple((name, sc) for name, sc, _b in preset)
        default_budget = max(b for _name, _sc, b in preset)
    else:
        if "lock_options" in named:
            named["lock_options"] = _parse_lock_options(named["lock_options"])
        scenario = LockScenario(**named)
        # a bad lock kind or option is a ConfigError, not crashed cells
        scenario.build().cluster.close()
        scenarios = ((f"{scenario.lock_kind}-{scenario_digest(scenario)}",
                      scenario),)
        default_budget = DEFAULT_BUDGET
    config = FleetConfig(
        scenarios=scenarios,
        budget=default_budget if args.budget is None else args.budget,
        seed=args.walk_seed, policy=args.policy, shrink=not args.no_shrink)
    workers = _resolve_workers(args)

    def _progress(report) -> None:
        print(f"  round {report.rounds}: {report.total_schedules} "
              f"schedules, {len(report.found)}/{len(report.scenarios)} "
              f"scenario(s) failing", file=sys.stderr)

    report = run_fleet(config, workers=workers,
                       on_round=_progress if args.progress else None)
    print(report.summary())
    if args.report:
        with open(args.report, "wb") as fh:
            fh.write(report.to_json_bytes())
        print(f"report: {args.report}")
    if args.write_corpus:
        for path in write_fleet_corpus(report, args.corpus_dir):
            print(f"corpus: {path}")
    crashed = [s.name for s in report.scenarios if s.crashed_cells]
    if crashed:
        print(f"cells crashed in: {', '.join(crashed)}", file=sys.stderr)
        return 1
    if args.expect_find:
        missing = [s.name for s in report.scenarios if s.first_find is None]
        if missing:
            print(f"expected a failure in every scenario; none found for: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 1
        return 0
    return 1 if report.found else 0


def _replay(args) -> int:
    from repro.schedcheck.corpus import check_entry, load_entry

    try:
        entry = load_entry(args.entry)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load corpus entry {args.entry}: {exc!r}")
    status, result = check_entry(entry)
    print(f"{status}: {result.summary()}")
    return 0 if status == "reproduced" else 1


#: exit status of every subcommand whose reader closed stdout early
#: (``| head``): 128 + SIGPIPE, as a shell reports a writer it killed
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except ConfigError as exc:
        # Bad config is the user's to fix: one precise line and the
        # usage-error status, not a traceback into the simulator.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Stop quietly; the flush at exit must not hit the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, every subcommand and flag."""
    parser = argparse.ArgumentParser(
        prog="alock-experiments",
        description="Regenerate the ALock paper's tables and figures on "
                    "the RDMA-cluster simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run experiments")
    run_p.add_argument("experiments", nargs="+",
                       help="experiment ids (or 'all')")
    run_p.add_argument("--scale", default="small",
                       choices=("smoke", "small", "paper"))
    run_p.add_argument("--seed", type=int, nargs="+", default=[0],
                       metavar="SEED",
                       help="root seeds: every experiment runs once per "
                            "seed, each report under a line naming its seed "
                            "when there are several")
    run_p.add_argument("--out", default=None,
                       help="also append markdown reports to this file")
    run_p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record typed spans for every workload run and "
                            "write a Chrome/Perfetto trace-event JSON "
                            "(open at ui.perfetto.dev); works at any "
                            "--workers")
    run_p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the per-run metrics-registry snapshots "
                            "as flat JSON")
    run_p.add_argument("--workers", type=int, default=0, metavar="N",
                       help="shard experiment cells over N worker processes "
                            "(results are identical to a serial run; 0/1 = "
                            "serial)")
    exp_p = sub.add_parser(
        "explore",
        help="schedule exploration: hunt interleaving bugs in the real "
             "lock implementations, fanned over worker processes; report "
             "and corpus bytes are identical at any worker count")
    exp_p.add_argument("--preset", choices=("bugs", "faults"),
                       help="explore a scenario set instead of one "
                            "scenario: the seeded lock defects, or correct "
                            "locks under fault injection")
    # An unnamed scenario flag stays off the namespace (SUPPRESS); each
    # dest is a LockScenario field, and no other flag's dest is one.
    scen = exp_p.add_argument_group(
        "scenario", "one scenario, built from these flags (LockScenario's "
                    "defaults for those not named); not with --preset",
        argument_default=argparse.SUPPRESS)
    scen.add_argument("--lock", dest="lock_kind", metavar="KIND",
                      help="registered lock kind (alock, mcs, spinlock, "
                           "...; default alock)")
    scen.add_argument("--nodes", dest="n_nodes", type=int, metavar="N")
    scen.add_argument("--threads", dest="threads_per_node", type=int,
                      metavar="N", help="threads per node")
    scen.add_argument("--ops", dest="ops_per_thread", type=int, metavar="N",
                      help="ops per thread")
    scen.add_argument("--pick", choices=("single", "local", "remote",
                                         "mixed"))
    scen.add_argument("--cs-ns", type=float, metavar="NS")
    scen.add_argument("--think-ns", type=float, metavar="NS")
    scen.add_argument("--stagger-ns", type=float, metavar="NS")
    scen.add_argument("--scenario-seed", dest="seed", type=int,
                      metavar="SEED",
                      help="cluster/workload seed (fixed across schedules)")
    scen.add_argument("--lock-option", dest="lock_options", action="append",
                      metavar="KEY=VALUE",
                      help="extra lock-factory option; repeatable "
                           "(e.g. bug=no_victim_check)")
    exp_p.add_argument("--budget", type=int, metavar="N",
                       help="schedule budget per scenario (default: the "
                            "preset's largest documented repro budget, "
                            f"or {DEFAULT_BUDGET})")
    exp_p.add_argument("--seed", dest="walk_seed", type=int, default=0,
                       metavar="SEED", help="the walk's seed: every "
                       "schedule's policy seed derives from it")
    exp_p.add_argument("--policy", default="random", choices=("random", "pct"),
                       help="random walk or PCT priorities")
    exp_p.add_argument("--no-shrink", action="store_true",
                       help="skip ddmin of each scenario's first failure")
    exp_p.add_argument("--workers", type=int, default=0, metavar="N",
                       help="worker processes (0/1 = serial)")
    exp_p.add_argument("--corpus-dir", default=".alock-corpus", metavar="DIR",
                       help="where --write-corpus puts entries "
                            "(default .alock-corpus)")
    exp_p.add_argument("--write-corpus", action="store_true",
                       help="freeze each scenario's shrunk first failure "
                            "as a content-addressed corpus entry (plus "
                            "its post-mortem dump)")
    exp_p.add_argument("--report", metavar="FILE",
                       help="write the canonical exploration report JSON here")
    exp_p.add_argument("--expect-find", action="store_true",
                       help="exit 0 only if *every* scenario produced a "
                            "failure (bug-hunt/CI-gate mode; by default "
                            "finding a failure exits 1)")
    exp_p.add_argument("--progress", action="store_true",
                       help="print a line per round (stderr)")
    replay_p = sub.add_parser(
        "replay",
        help="strict-replay a corpus entry: exit 0 only if it reproduces "
             "its recorded failure, byte for byte")
    replay_p.add_argument("entry", metavar="ENTRY.json",
                          help="a corpus entry file (explore "
                               "--write-corpus writes them)")
    return parser


def _main(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "explore":
        return _explore(args)

    if args.command == "replay":
        return _replay(args)

    if args.command == "list":
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0

    ids = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    for exp_id in ids:
        get_experiment(exp_id)      # a typo must not cost the ids before it
    seeds = args.seed
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seed names a seed twice: {seeds}")
    workers = _resolve_workers(args)
    export = bool(args.trace_out or args.metrics_out)
    failed = []
    reports = []
    with recording() if export else contextlib.nullcontext() as runs:
        for exp_id in ids:
            for seed in seeds:
                # Wall-clock here times the *host* run for the operator's
                # progress line; it never feeds simulation state or results.
                start = time.perf_counter()  # simlint: ignore[nondet-source]
                result = run_experiment(exp_id, scale=args.scale, seed=seed,
                                        workers=workers)
                elapsed = time.perf_counter() - start  # simlint: ignore[nondet-source]
                report = result.to_markdown()
                name = exp_id
                if len(seeds) > 1:
                    report = f"# seed {seed}\n\n{report}"
                    name = f"{exp_id}@seed{seed}"
                reports.append(report)
                print(report)
                print(f"\n({name} finished in {elapsed:.1f}s)\n")
                if not result.all_shapes_hold:
                    failed.append(name)
    if export:
        for run in runs:
            if run.dropped:
                print(f"warning: {run.label} outgrew its event log: the "
                      f"oldest {run.dropped} events, and the spans and "
                      f"histogram samples they held, are missing from the "
                      f"export", file=sys.stderr)
        if args.trace_out:
            write_trace(args.trace_out, runs)
            print(f"trace: {len(runs)} runs -> {args.trace_out} "
                  f"(load at ui.perfetto.dev)")
        if args.metrics_out:
            write_metrics(args.metrics_out, runs)
            print(f"metrics: {len(runs)} runs -> {args.metrics_out}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write("\n\n".join(reports) + "\n")
    if failed:
        print(f"shape checks FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
