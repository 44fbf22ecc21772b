"""``alock-experiments`` command-line entry point.

::

    alock-experiments list
    alock-experiments run fig1 fig4 --scale small --out results.md
    alock-experiments run all --scale smoke --workers 2
    alock-experiments run fig5 --scale paper --workers 8
    alock-experiments run all --scale smoke --seed 0 1 2 --workers 2
    alock-experiments explore --lock alock --schedules 50 --shrink
    alock-experiments explore --lock mcs --lock-option bug=lost_wakeup \\
        --lock-option poll_interval_ns=200 --nodes 1 --threads 3 --ops 3
    alock-experiments explore --replay "9:1" --lock alock ...
    alock-experiments fleet --workers 4 --budget 2000 --expect-find \\
        --write-corpus --corpus-dir tests/schedcheck/corpus
    alock-experiments fleet --preset faults --budget 500 --workers 4
    alock-experiments fleet --policy pct --report fleet.json
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
    from repro.schedcheck import (
        LockScenario,
        enumerate_schedules,
        explore_random,
        replay,
        shrink_failure,
    )

    scenario = LockScenario(
        lock_kind=args.lock_kind, n_nodes=args.nodes,
        threads_per_node=args.threads, n_locks=args.locks,
        ops_per_thread=args.ops, pick=args.pick, cs_ns=args.cs_ns,
        think_ns=args.think_ns, stagger_ns=args.stagger_ns,
        lock_options=_parse_lock_options(args.lock_option),
        seed=args.scenario_seed)

    if args.replay is not None:
        decisions = "" if args.replay == "-" else args.replay
        result = replay(scenario, decisions)
        print(result.summary())
        return 0 if result.ok else 1

    if args.policy == "dfs":
        report = enumerate_schedules(
            scenario, max_schedules=args.schedules,
            max_choice_points=args.max_choice_points,
            stop_on_failure=not args.keep_going)
    else:
        report = explore_random(
            scenario, args.schedules, seed=args.seed, policy=args.policy,
            change_points=args.change_points,
            stop_on_failure=not args.keep_going)
    print(report.summary())
    failure = report.first_failure
    if failure is None:
        return 0
    print(f"\nfirst failure (schedule {failure.schedule_index}):")
    print(f"  {failure.summary()}")
    if args.shrink:
        shrunk = shrink_failure(scenario, failure)
        print(f"  {shrunk.summary()}")
        print(f"  replay with: --replay "
              f"{shrunk.decisions.to_string() or '-'!r}")
    return 1


def _fleet(args) -> int:
    from repro.schedcheck.fleet import (
        PRESETS,
        FleetConfig,
        run_fleet,
        write_fleet_corpus,
    )

    preset = PRESETS[args.preset]
    # The preset's per-bug budgets are the documented *serial* repro
    # constants; a fleet run explores all scenarios at one shared budget.
    budget = args.budget
    if budget is None:
        budget = max(b for _name, _sc, b in preset)
    config = FleetConfig(
        scenarios=tuple((name, sc) for name, sc, _b in preset),
        budget=budget, seed=args.seed, policy=args.policy,
        shrink=not args.no_shrink)
    workers = _resolve_workers(args)

    def _progress(report) -> None:
        print(f"  round {report.rounds}: {report.total_schedules} "
              f"schedules, {len(report.found)}/{len(report.scenarios)} "
              f"scenario(s) failing", file=sys.stderr)

    report = run_fleet(config, workers=workers,
                       on_round=_progress if args.progress else None)
    print(report.summary())
    if args.report_out:
        with open(args.report_out, "wb") as fh:
            fh.write(report.to_json_bytes())
        print(f"report: {args.report_out}")
    if args.write_corpus:
        for path in write_fleet_corpus(report, args.corpus_dir):
            print(f"corpus: {path}")
    if args.expect_find:
        missing = [s.name for s in report.scenarios if s.first_find is None]
        if missing:
            print(f"expected a failure in every scenario; none found for: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 1
        return 0
    return 1 if report.found else 0


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


def _main(argv: list[str] | None) -> int:
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
             "lock implementations")
    exp_p.add_argument("--lock", default="alock", dest="lock_kind",
                       help="registered lock kind (alock, mcs, spinlock, ...)")
    exp_p.add_argument("--nodes", type=int, default=2)
    exp_p.add_argument("--threads", type=int, default=2,
                       help="threads per node")
    exp_p.add_argument("--ops", type=int, default=4, help="ops per thread")
    exp_p.add_argument("--locks", type=int, default=1)
    exp_p.add_argument("--pick", default="single",
                       choices=("single", "local", "remote", "mixed"))
    exp_p.add_argument("--cs-ns", type=float, default=0.0)
    exp_p.add_argument("--think-ns", type=float, default=0.0)
    exp_p.add_argument("--stagger-ns", type=float, default=0.0)
    exp_p.add_argument("--scenario-seed", type=int, default=0,
                       help="cluster/workload seed (fixed across schedules)")
    exp_p.add_argument("--lock-option", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="extra lock-factory option; repeatable "
                            "(e.g. bug=no_victim_check)")
    exp_p.add_argument("--policy", default="random",
                       choices=("random", "pct", "dfs"),
                       help="random walk, PCT priorities, or bounded "
                            "exhaustive enumeration")
    exp_p.add_argument("--schedules", type=int, default=50,
                       help="schedule budget")
    exp_p.add_argument("--seed", type=int, default=1,
                       help="exploration seed (random/pct)")
    exp_p.add_argument("--change-points", type=int, default=3,
                       help="PCT priority change points")
    exp_p.add_argument("--max-choice-points", type=int, default=None,
                       help="dfs: only permute the first K choice points")
    exp_p.add_argument("--keep-going", action="store_true",
                       help="do not stop at the first failing schedule")
    exp_p.add_argument("--shrink", action="store_true",
                       help="delta-debug the first failure down to a "
                            "minimal decision string")
    exp_p.add_argument("--replay", default=None, metavar="DECISIONS",
                       help="skip exploration; replay this decision string "
                            "('-' for the default schedule)")
    fleet_p = sub.add_parser(
        "fleet",
        help="the seeded schedule walk of a scenario preset, fanned over "
             "worker processes; report and corpus bytes are identical at "
             "any worker count")
    fleet_p.add_argument("--preset", default="bugs",
                         choices=("bugs", "faults"),
                         help="scenario set: the seeded lock defects or "
                              "correct locks under fault injection")
    fleet_p.add_argument("--budget", type=int, default=None, metavar="N",
                         help="schedule budget per scenario (default: the "
                              "preset's largest documented repro budget)")
    fleet_p.add_argument("--seed", type=int, default=0,
                         help="master fleet seed")
    fleet_p.add_argument("--policy", default="random",
                         choices=("random", "pct"),
                         help="walk policy")
    fleet_p.add_argument("--no-shrink", action="store_true",
                         help="skip ddmin of each scenario's first failure")
    fleet_p.add_argument("--workers", type=int, default=0, metavar="N",
                         help="worker processes (0/1 = serial)")
    fleet_p.add_argument("--corpus-dir", default=".alock-corpus",
                         metavar="DIR",
                         help="where --write-corpus puts entries "
                              "(default .alock-corpus)")
    fleet_p.add_argument("--write-corpus", action="store_true",
                         help="freeze each scenario's shrunk first failure "
                              "as a content-addressed corpus entry (plus "
                              "its post-mortem dump)")
    fleet_p.add_argument("--report", default=None, dest="report_out",
                         metavar="FILE",
                         help="write the canonical fleet report JSON here")
    fleet_p.add_argument("--expect-find", action="store_true",
                         help="exit 0 only if *every* scenario produced a "
                              "failure (bug-hunt/CI-gate mode; default "
                              "exit semantics match 'explore': finding a "
                              "failure exits 1)")
    fleet_p.add_argument("--progress", action="store_true",
                         help="print a line per round (stderr)")
    args = parser.parse_args(argv)

    if args.command == "fleet":
        return _fleet(args)

    if args.command == "explore":
        return _explore(args)

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
