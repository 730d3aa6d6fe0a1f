"""Command-line interface: run any registered experiment from a shell.

Examples
--------
List the available experiments (one per paper table/figure)::

    python -m repro list

List the registered server profiles (the pluggable experiment subjects)::

    python -m repro profiles

Regenerate a figure or experiment table::

    python -m repro run fig3
    python -m repro run tab-security
    python -m repro run exp-throughput --repetitions 10

Run the documented attack against one server under one build::

    python -m repro attack mutt --policy failure-oblivious

Compile and run a mini-C source file under any build (the paper's
"recompile the same C source" adoption story as a shell command)::

    python -m repro minic run prog.c --policy failure-oblivious --call main
    python -m repro minic run prog.c --policy standard --call copy --arg "hello"
    python -m repro minic run prog.c --call main --trace minic.jsonl

Export a run's telemetry stream as JSONL and query it offline (``summary``
and ``filter`` read any export, including ``repro fleet run --trace``)::

    python -m repro trace export tab-security --out matrix.jsonl --workers 4
    python -m repro trace summary matrix.jsonl --server pine
    python -m repro trace filter matrix.jsonl --site quote --out pine-quote.jsonl
    python -m repro trace summary fleet.jsonl --policy failure-oblivious

Soak a whole fleet — many server instances (any mix of profiles x builds)
cloned from checkpoint images under seeded arrival processes — and rebuild
the per-instance availability table from the exported JSONL telemetry
(``exp-stability`` and ``exp-soak`` run on the same scheduler: one server's
stream served by one instance, or split across several)::

    python -m repro fleet run -i apache:failure-oblivious:4 -i pine:bounds-check \\
        --requests 100000 --workers 8 --trace fleet.jsonl
    python -m repro fleet report fleet.jsonl

Self-healing mode: supervise every instance with incremental snapshots and
rollback recovery, optionally under seeded fault injection::

    python -m repro fleet run -i apache:failure-oblivious:2 \\
        --recover 32 --retry-budget 1 --fault-every 50

Memory forensics: capture before/after snapshots around a server's
documented attack and diff them block by block (optionally joining per-site
error counts from an exported trace)::

    python -m repro forensics capture pine --policy failure-oblivious \\
        --before pre.snap --after post.snap --trace pine.jsonl
    python -m repro forensics diff pre.snap post.snap --trace pine.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
from typing import Dict, Iterator, List, Optional

from repro.core.policies import POLICY_NAMES
from repro.fleet.scheduler import InstanceSpec, run_fleet
from repro.fleet.report import fleet_report_from_trace, format_fleet_table
from repro.fleet.traffic import ARRIVALS
from repro.harness.engine import ENGINE, ScenarioSpec
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import format_trace_summary
from repro.servers.profile import iter_profiles
from repro.telemetry.session import TelemetrySession
from repro.telemetry.summary import filter_records, iter_records, summarize_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Failure-oblivious computing (OSDI 2004) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    subparsers.add_parser(
        "profiles", help="list the registered server profiles and their figure rows"
    )

    run_parser = subparsers.add_parser("run", help="run one registered experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run_parser.add_argument("--repetitions", type=int, default=None,
                            help="repetitions per figure cell (figures only)")
    run_parser.add_argument("--scale", type=float, default=None,
                            help="workload scale factor (see DESIGN.md)")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="process count for experiments that fan out "
                                 "(figure cells, security-matrix cells, soak "
                                 "shards); default runs serially")

    attack_parser = subparsers.add_parser(
        "attack", help="run the documented attack scenario against one server"
    )
    attack_parser.add_argument("server", choices=ENGINE.profile_names())
    attack_parser.add_argument("--policy", choices=sorted(POLICY_NAMES),
                               default="failure-oblivious")
    attack_parser.add_argument("--scale", type=float, default=0.25,
                               help="workload scale factor")

    trace_parser = subparsers.add_parser(
        "trace", help="export, filter, and summarize telemetry event streams"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    export_parser = trace_sub.add_parser(
        "export", help="run one experiment and export its event stream as JSONL"
    )
    export_parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                               help="experiment id to run under telemetry export")
    export_parser.add_argument("--out", default="trace.jsonl",
                               help="output JSONL path (default: trace.jsonl)")
    export_parser.add_argument("--repetitions", type=int, default=None,
                               help="repetitions per figure cell (figures only)")
    export_parser.add_argument("--scale", type=float, default=None,
                               help="workload scale factor")
    export_parser.add_argument("--workers", type=int, default=None,
                               help="process count for experiments that fan out; "
                                    "per-worker spill files are merged in spec order")

    minic_parser = subparsers.add_parser(
        "minic", help="compile and run mini-C source on the simulated substrate"
    )
    minic_sub = minic_parser.add_subparsers(dest="minic_command", required=True)

    minic_run_parser = minic_sub.add_parser(
        "run", help="compile FILE.c under one build and call a function"
    )
    minic_run_parser.add_argument("file", help="mini-C source file")
    minic_run_parser.add_argument("--policy", choices=sorted(POLICY_NAMES),
                                  default="failure-oblivious",
                                  help="build variant to bind (the compiler choice)")
    minic_run_parser.add_argument("--call", default="main", metavar="FUNCTION",
                                  help="function to call (default: main)")
    minic_run_parser.add_argument("--arg", action="append", default=[],
                                  metavar="VALUE",
                                  help="argument for the call: an integer, or any "
                                       "other text as a NUL-terminated C string "
                                       "(repeatable, in order)")
    minic_run_parser.add_argument("--no-lower", action="store_true",
                                  help="skip the span-lowering pass: every loop "
                                       "runs per byte (the lowering reference)")
    minic_run_parser.add_argument("--trace", default=None, metavar="OUT",
                                  help="export the run's telemetry event stream "
                                       "as JSONL to this path")

    fleet_parser = subparsers.add_parser(
        "fleet", help="soak a heterogeneous fleet of server instances"
    )
    fleet_sub = fleet_parser.add_subparsers(dest="fleet_command", required=True)

    fleet_run_parser = fleet_sub.add_parser(
        "run", help="run a seeded multi-instance fleet soak"
    )
    fleet_run_parser.add_argument(
        "--instance", "-i", action="append", default=None,
        metavar="SERVER:POLICY[:COUNT]",
        help="add COUNT instances of SERVER under POLICY (repeatable); "
             "default: every profile under failure-oblivious plus an "
             "apache bounds-check instance",
    )
    fleet_run_parser.add_argument("--requests", type=int, default=2000,
                                  help="total requests across the fleet")
    fleet_run_parser.add_argument("--attack-every", type=int, default=10,
                                  help="inject each instance's documented attack "
                                       "every N requests (0 disables)")
    fleet_run_parser.add_argument("--arrival", choices=sorted(ARRIVALS),
                                  default="poisson",
                                  help="arrival process for every instance")
    fleet_run_parser.add_argument("--rate", type=float, default=100.0,
                                  help="per-instance arrival rate "
                                       "(requests/virtual-second)")
    fleet_run_parser.add_argument("--seed", type=int, default=20040101,
                                  help="root seed; fleets are bit-reproducible "
                                       "in (seed, spec) regardless of --workers")
    fleet_run_parser.add_argument("--workers", type=int, default=None,
                                  help="fork-pool processes (default: serial, "
                                       "same tallies)")
    fleet_run_parser.add_argument("--shards", type=int, default=None,
                                  help="instance groups to schedule (default: "
                                       "one shard per instance)")
    fleet_run_parser.add_argument("--scale", type=float, default=0.25,
                                  help="workload scale factor")
    fleet_run_parser.add_argument("--trace", default=None, metavar="OUT",
                                  help="export the run's telemetry event stream "
                                       "as JSONL to this path (readable by "
                                       "`repro fleet report` and `repro trace "
                                       "summary`)")
    fleet_run_parser.add_argument("--max-seconds", type=float, default=None,
                                  help="wall-clock budget; remaining requests "
                                       "are dropped once exceeded")
    fleet_run_parser.add_argument("--recover", type=int, default=None,
                                  metavar="SNAPSHOT_EVERY",
                                  help="self-healing mode: supervise every "
                                       "instance with an incremental snapshot "
                                       "every N requests and rollback recovery")
    fleet_run_parser.add_argument("--retry-budget", type=int, default=1,
                                  help="fatal retries per request before it is "
                                       "quarantined (with --recover)")
    fleet_run_parser.add_argument("--fault-rate", type=float, default=0.0,
                                  help="inject a seeded fault on this fraction "
                                       "of first attempts (implies recovery)")
    fleet_run_parser.add_argument("--fault-every", type=int, default=None,
                                  help="inject a seeded fault every Nth first "
                                       "attempt (implies recovery)")
    fleet_run_parser.add_argument("--fault-kinds", default=None,
                                  metavar="KIND[,KIND...]",
                                  help="comma-separated fault kinds to draw "
                                       "from (abort, alloc-fail, corrupt; "
                                       "default: all)")

    fleet_report_parser = fleet_sub.add_parser(
        "report", help="rebuild the per-instance table from an exported trace"
    )
    fleet_report_parser.add_argument(
        "file", help="JSONL trace from `repro fleet run --trace`"
    )

    forensics_parser = subparsers.add_parser(
        "forensics", help="capture memory snapshots and diff them block by block"
    )
    forensics_sub = forensics_parser.add_subparsers(
        dest="forensics_command", required=True
    )

    capture_parser = forensics_sub.add_parser(
        "capture",
        help="snapshot a server before and after its documented attack",
    )
    capture_parser.add_argument("server", choices=ENGINE.profile_names())
    capture_parser.add_argument("--policy", choices=sorted(POLICY_NAMES),
                                default="failure-oblivious")
    capture_parser.add_argument("--scale", type=float, default=0.25,
                                help="workload scale factor")
    capture_parser.add_argument("--before", default="before.snap",
                                help="path for the pre-attack snapshot")
    capture_parser.add_argument("--after", default="after.snap",
                                help="path for the post-attack snapshot")
    capture_parser.add_argument("--trace", default=None, metavar="OUT",
                                help="also export the run's telemetry stream "
                                     "as JSONL to this path")

    diff_parser = forensics_sub.add_parser(
        "diff", help="show which 4 KiB blocks changed between two snapshots"
    )
    diff_parser.add_argument("snapshot_a", help="earlier snapshot file")
    diff_parser.add_argument("snapshot_b", help="later snapshot file")
    diff_parser.add_argument("--trace", default=None,
                             help="JSONL trace export; joins "
                                  "per-site memory-error counts to the diff")

    def add_trace_filters(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("file", help="JSONL trace produced by `repro trace "
                                         "export` or a `--trace` option")
        parser.add_argument("--server", default=None, help="only events from this server")
        parser.add_argument("--policy", default=None, help="only events from this build")
        parser.add_argument("--site", default=None,
                            help="only access events whose site contains this substring")
        parser.add_argument("--kind", default=None,
                            help="only request events with this request kind")

    summary_parser = trace_sub.add_parser(
        "summary", help="aggregate an exported trace (optionally filtered)"
    )
    add_trace_filters(summary_parser)

    filter_parser = trace_sub.add_parser(
        "filter", help="write the matching subset of an exported trace"
    )
    add_trace_filters(filter_parser)
    filter_parser.add_argument("--out", default="-",
                               help="output JSONL path ('-' for stdout, the default)")
    return parser


@contextlib.contextmanager
def _exported_to(path: Optional[str]) -> Iterator[None]:
    """Run the block under a :class:`TelemetrySession` merged to ``path``.

    A no-op when ``path`` is None.  The export is written even if the block
    raises, so a run that dies can still be debugged from its trace.
    """
    if path is None:
        yield
        return
    session = TelemetrySession()
    try:
        try:
            with session:
                yield
        finally:
            written = session.merge(path)
            print(f"exported {written} event(s) to {path}", file=sys.stderr)
    finally:
        session.cleanup()


def _command_list() -> int:
    for experiment_id in sorted(EXPERIMENTS):
        print(experiment_id)
    return 0


def _command_profiles() -> int:
    for profile in iter_profiles():
        figure = f"figure {profile.figure_number}" if profile.figure_number else "no figure"
        rows = ", ".join(profile.figure_rows) if profile.figure_rows else "-"
        attack = "attack" if profile.attack_request is not None else "no attack"
        print(f"{profile.name:<20} {figure:<10} [{attack}] rows: {rows}")
        if profile.description:
            print(f"{'':<20} {profile.description}")
    return 0


def _experiment_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Collect the experiment knobs this runner accepts, dropping others loudly.

    Not every experiment accepts every knob.  Drop only the knobs this
    experiment's runner does not take — loudly — instead of retrying with
    all defaults, which would silently ignore the knobs it *does* accept.
    """
    kwargs: Dict[str, object] = {}
    if args.repetitions is not None:
        kwargs["repetitions"] = args.repetitions
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.workers is not None:
        kwargs["workers"] = args.workers
    runner = EXPERIMENTS[args.experiment]
    parameters = inspect.signature(runner).parameters
    accepts_kwargs = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    if not accepts_kwargs:
        for name in sorted(set(kwargs) - set(parameters)):
            print(
                f"note: {args.experiment} does not accept --{name}; ignoring it",
                file=sys.stderr,
            )
            del kwargs[name]
    return kwargs


def _command_run(args: argparse.Namespace) -> int:
    output = run_experiment(args.experiment, **_experiment_kwargs(args))
    print(output)
    return 0


def _command_attack(args: argparse.Namespace) -> int:
    scenario = ENGINE.run(
        ScenarioSpec(server=args.server, policy=args.policy,
                     workload="attack", scale=args.scale)
    )
    print(f"server            : {scenario.server}")
    print(f"build             : {scenario.policy}")
    print(f"boot              : {scenario.boot.outcome.value}")
    if scenario.attack is not None:
        print(f"attack request    : {scenario.attack.outcome.value}")
    for index, follow_up in enumerate(scenario.follow_ups, start=1):
        print(f"follow-up #{index}      : {follow_up.outcome.value}")
    print(f"survived attack   : {'yes' if scenario.survived_attack else 'no'}")
    print(f"continued service : {'yes' if scenario.continued_service else 'no'}")
    return 0 if scenario.continued_service or args.policy != "failure-oblivious" else 1


def _parse_minic_arg(text: str) -> object:
    """An integer when the text parses as one, otherwise C-string bytes."""
    try:
        return int(text, 0)
    except ValueError:
        return text.encode("utf-8")


def _command_minic_run(args: argparse.Namespace) -> int:
    """Compile a mini-C file, call into it, and report like an administrator.

    This is the paper's adoption story as a shell command: the same source
    file, recompiled with ``--policy``, crashes (standard), terminates
    (bounds-check), or keeps going while the error log records what was
    discarded (failure-oblivious).  ``--trace`` additionally exports the
    run's full telemetry stream for ``repro trace summary``.
    """
    import os

    from repro.errors import MemoryFault, MiniCError
    from repro.minic.interpreter import TypedPointer
    from repro.minic.lower import compile_program, lowered_count

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    try:
        program = compile_program(source, lower=not args.no_lower)
    except MiniCError as error:
        print(f"compile error: {error}", file=sys.stderr)
        return 2

    call_args = [_parse_minic_arg(text) for text in args.arg]
    site = f"{os.path.basename(args.file)}:{args.call}"
    fault: Optional[BaseException] = None
    result = None
    with _exported_to(args.trace):
        instance = program.instantiate(POLICY_NAMES[args.policy]())
        instance.ctx.set_site(site)
        try:
            result = instance.call(args.call, *call_args)
        except (MemoryFault, MiniCError) as error:
            fault = error
        finally:
            instance.ctx.set_site("")

    print(f"source            : {args.file}")
    print(f"build             : {args.policy}")
    lowered = lowered_count(program.unit)
    mode = "per-byte loops, not lowered (lower=False)" if args.no_lower \
        else f"{lowered} span-lowered loop(s)"
    print(f"compiled          : {mode}")
    if fault is not None:
        print(f"{args.call}({', '.join(args.arg)}) -> {type(fault).__name__}: {fault}")
    else:
        shown = result
        if isinstance(result, TypedPointer):
            shown = "NULL" if result.is_null else repr(instance.read_string(result))
        print(f"{args.call}({', '.join(args.arg)}) -> {shown}")
    if instance.output:
        print("program output    :")
        print(instance.output.decode("utf-8", errors="replace"), end="")
        if not instance.output.endswith(b"\n"):
            print()
    print()
    print(instance.ctx.error_log.summary())
    print(f"bounds checks     : {instance.ctx.policy.checks_performed}")
    return 1 if fault is not None else 0


def _command_minic(args: argparse.Namespace) -> int:
    if args.minic_command == "run":
        return _command_minic_run(args)
    return 2  # pragma: no cover - argparse enforces the choices


#: The default fleet: every registered profile under the paper's build, plus
#: one Bounds Check instance as the availability contrast.
_DEFAULT_FLEET = (
    "apache:failure-oblivious:2",
    "pine:failure-oblivious",
    "sendmail:failure-oblivious",
    "midnight-commander:failure-oblivious",
    "mutt:failure-oblivious",
    "apache:bounds-check",
)


def parse_instance_spec(text: str, attack_every: int, arrival: str,
                        rate: float) -> InstanceSpec:
    """Parse one ``SERVER:POLICY[:COUNT]`` CLI spec line."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad instance spec {text!r}: expected SERVER:POLICY[:COUNT]"
        )
    count = 1
    if len(parts) == 3:
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(
                f"bad instance spec {text!r}: COUNT must be an integer"
            ) from None
    return InstanceSpec(
        server=parts[0], policy=parts[1], count=count,
        attack_every=attack_every, arrival=arrival, rate=rate,
    )


def _command_fleet_run(args: argparse.Namespace) -> int:
    from repro.recovery import RecoveryPolicy
    from repro.recovery.faults import FAULT_KINDS

    spec_texts = args.instance if args.instance else list(_DEFAULT_FLEET)
    try:
        specs = [
            parse_instance_spec(text, args.attack_every, args.arrival, args.rate)
            for text in spec_texts
        ]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    recovery = None
    if args.recover is not None:
        recovery = RecoveryPolicy(
            snapshot_every=args.recover, retry_budget=args.retry_budget
        )
    fault_kinds = FAULT_KINDS
    if args.fault_kinds:
        fault_kinds = tuple(
            kind.strip() for kind in args.fault_kinds.split(",") if kind.strip()
        )
    try:
        with _exported_to(args.trace):
            result = run_fleet(
                specs,
                total_requests=args.requests,
                seed=args.seed,
                workers=args.workers,
                shards=args.shards,
                scale=args.scale,
                max_seconds=args.max_seconds,
                recovery=recovery,
                fault_rate=args.fault_rate,
                fault_every=args.fault_every,
                fault_kinds=fault_kinds,
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_fleet_table(result))
    return 0


def _command_fleet_report(args: argparse.Namespace) -> int:
    tallies = fleet_report_from_trace(args.file)
    if not tallies:
        print(f"no instance-scoped events found in {args.file}", file=sys.stderr)
        return 1
    print(format_fleet_table(
        tallies, title=f"Fleet report: {args.file} (from export)"
    ))
    return 0


def _command_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "run":
        return _command_fleet_run(args)
    if args.fleet_command == "report":
        return _command_fleet_report(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _trace_site_counts(path: str) -> Dict[str, int]:
    """Aggregate per-site memory-error counts from an exported trace."""
    from repro.telemetry.events import RequestEnd, from_record

    counts: Dict[str, int] = {}
    for record in iter_records(path):
        try:
            event = from_record(record)
        except (ValueError, KeyError, TypeError):
            continue
        if isinstance(event, RequestEnd):
            for site, count in event.error_sites:
                counts[site] = counts.get(site, 0) + count
    return counts


def _command_forensics_capture(args: argparse.Namespace) -> int:
    """Boot a server, snapshot, run its documented attack, snapshot again.

    The two files are ``repro-snapshot/v1`` sparse images; ``repro forensics
    diff`` then shows exactly which 4 KiB blocks the attack dirtied.
    """
    from repro.recovery import save_snapshot

    profile = ENGINE.profile(args.server)
    if profile.attack_request is None:
        print(f"error: {args.server} has no documented attack", file=sys.stderr)
        return 2
    with _exported_to(args.trace):
        server = ENGINE.build_server(
            args.server, args.policy, plant_attack=True, scale=args.scale
        )
        boot = server.start()
        if boot.fatal:
            print(
                f"error: {args.server}/{args.policy} dies at boot "
                f"({boot.outcome.value}); nothing to snapshot",
                file=sys.stderr,
            )
            return 1
        for follow_up in profile.make_follow_ups():
            server.process(follow_up)
        label = f"{args.server}/{args.policy}"
        before = save_snapshot(
            args.before, server.ctx.space.checkpoint(), label=f"{label} pre-attack"
        )
        attack = server.process(profile.make_attack_request())
        after = save_snapshot(
            args.after, server.ctx.space.checkpoint(), label=f"{label} post-attack"
        )
        server.stop()
    print(f"server            : {args.server}")
    print(f"build             : {args.policy}")
    print(f"attack request    : {attack.outcome.value}")
    print(f"pre-attack image  : {args.before} "
          f"({before['blocks']} blocks, {before['payload_bytes']} bytes)")
    print(f"post-attack image : {args.after} "
          f"({after['blocks']} blocks, {after['payload_bytes']} bytes)")
    print(f"next              : python -m repro forensics diff "
          f"{args.before} {args.after}"
          + (f" --trace {args.trace}" if args.trace else ""))
    return 0


def _command_forensics_diff(args: argparse.Namespace) -> int:
    from repro.recovery import diff_snapshots, format_diff, load_snapshot

    try:
        cp_a, label_a = load_snapshot(args.snapshot_a)
        cp_b, label_b = load_snapshot(args.snapshot_b)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        diff = diff_snapshots(
            cp_a, cp_b,
            a_label=label_a or args.snapshot_a,
            b_label=label_b or args.snapshot_b,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    site_counts = None
    if args.trace is not None:
        site_counts = _trace_site_counts(args.trace)
    print(format_diff(diff, site_counts=site_counts))
    return 0


def _command_forensics(args: argparse.Namespace) -> int:
    if args.forensics_command == "capture":
        return _command_forensics_capture(args)
    if args.forensics_command == "diff":
        return _command_forensics_diff(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _command_trace_export(args: argparse.Namespace) -> int:
    kwargs = _experiment_kwargs(args)
    with _exported_to(args.out):
        run_experiment(args.experiment, **kwargs)
    print(format_trace_summary(summarize_trace(args.out)))
    return 0


def _command_trace_summary(args: argparse.Namespace) -> int:
    summary = summarize_trace(
        args.file, server=args.server, policy=args.policy,
        site=args.site, kind=args.kind,
    )
    filters = ", ".join(
        f"{name}={value}"
        for name, value in (("server", args.server), ("policy", args.policy),
                            ("site", args.site), ("kind", args.kind))
        if value is not None
    )
    title = f"Telemetry trace summary: {args.file}" + (f" [{filters}]" if filters else "")
    print(format_trace_summary(summary, title=title))
    return 0


def _command_trace_filter(args: argparse.Namespace) -> int:
    records = filter_records(
        iter_records(args.file), server=args.server, policy=args.policy,
        site=args.site, kind=args.kind,
    )
    if args.out == "-":
        for record in records:
            print(json.dumps(record))
        return 0
    count = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record) + "\n")
            count += 1
    print(f"wrote {count} matching event(s) to {args.out}", file=sys.stderr)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        return _command_trace_export(args)
    if args.trace_command == "summary":
        return _command_trace_summary(args)
    if args.trace_command == "filter":
        return _command_trace_filter(args)
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "profiles":
        return _command_profiles()
    if args.command == "run":
        return _command_run(args)
    if args.command == "attack":
        return _command_attack(args)
    if args.command == "minic":
        return _command_minic(args)
    if args.command == "fleet":
        return _command_fleet(args)
    if args.command == "forensics":
        return _command_forensics(args)
    if args.command == "trace":
        return _command_trace(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
