"""Run the experiment suite or the schedule explorer from the command line.

Usage::

    python -m repro.analysis                 # every experiment, full tables
    python -m repro.analysis E5 E11          # a subset, by experiment id
    python -m repro.analysis --list          # experiment ids and titles
    python -m repro.analysis explore         # schedule-space exploration
    python -m repro.analysis explore --budget 200 --f 2
    python -m repro.analysis campaign --smoke   # differential campaign
    python -m repro.analysis campaign --submit --smoke   # enqueue a run...
    python -m repro.analysis campaign --worker           # ...lease + execute it
    python -m repro.analysis campaign --status           # ...verdicts + drift
    python -m repro.analysis scenarios --list   # unified scenario registry
    python -m repro.analysis net --clients 50   # live socket cluster + load
    python -m repro.analysis net --cell <label> # a pinned live smoke cell
    python -m repro.analysis net --check ev.json  # offline evidence re-check

Each experiment prints its table and a PASS/FAIL verdict on the
qualitative expectation it reproduces.

The ``explore`` subcommand drives ``repro.explore`` end to end: bounded
systematic search plus a swarm fuzzing campaign over the Theorem 29
scenario at ``n = 3f`` (where it must find a Byzantine-linearizability
violation and shrink it to a ScriptedScheduler script) and at
``n = 3f + 1`` (where the same bounds must come back clean). Exit code
0 means the theorem's shape reproduced.

The ``campaign`` subcommand drives ``repro.campaign``: a differential
conformance matrix over every ``repro.core`` implementation family,
with discovered violations shrunk and persisted into the replayable
``corpus/`` regression corpus. Exit code 0 means every cell matched
the paper's expectation (and, with ``--replay``, that every committed
corpus entry still reproduces). The one-shot default runs on the
``repro.service`` substrate (submit + N workers + report, verdicts
recorded in the results database); ``--submit`` / ``--worker`` /
``--status`` / ``--watch`` expose the persistent queue directly, so a
long campaign survives worker crashes and can be drained by workers on
any host sharing the database.

The ``net`` subcommand drives ``repro.net``, the live-network runtime:
an n-process cluster on localhost TCP sockets with socket-layer chaos
injection, wall-clock retransmit channels, a stall-to-verdict progress
monitor, and online linearizability checking of sampled history
windows (``--serve`` / ``--probe`` / ``--check`` for the remote and
offline paths).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.experiments import (
    ablation_naive_quorum,
    ablation_set0_reset,
    ablation_sticky_write_wait,
    broadcast_table,
    correctness_sweep,
    impossibility_table,
    message_passing_table,
    snapshot_table,
    step_complexity_table,
    test_or_set_table,
)
from repro.analysis.reporting import render_table


def _all_correct(headers, rows) -> bool:
    column = list(headers).index("correct")
    return all(row[column] for row in rows)


def _runner(exp_id: str):
    """(title, driver, verdict) for one experiment id."""
    registry: Dict[str, Tuple[str, Callable, Callable]] = {
        "E1": (
            "E1 — verifiable register (Theorem 14)",
            lambda: correctness_sweep("verifiable", ns=(4, 7), seeds=(0, 1)),
            _all_correct,
        ),
        "E2": (
            "E2 — authenticated register (Theorem 20)",
            lambda: correctness_sweep("authenticated", ns=(4, 7), seeds=(0, 1)),
            _all_correct,
        ),
        "E3": (
            "E3 — sticky register (Theorem 25)",
            lambda: correctness_sweep("sticky", ns=(4, 7), seeds=(0, 1)),
            _all_correct,
        ),
        "E5": (
            "E5 — Theorem 29 / Figure 1",
            lambda: impossibility_table(fs=(1, 2)),
            lambda headers, rows: all(
                (row[list(headers).index("violated")] != "nothing")
                == (row[0] == 3 * row[1])
                for row in rows
            ),
        ),
        "E6": (
            "E6 — test-or-set (Observation 30)",
            lambda: test_or_set_table(n=4, seeds=(0, 1)),
            _all_correct,
        ),
        "E7": (
            "E7 — Byzantine atomic snapshot",
            lambda: snapshot_table(n=4, seeds=(0,)),
            lambda headers, rows: all(row[3] and row[4] for row in rows),
        ),
        "E8": (
            "E8 — broadcast uniqueness",
            lambda: broadcast_table(n=4, seeds=(0,)),
            lambda headers, rows: all(
                row[4] for row in rows if "sticky" in row[0]
            ),
        ),
        "E9": (
            "E9 — Algorithm 1 over message passing",
            lambda: message_passing_table(seeds=(0,)),
            _all_correct,
        ),
        "E10": (
            "E10 — step complexity",
            lambda: step_complexity_table(ns=(4, 7), seeds=(0,)),
            lambda headers, rows: bool(rows),
        ),
        "E11": (
            "E11 — §5.1 mechanism ablations",
            _run_e11,
            lambda headers, rows: all(row[-1] for row in rows),
        ),
        "E12": (
            "E12 — sticky Write witness-wait ablation",
            ablation_sticky_write_wait,
            lambda headers, rows: (
                rows[0][2] is True and rows[1][2] is False
            ),
        ),
    }
    return registry.get(exp_id)


def _run_e11():
    headers_a, rows_a = ablation_naive_quorum()
    headers_b, rows_b = ablation_set0_reset()
    merged_rows = [
        (
            f"relay: {row[0]}",
            f"A={row[1]} B={row[2]}",
            # The paper's Verify must preserve relay; the naive one must
            # demonstrably break it.
            row[3] if row[0] == "verifiable" else not row[3],
        )
        for row in rows_a
    ] + [
        (
            f"liveness: {row[0]}",
            f"terminates={row[1]}",
            row[1] if "paper" in row[0] else not row[1],
        )
        for row in rows_b
    ]
    return ("ablation", "observation", "as expected"), merged_rows


ALL_IDS = ("E1", "E2", "E3", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12")


def _list_experiments() -> int:
    """Print every experiment id with its title; exit code 0."""
    for exp_id in ALL_IDS:
        title, _driver, _verdict = _runner(exp_id)
        print(f"{exp_id:4} {title}")
    print("explore  schedule-space exploration (see `explore --help`)")
    print("campaign differential conformance campaign (see `campaign --help`)")
    print("scenarios unified scenario registry listing (see `scenarios --help`)")
    return 0


def _scenarios_main(argv: Sequence[str]) -> int:
    """The ``scenarios`` subcommand: enumerate the unified registry."""
    import json

    from repro import scenarios as registry

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis scenarios",
        description=(
            "List the unified scenario registry: every record's "
            "coordinates (family, n, f, engine, adversary/workload "
            "params), its pinned differential expectation, and which "
            "consumers (campaign / explore / smoke / net) include it."
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the registry table (the default action)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the records as JSON instead of a table",
    )
    parser.add_argument(
        "--consumer",
        choices=registry.CONSUMERS,
        default=None,
        help="only records a given consumer includes",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="FAMILY",
        help="restrict to an implementation family (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.family:
        known = registry.registered_families()
        for family in args.family:
            if family not in known:
                parser.error(
                    f"unknown family {family!r}; known: {', '.join(known)}"
                )
    records = registry.grid(consumer=args.consumer, families=args.family)

    if args.json:
        print(
            json.dumps(
                [
                    {
                        "label": record.label(),
                        "family": record.family,
                        "n": record.n,
                        "f": record.f,
                        "scenario": record.spec.name,
                        "params": dict(record.spec.params),
                        "engine": record.engine,
                        "expect_violation": record.expect_violation,
                        "consumers": list(record.consumers),
                        "fingerprint": record.fingerprint(),
                    }
                    for record in records
                ],
                indent=2,
                sort_keys=True,
                default=repr,
            )
        )
        return 0

    headers = (
        "family",
        "scenario",
        "n",
        "f",
        "engine",
        "expected",
        "consumers",
        "fingerprint",
    )
    rows = [
        (
            record.family,
            record.spec.label(),
            record.n,
            record.f,
            record.engine,
            "violation" if record.expect_violation else "clean",
            ",".join(record.consumers),
            record.fingerprint(),
        )
        for record in records
    ]
    print(
        render_table(
            headers,
            rows,
            title=f"Scenario registry — {len(records)} record(s)",
        )
    )
    print()
    families = registry.registered_families()
    print(
        f"{len(records)} record(s) across {len(families)} famil"
        f"{'y' if len(families) == 1 else 'ies'}; resolve one with "
        f"repro.scenarios.resolve(label)"
    )
    return 0


def _explore_main(argv: Sequence[str]) -> int:
    """The ``explore`` subcommand: systematic search + swarm + shrink."""
    from repro.analysis.reporting import render_table
    from repro.explore import adversary_grid, explore, fuzz, make_scenario, shrink

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis explore",
        description=(
            "Search the schedule space of a scenario with the bounded "
            "systematic explorer and a swarm fuzzing campaign; shrink the "
            "first violation to a ScriptedScheduler script."
        ),
    )
    parser.add_argument(
        "--scenario",
        default="theorem29",
        help="what to explore: the Theorem 29 race (default), 'register' "
        "(randomized register workloads with adversary combinations), or "
        "any scenario-registry record label (run under its pinned engine "
        "only) — see `scenarios --list`",
    )
    parser.add_argument("--f", type=int, default=1, help="fault bound (theorem29)")
    parser.add_argument(
        "--budget",
        type=int,
        default=600,
        help="runs per engine per phase (default 600)",
    )
    parser.add_argument("--depth", type=int, default=14, help="systematic depth bound")
    parser.add_argument(
        "--preempt", type=int, default=2, help="systematic preemption bound"
    )
    parser.add_argument(
        "--reduction",
        choices=("sleep", "dpor", "dpor+symmetry"),
        default=None,
        help="systematic pruning strategy: sleep-set baseline, source-set "
        "dynamic partial-order reduction, or dpor plus interchangeable-"
        "process symmetry folding (default: what the registry record "
        "pins, else sleep)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, help="fuzzer processes (default: cores, <=4)"
    )
    parser.add_argument("--seed", type=int, default=0, help="first fuzzing seed")
    parser.add_argument(
        "--kind",
        default="verifiable",
        choices=("verifiable", "authenticated", "sticky"),
        help="register kind (register scenario)",
    )
    parser.add_argument("--n", type=int, default=4, help="processes (register scenario)")
    parser.add_argument("--no-shrink", action="store_true", help="skip shrinking")
    parser.add_argument(
        "--no-control",
        action="store_true",
        help="skip the n = 3f + 1 control phase (theorem29)",
    )
    args = parser.parse_args(argv)
    if args.f < 1:
        parser.error("--f must be >= 1")
    if args.budget < 1:
        parser.error("--budget must be >= 1")

    headers = ("phase", "engine", "runs", "runs/s", "states/s", "violations", "note")
    rows: List[Tuple] = []

    def run_phase(
        phase: str,
        scenarios,
        expect_violation: bool,
        reduction: str = "sleep",
        symmetry=(),
        engines: Tuple[str, ...] = ("systematic", "swarm"),
    ) -> bool:
        """Run ``engines`` over ``scenarios``; returns found-violation.

        The systematic engine needs a single target scenario.
        """
        target = scenarios[0] if len(scenarios) == 1 else None
        found = []
        if target is not None and "systematic" in engines:
            sys_report = explore(
                target,
                depth_bound=args.depth,
                preemption_bound=args.preempt,
                budget=args.budget,
                reduction=reduction,
                symmetry=symmetry,
            )
            print(sys_report.summary())
            rows.append(
                (
                    phase,
                    f"systematic/dfs/{reduction}",
                    sys_report.runs,
                    round(sys_report.runs_per_sec),
                    round(sys_report.states_per_sec),
                    len(sys_report.violations),
                    "exhausted" if sys_report.exhausted else "budget",
                )
            )
            found.extend(sys_report.violations)
        if "swarm" in engines:
            fuzz_report = fuzz(
                scenarios, budget=args.budget, shards=args.shards, seed0=args.seed
            )
            print(fuzz_report.summary())
            rows.append(
                (
                    phase,
                    f"swarm x{fuzz_report.shards}",
                    fuzz_report.runs,
                    round(fuzz_report.runs_per_sec),
                    "-",
                    len(fuzz_report.violations),
                    f"{sum(fuzz_report.violation_counts.values())} violating runs",
                )
            )
            known = {v.fingerprint() for v in found}
            found.extend(
                v for v in fuzz_report.violations if v.fingerprint() not in known
            )
        for violation in found:
            print(f"  -> {violation.describe()}")
        if found and expect_violation and not args.no_shrink and target is not None:
            shrunk = shrink(target, found[0])
            print(f"  {shrunk.describe()}")
            print()
            print(shrunk.script_source())
        return bool(found)

    if args.scenario == "theorem29":
        from repro.explore import theorem29_symmetry

        reduction = args.reduction or "sleep"
        n = 3 * args.f
        print(f"== phase 1: theorem29 at n = 3f = {n} (violation expected) ==")
        found_at_bound = run_phase(
            f"n=3f={n}",
            [make_scenario("theorem29", f=args.f)],
            expect_violation=True,
            reduction=reduction,
            symmetry=theorem29_symmetry(f=args.f),
        )
        clean_control = True
        if not args.no_control:
            print()
            print(f"== phase 2: control at n = 3f + 1 = {n + 1} (must be clean) ==")
            control_found = run_phase(
                f"n=3f+1={n + 1}",
                [make_scenario("theorem29", f=args.f, extra_correct=True)],
                expect_violation=False,
                reduction=reduction,
                symmetry=theorem29_symmetry(f=args.f, extra_correct=True),
            )
            clean_control = not control_found
        print()
        print(render_table(headers, rows, title="Schedule exploration — Theorem 29"))
        ok = found_at_bound and clean_control
        print()
        if ok:
            print(
                "PASS: violation found and shrunk at n = 3f"
                + ("" if args.no_control else "; n = 3f + 1 clean within the same bounds")
            )
        else:
            if not found_at_bound:
                print("FAIL: no violation found at n = 3f within the budget")
            if not clean_control:
                print("FAIL: violation found at n = 3f + 1 (control should be clean)")
        return 0 if ok else 1

    if args.scenario == "register":
        # register scenario: fuzz adversary behaviour combinations; the
        # paper's algorithms must hold, so any violation is a failure.
        scenarios = adversary_grid(
            kind=args.kind, n=args.n, seeds=(args.seed, args.seed + 1)
        )
        print(
            f"== swarm over {len(scenarios)} {args.kind} register scenario(s), "
            f"n={args.n} =="
        )
        found = run_phase(
            f"{args.kind} n={args.n}",
            scenarios,
            expect_violation=False,
            reduction=args.reduction or "sleep",
        )
        print()
        print(
            render_table(headers, rows, title="Schedule exploration — register workloads")
        )
        print()
        print("PASS: no violations" if not found else "FAIL: violations found")
        return 0 if not found else 1

    # Anything else is a scenario-registry record label: one record
    # pins the scenario spec, the engine and the differential
    # expectation to judge the findings by, so any registered cell is
    # explorable without growing this parser. Like the campaign, run
    # the record under its pinned engine only: swarm-pinned cells (the
    # mp emulation's) keep protocol state the fingerprint memo of the
    # systematic engine cannot see.
    from repro import scenarios as registry
    from repro.errors import ConfigurationError

    try:
        record = registry.resolve(args.scenario)
    except ConfigurationError as exc:
        parser.error(str(exc))
    if record.engine == "live":
        parser.error(
            f"{record.label()} runs on wall clocks; use "
            f"`python -m repro.analysis net --cell {record.fingerprint()}`"
        )
    expectation = "violation expected" if record.expect_violation else "must be clean"
    print(f"== registry record {record.label()} ({expectation}) ==")
    found = run_phase(
        record.label(),
        [record.spec],
        expect_violation=record.expect_violation,
        # An explicit --reduction wins; otherwise the record's pin (the
        # deferred broadcast systematic cells require a dpor mode).
        reduction=args.reduction or record.reduction,
        symmetry=record.symmetry,
        engines=(record.engine,),
    )
    print()
    print(
        render_table(
            headers, rows, title=f"Schedule exploration — {record.label()}"
        )
    )
    print()
    ok = found == record.expect_violation
    if ok:
        print(
            "PASS: findings match the registry's pinned expectation "
            f"({expectation})"
        )
    else:
        print(
            f"FAIL: {'no violation found' if record.expect_violation else 'violation found'} "
            f"but the registry pins {expectation!r} for {record.label()}"
        )
    return 0 if ok else 1


def _campaign_main(argv: Sequence[str]) -> int:
    """The ``campaign`` subcommand: differential matrix + corpus + service."""
    import json
    from pathlib import Path

    from repro.campaign import (
        IMPLEMENTATIONS,
        default_corpus_dir,
        load_corpus,
        replay_entry,
    )
    from repro.errors import ConfigurationError
    from repro.service import (
        DEFAULT_LEASE_TTL,
        ResultsStore,
        default_db_path,
        render_status,
        run_service_campaign,
        verdicts_payload,
    )
    from repro.service import client as service_client
    from repro.service import queue as service_queue
    from repro.service.worker import run_worker

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis campaign",
        description=(
            "Run a differential conformance campaign: every repro.core "
            "implementation family x scenario x engine, checked against the "
            "repro.spec oracles, with violations shrunk into the replayable "
            "corpus. The default runs one-shot (submit + workers + report "
            "on the service substrate); --submit/--worker/--status/--watch "
            "drive the persistent run queue directly."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bounded budgets and adversary grids (the CI matrix)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the swarm budget per cell (systematic cells get 4x)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="worker processes (default: cores, <=4)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="first fuzzing seed (default 0)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=IMPLEMENTATIONS,
        help="restrict to an implementation family (repeatable)",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="corpus directory (default: the repo's corpus/)",
    )
    parser.add_argument(
        "--no-corpus",
        action="store_true",
        help="do not persist shrunk violations",
    )
    parser.add_argument("--no-shrink", action="store_true", help="skip shrinking")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--replay",
        action="store_true",
        help="replay every committed corpus entry instead of running the "
        "matrix (verdicts are recorded in the service database's trend "
        "table)",
    )
    mode.add_argument(
        "--submit",
        action="store_true",
        help="enqueue the selected matrix as a persistent run and exit; "
        "workers pick it up with --worker",
    )
    mode.add_argument(
        "--worker",
        action="store_true",
        help="run one leasing worker until the queue drains (start as many "
        "as you like, on any host sharing the database)",
    )
    mode.add_argument(
        "--status",
        action="store_true",
        help="print a run's live status: shard/lease state, per-cell "
        "verdicts, throughput, and drift vs prior runs",
    )
    mode.add_argument(
        "--watch",
        action="store_true",
        help="follow a run, streaming each cell verdict once, until it "
        "completes",
    )
    parser.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="service database (default: .repro/service.db in the repo)",
    )
    parser.add_argument(
        "--run",
        default=None,
        metavar="RUN_ID",
        help="run id for --worker/--status/--watch (default: latest)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help=f"shard lease expiry; a worker dead longer than this forfeits "
        f"its shard back to the queue (default {DEFAULT_LEASE_TTL:.0f})",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=1,
        metavar="CELLS",
        help="cells per leasable shard (default 1)",
    )
    parser.add_argument(
        "--verdicts",
        default=None,
        metavar="PATH",
        help="write the machine-comparable cell-verdict JSON here "
        "(one-shot, --status and --watch)",
    )
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.shard_size < 1:
        parser.error("--shard-size must be >= 1")

    matrix_flags = (
        ("--smoke", args.smoke),
        ("--budget", args.budget is not None),
        ("--shards", args.shards is not None),
        ("--seed", args.seed is not None),
        ("--only", bool(args.only)),
        ("--no-corpus", args.no_corpus),
        ("--no-shrink", args.no_shrink),
    )

    def reject_flags(mode_name: str, flags) -> None:
        given = [flag for flag, on in flags if on]
        if given:
            parser.error(
                f"{mode_name} does not select a matrix; drop {', '.join(given)}"
            )

    db_path = Path(args.db) if args.db else default_db_path()
    corpus_dir = args.corpus or default_corpus_dir()

    if args.replay:
        reject_flags("--replay (it replays the whole corpus)", matrix_flags)
        entries = load_corpus(corpus_dir)
        if not entries:
            # Loud by design: CI replays the committed corpus, and a
            # lost/ignored corpus directory must fail the step, not
            # pass vacuously.
            print(f"FAIL: corpus {corpus_dir} is empty; nothing to replay")
            return 1
        # One shared CheckContext across the whole batch: entries of the
        # same scenario shape share spec.apply transitions and repeated
        # replays share whole verdicts.
        from repro.spec import CheckContext

        replay_ctx = CheckContext()
        store = ResultsStore(db_path)
        failures = 0
        for entry in entries:
            outcome = replay_entry(entry, ctx=replay_ctx)
            verdict = "ok" if outcome.ok else f"FAIL ({outcome.detail})"
            print(f"replay {entry.label()}: {verdict}")
            # Every replay appends to the trend table, pass or fail:
            # "when did this entry last reproduce?" needs both.
            store.record_replay_verdict(
                entry_id=entry.entry_id,
                entry_label=entry.label(),
                fingerprint=entry.fingerprint,
                ok=outcome.ok,
                detail=outcome.detail,
                source="campaign --replay",
            )
            failures += 0 if outcome.ok else 1
        store.close()
        print()
        print(f"recorded {len(entries)} replay verdict(s) in {db_path}")
        if failures:
            print(f"FAIL: {failures}/{len(entries)} corpus entries regressed")
            return 1
        print(f"PASS: all {len(entries)} corpus entries still reproduce")
        return 0

    if args.submit:
        seed0 = 0 if args.seed is None else args.seed
        store = ResultsStore(db_path)
        run_id = service_queue.submit_matrix(
            store,
            smoke=args.smoke,
            seed0=seed0,
            swarm_budget=args.budget,
            systematic_budget=4 * args.budget if args.budget else None,
            implementations=args.only,
            shard_size=args.shard_size,
            options={
                "shrink": not args.no_shrink,
                "corpus_dir": None if args.no_corpus else str(corpus_dir),
                "source": (
                    f"campaign{' --smoke' if args.smoke else ''} "
                    f"--seed {seed0}"
                ),
            },
        )
        result = service_client.status(store, run_id, with_drift=False)
        store.close()
        print(
            f"submitted run {run_id}: {result.cells} cell(s) in "
            f"{result.shards} shard(s) -> {db_path}"
        )
        print(
            f"next: python -m repro.analysis campaign --worker --db {db_path}"
        )
        return 0

    if args.worker:
        reject_flags("--worker (the run pins its matrix)", matrix_flags)
        try:
            summary = run_worker(
                db_path,
                run_id=args.run,
                lease_ttl=args.lease_ttl,
                progress=print,
            )
        except ConfigurationError as exc:
            parser.error(str(exc))
        print(summary.describe())
        return 0

    if args.status or args.watch:
        reject_flags(
            "--watch" if args.watch else "--status",
            matrix_flags,
        )
        store = ResultsStore(db_path)
        try:
            if args.watch:
                result = service_client.watch(store, args.run, emit=print)
            else:
                result = service_client.status(store, args.run)
        except ConfigurationError as exc:
            parser.error(str(exc))
        store.close()
        print(render_status(result))
        if args.verdicts:
            Path(args.verdicts).write_text(
                json.dumps(verdicts_payload(result), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"wrote {args.verdicts}")
        if result.mismatched:
            return 1
        # An in-flight run without mismatches is healthy so far; a
        # complete one must also have every cell recorded.
        return 0 if (not result.complete or result.ok) else 1

    # One-shot: the classic campaign, re-expressed as submit + N inline
    # workers + report on the service substrate. Verdicts are
    # byte-identical to the old run_campaign path (both execute through
    # run_cell); the difference is that they also land in the database,
    # so the next run can report drift.
    from repro.campaign import default_matrix

    seed0 = 0 if args.seed is None else args.seed
    cells = default_matrix(
        smoke=args.smoke,
        seed0=seed0,
        swarm_budget=args.budget,
        systematic_budget=4 * args.budget if args.budget else None,
        implementations=args.only,
    )
    print(
        f"== differential campaign: {len(cells)} cells over "
        f"{len({cell.implementation for cell in cells})} implementation "
        f"family(ies) =="
    )
    result = run_service_campaign(
        cells,
        workers=args.shards,
        db=db_path,
        shard_size=args.shard_size,
        lease_ttl=args.lease_ttl,
        progress=print,
        shrink_violations=not args.no_shrink,
        corpus_dir=None if args.no_corpus else corpus_dir,
        corpus_source=f"campaign{' --smoke' if args.smoke else ''} --seed {seed0}",
    )

    headers = (
        "implementation",
        "scenario",
        "engine",
        "runs",
        "runs/s",
        "violations",
        "expected",
        "ok",
    )
    rows = []
    for verdict in result.verdicts:
        implementation, rest = verdict.label.split("/", 1)
        engine, scenario = rest.split(":", 1)
        rate = verdict.runs / verdict.elapsed if verdict.elapsed > 0 else 0.0
        rows.append(
            (
                implementation,
                scenario,
                engine,
                verdict.runs,
                round(rate),
                len(verdict.class_fingerprints),
                verdict.expected,
                verdict.ok,
            )
        )
    print()
    print(render_table(headers, rows, title="Differential conformance campaign"))
    print()
    print(result.summary())
    for row in result.violations:
        if row["state"] == "failed":
            print(
                f"  shrink failure: {row['scenario_label']}"
                f"#{row['fingerprint']}: {row['detail']}"
            )
    for drift in result.drift:
        print(f"  {drift.describe()}")
    if args.verdicts:
        Path(args.verdicts).write_text(
            json.dumps(verdicts_payload(result), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {args.verdicts}")
    print()
    if result.ok:
        print("PASS: every cell matched the paper's expectation")
        return 0
    for verdict in result.mismatched:
        print(f"FAIL: {verdict.describe()}")
    return 1


def main(argv: Sequence[str]) -> int:
    """Entry point; returns a process exit code."""
    if argv and argv[0] in ("--list", "-l"):
        return _list_experiments()
    if argv and argv[0].lower() == "explore":
        return _explore_main(list(argv[1:]))
    if argv and argv[0].lower() == "campaign":
        return _campaign_main(list(argv[1:]))
    if argv and argv[0].lower() == "scenarios":
        return _scenarios_main(list(argv[1:]))
    if argv and argv[0].lower() == "net":
        from repro.analysis.net import main as net_main

        return net_main(list(argv[1:]))
    wanted = [arg.upper() for arg in argv] or list(ALL_IDS)
    failures: List[str] = []
    for exp_id in wanted:
        entry = _runner(exp_id)
        if entry is None:
            print(f"unknown experiment id {exp_id!r}; known: {', '.join(ALL_IDS)}")
            return 2
        title, driver, verdict = entry
        started = time.time()
        headers, rows = driver()
        elapsed = time.time() - started
        print()
        print(render_table(headers, rows, title=title))
        ok = verdict(headers, rows)
        print(f"[{exp_id}] {'PASS' if ok else 'FAIL'}  ({elapsed:.1f}s)")
        if not ok:
            failures.append(exp_id)
    print()
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"All {len(wanted)} experiments reproduce their expected shapes.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
