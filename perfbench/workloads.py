"""The benchmark's three workloads and the layer wrappers for each.

Every workload is set up once, then iterated; an iteration ends at the
workload's final verdict and returns an :class:`Outcome`. The program's
modules are imported inside ``setup`` only, so a fresh interpreter can
time its imports as part of set-up.

* ``campaign`` — the one-shot campaign on the service substrate with
  shrinking and a corpus, inline worker (``workers=1``), over a cut of
  the smoke matrix that fits one run (see ``Campaign``).
* ``certify`` — the dpor+symmetry exhaustion of the clean Theorem 29
  cell at f = 2 (n = 3f + 1), which must end clean in a pinned number
  of runs.
* ``live`` — a fault-free localhost socket cluster (n = 4, f = 1) under
  a closed loop of 4 asyncio clients, one homed on each node.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from spans import Span, Tracer


@dataclass
class Outcome:
    """One iteration: time to verdict plus what was attempted and missed."""

    wall_s: float
    attempted: int
    failed: int
    #: Machine-comparable verdict document (traced vs untraced identity).
    payload: str = ""
    #: Per-iteration figures the workload reads off the program's reports.
    extra: Dict[str, Any] = field(default_factory=dict)


class PinnedCountDrift(RuntimeError):
    """A count the benchmark pins moved: the workload no longer measures
    what it was defined to measure, so the run aborts without a result."""


# ----------------------------------------------------------------------
# Shared simulation wrappers (campaign and certify)
# ----------------------------------------------------------------------
def install_sim(tracer: Tracer, context: Dict[str, Any]) -> None:
    """Spans for ``Scenario.build`` and the drive/check pair it returns.

    The drive span counts kernel steps, pauses and completed operations
    from ``system.metrics``, and splits the steps of the coroutines
    runnable before the drive into client and daemon (every other role)
    steps. ``context["family"]`` names the campaign cell being worked on.
    Oracle work done by the early-exit monitor inside a drive is part of
    the drive span.
    """
    from repro.scenarios.registry import Scenario

    def wrap_built(span: Span, args: Tuple, built: Any, _state: Any) -> None:
        if built is None:
            return
        system = built.system

        def before(_args: Tuple) -> Tuple:
            cids = tuple(system.runnable())
            m = system.metrics
            return (
                cids,
                [system.steps_of(cid) for cid in cids],
                m.total_steps,
                m.pauses,
                m.responses,
            )

        def after(span: Span, _args: Tuple, _result: Any, state: Tuple) -> None:
            cids, start_steps, steps0, pauses0, ops0 = state
            client = daemon = 0
            for cid, start in zip(cids, start_steps):
                taken = system.steps_of(cid) - start
                if cid[1] == "client":
                    client += taken
                else:
                    daemon += taken
            m = system.metrics
            span.attrs.update(
                steps=m.total_steps - steps0,
                pauses=m.pauses - pauses0,
                ops=m.responses - ops0,
                client=client,
                daemon=daemon,
                family=context.get("family"),
            )

        built.drive = tracer.layer("sim.drive", built.drive, before, after)
        built.check = tracer.layer("spec.check", built.check)

    tracer.patch(
        Scenario,
        "build",
        tracer.layer("scenarios.build", Scenario.__dict__["build"], after=wrap_built),
    )


def install_explore(tracer: Tracer, owner: Any) -> None:
    """Spans for ``explore`` as ``owner`` binds it, and for race analysis."""
    import repro.explore.explorer as explorer

    def report(span: Span, _args: Tuple, result: Any, _state: Any) -> None:
        if result is not None:
            span.attrs.update(
                runs=result.runs,
                states=result.states,
                unique=result.unique_states,
                races=result.races_detected,
            )

    tracer.patch(owner, "explore", tracer.layer("explore.search", owner.explore, after=report))
    tracer.patch(
        explorer, "analyze_run", tracer.layer("explore.analyze", explorer.analyze_run)
    )


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
class Campaign:
    """``run_service_campaign`` over a cut of the smoke matrix.

    The full smoke matrix takes about 170 s on a 2-core host, 113 s of
    it one shrink, which does not fit a benchmark run. The cut keeps the
    shape that matters: every family but the two broadcast apps (whose
    systematic cells alone take 23 s), the swarm budget at 8 runs per
    cell instead of 24, and 40 replays per shrink instead of 400. The
    ``snapshot(byzantine_updater, verify_freshness=False)`` cell stays;
    its capped shrink is still the largest layer.

    ``seed0`` stays at 0, the CLI default: the smoke budget misses
    expected violations at other seeds (the self-test reports one).
    """

    name = "campaign"
    families = (
        "verifiable",
        "authenticated",
        "sticky",
        "signature_baseline",
        "naive",
        "test_or_set",
        "snapshot",
        "asset_transfer",
        "mp_emulation",
    )
    swarm_budget = 8
    max_shrink_replays = 40

    def __init__(self, seed0: int = 0):
        self.seed0 = seed0

    def setup(self, seed: int) -> Any:
        from repro.campaign.matrix import default_matrix
        import repro.service.client  # noqa: F401  (part of set-up cost)

        return default_matrix(
            smoke=True,
            seed0=self.seed0,
            swarm_budget=self.swarm_budget,
            implementations=self.families,
        )

    def iterate(self, cells: Any, index: int, seed: int) -> Outcome:
        from repro.service.client import run_service_campaign, verdicts_payload

        with tempfile.TemporaryDirectory(prefix="corpus-") as corpus:
            started = time.perf_counter()
            status = run_service_campaign(
                cells,
                workers=1,
                corpus_dir=corpus,
                max_shrink_replays=self.max_shrink_replays,
            )
            wall = time.perf_counter() - started
        shrink_failures = sum(1 for row in status.violations if row["state"] == "failed")
        missing = len(cells) - len(status.verdicts)
        return Outcome(
            wall_s=wall,
            attempted=len(cells),
            failed=len(status.mismatched) + shrink_failures + missing,
            payload=json.dumps(verdicts_payload(status), sort_keys=True),
        )

    def install(self, tracer: Tracer) -> None:
        import repro.campaign.matrix as matrix
        import repro.service.queue as queue
        import repro.service.worker as worker
        from repro.service.store import ResultsStore

        context: Dict[str, Any] = {}
        install_sim(tracer, context)
        install_explore(tracer, matrix)

        def enter_cell(args: Tuple) -> None:
            context["family"] = args[0].implementation

        def cell_done(span: Span, args: Tuple, _result: Any, _state: Any) -> None:
            span.attrs["family"] = args[0].implementation

        def shrunk(span: Span, args: Tuple, result: Any, _state: Any) -> None:
            span.attrs["original"] = len(args[1].trace)
            if result is not None:
                span.attrs.update(replays=result.replays, kept=len(result.trace))

        tracer.patch(
            worker, "run_cell", tracer.layer("campaign.cell", worker.run_cell, enter_cell, cell_done)
        )
        tracer.patch(worker, "shrink", tracer.layer("explore.shrink", worker.shrink, after=shrunk))
        tracer.patch(
            worker,
            "canonicalize_violation",
            tracer.layer("campaign.canonicalize", worker.canonicalize_violation),
        )
        tracer.patch(worker, "save_entry", tracer.layer("campaign.corpus", worker.save_entry))
        for name, fn in list(vars(queue).items()):
            if inspect.isfunction(fn) and fn.__module__ == queue.__name__ and not name.startswith("_"):
                tracer.patch(queue, name, tracer.layer("service.store", fn))
        for name, fn in list(vars(ResultsStore).items()):
            if inspect.isfunction(fn) and (name == "__init__" or not name.startswith("_")):
                tracer.patch(ResultsStore, name, tracer.layer("service.store", fn))


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------
class Certify:
    """Exhaust the clean f = 2 Theorem 29 cell under dpor+symmetry.

    The exhaustive search has no random input, so the seed is ignored.
    The branch executor is pinned to ``replay``: ``auto`` would pick the
    fork executor on hosts with more than one CPU, whose child processes
    neither the spans nor a cross-host comparison could follow.
    """

    name = "certify"
    f = 2
    pinned_runs = 1688

    def setup(self, seed: int) -> Any:
        from repro.explore import make_scenario, theorem29_symmetry

        return (
            make_scenario("theorem29", f=self.f, extra_correct=True),
            theorem29_symmetry(f=self.f, extra_correct=True),
        )

    def iterate(self, inputs: Any, index: int, seed: int) -> Outcome:
        import repro.explore.explorer as explorer

        scenario, symmetry = inputs
        started = time.perf_counter()
        report = explorer.explore(
            scenario,
            depth_bound=14,
            preemption_bound=2,
            budget=4 * self.pinned_runs,
            prefix_sharing="replay",
            reduction="dpor+symmetry",
            symmetry=symmetry,
        )
        wall = time.perf_counter() - started
        if report.runs != self.pinned_runs:
            raise PinnedCountDrift(
                f"certify explored {report.runs} runs, pinned {self.pinned_runs}"
            )
        clean = report.exhausted and not report.violations
        return Outcome(
            wall_s=wall,
            attempted=1,
            failed=0 if clean else 1,
            payload=json.dumps(
                {"runs": report.runs, "states": report.states, "clean": clean}
            ),
        )

    def install(self, tracer: Tracer) -> None:
        import repro.explore.explorer as explorer

        install_sim(tracer, {})
        install_explore(tracer, explorer)


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
class Live:
    """A closed loop of 4 clients against a fault-free 4-node cluster.

    Iteration ``i`` of a run uses ``LiveProfile.seed = seed * 1000 + i``
    (the clients' op sequences), so a run pools several op mixes drawn
    from its seed. Each iteration deploys a fresh cluster; its start and
    stop are outside the timed span, which runs from the first operation
    to the last window judged. 1,200 ops per iteration leave 11 samples
    beyond the p99.
    """

    name = "live"
    clients = 4
    rounds = 5
    ops_per_client = 60

    def profile(self, seed: int) -> Any:
        from repro.net import LiveProfile

        return LiveProfile(
            n=4,
            f=1,
            seed=seed,
            clients=self.clients,
            rounds=self.rounds,
            ops_per_client=self.ops_per_client,
            label="perfbench.live",
        )

    def setup(self, seed: int) -> Any:
        from repro.net.cluster import LiveCluster

        async def start_stop() -> None:
            cluster = LiveCluster(self.profile(seed))
            await cluster.start()
            await cluster.stop()

        asyncio.run(start_stop())
        return None

    def iterate(self, _inputs: Any, index: int, seed: int) -> Outcome:
        import repro.net.cluster as cluster_module

        generators: List[Any] = []

        class Recorded(cluster_module.LoadGenerator):
            def __init__(self, *args: Any, **kwargs: Any):
                super().__init__(*args, **kwargs)
                generators.append(self)

        async def once() -> Tuple[Any, float]:
            cluster = cluster_module.LiveCluster(self.profile(seed * 1000 + index))
            await cluster.start()
            try:
                started = time.perf_counter()
                report = await cluster.run()
                return report, time.perf_counter() - started
            finally:
                await cluster.stop()

        original = cluster_module.LoadGenerator
        cluster_module.LoadGenerator = Recorded
        try:
            report, wall = asyncio.run(once())
        finally:
            cluster_module.LoadGenerator = original
        stats = generators[0].stats
        judged = {w["window"] for w in report.windows}
        bad_windows = [w for w in report.windows if not w["verdict"]["ok"]]
        failed = (stats.started - stats.finished) + sum(
            len(w["records"]) for w in bad_windows
        )
        if report.verdict != "CLEAN" or judged != set(range(self.rounds)):
            failed = max(failed, 1)
        ops = max(stats.finished, 1)
        extra: Dict[str, Any] = {
            "latencies": {kind: list(v) for kind, v in stats.latencies.items()},
            "ops": stats.finished,
            "retransmits": sum(n.get("channels", {}).get("retransmitted", 0) for n in report.nodes),
            "delivered": sum(n["delivered"] for n in report.nodes),
            "ops_per_s": stats.finished / wall,
        }
        extra["retransmits_per_op"] = extra["retransmits"] / ops
        extra["delivered_per_op"] = extra["delivered"] / ops
        return Outcome(
            wall_s=wall,
            attempted=self.clients * self.ops_per_client * self.rounds,
            failed=failed,
            payload=report.verdict,
            extra=extra,
        )

    def install(self, tracer: Tracer) -> None:
        import repro.net.cluster as cluster_module
        import repro.net.wire as wire

        tracer.patch(wire, "encode", tracer.tally("net.encode", wire.encode, size=len))
        tracer.patch(
            cluster_module,
            "window_evidence",
            tracer.layer("net.window_check", cluster_module.window_evidence),
        )


WORKLOADS = {w.name: w for w in (Campaign, Certify, Live)}
