"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout of the repository (the program is
imported from ``src/``). ``--trace 0`` measures the end-to-end metrics
with no instrumentation; ``--trace 1`` runs one untraced iteration as a
reference, then traced iterations, and prints the per-layer metrics
(spans go to ``perfbench/out/``). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. ``--self-test``
checks the traced split itself; see ``self_test``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from spans import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, Campaign, Live, Outcome, PinnedCountDrift  # noqa: E402

#: How many fresh interpreters time set-up in one ``--trace 0`` run.
SETUP_PROBES = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("scenarios.build_s", "s"),
    ("sim.drive_s", "s"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.steps_per_op", "steps/op"),
    ("sim.pause_share", "ratio"),
    ("sim.daemon_share", "ratio"),
    ("spec.check_s", "s"),
    ("spec.checks", "count"),
    ("explore.runs", "count"),
    ("explore.states", "count"),
    ("explore.races", "count"),
    ("explore.useful_frac", "ratio"),
    ("explore.analyze_s", "s"),
    ("explore.analyze_calls", "count"),
    ("explore.shrink_s", "s"),
    ("explore.shrink_replays", "count"),
    ("explore.shrink_steps", "count"),
    ("explore.shrink_kept", "ratio"),
    ("campaign.cell_s", "s"),
    ("campaign.canonicalize_s", "s"),
    ("campaign.corpus_s", "s"),
    ("service.store_s", "s"),
    ("service.store_calls", "count"),
    ("net.window_check_s", "s"),
    ("net.windows", "count"),
    ("net.encode_s", "s"),
    ("net.frames_per_op", "frames/op"),
    ("net.bytes_per_op", "B/op"),
    ("net.retransmits_per_op", "1/op"),
    ("net.delivered_per_op", "1/op"),
    ("live.ops_per_s", "1/s"),
    ("live.op_p50_ms", "ms"),
    ("live.op_p99_ms", "ms"),
    ("live.read_p50_ms", "ms"),
    ("live.write_p50_ms", "ms"),
    ("live.transfer_p50_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
) + tuple(
    (f"sim.steps_per_op.{family}", "steps/op") for family in Campaign.families
) + tuple((f"campaign.cell_s.{family}", "s") for family in Campaign.families)

#: Counts that must repeat exactly across runs of the same code.
EXACT_COUNTS = (
    "sim.steps",
    "sim.daemon_share",
    "explore.runs",
    "explore.states",
    "explore.races",
    "explore.shrink_replays",
) + tuple(f"sim.steps_per_op.{family}" for family in Campaign.families)


#: The named layers whose time ``trace.coverage`` adds up (outermost only).
COVERING = (
    "scenarios.build",
    "sim.drive",
    "spec.check",
    "explore.analyze",
    "explore.shrink",
    "campaign.cell",
    "campaign.canonicalize",
    "campaign.corpus",
    "service.store",
    "net.window_check",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (the same rule as the live load stats)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


# ----------------------------------------------------------------------
# Measurement loops
# ----------------------------------------------------------------------
def measure(run_one: Callable[[int], Outcome], seconds: float, first: int = 0) -> List[Outcome]:
    """Iterate until another iteration would overrun ``seconds`` (at least one).

    Garbage left by one iteration is collected before the next starts,
    so the peak resident set does not depend on when the collector ran.
    """
    outcomes: List[Outcome] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcomes.append(run_one(first + len(outcomes)))
        gc.collect()
        now = time.perf_counter()
        if (now - started) + (now - began) > seconds:
            return outcomes


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time (imports + inputs) over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Per-layer metrics of one traced iteration
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, root: Span, outcome: Outcome, counters: Dict[str, float]) -> Dict[str, float]:
    spans = [s for s in tracer.spans if s.run == root.run]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    index = {s.sid: s for s in spans}

    def seconds(name: str) -> float:
        return sum(s.seconds for s in by_name[name])

    def total(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in by_name[name])

    def under(span: Span, name: str) -> bool:
        parent = index.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = index.get(parent.parent)
        return False

    m: Dict[str, float] = {}
    m["scenarios.build_s"] = seconds("scenarios.build")
    drives = by_name["sim.drive"]
    steps = total("sim.drive", "steps")
    client, daemon = total("sim.drive", "client"), total("sim.drive", "daemon")
    m["sim.drive_s"] = seconds("sim.drive")
    m["sim.steps"] = steps
    m["sim.steps_per_s"] = _ratio(steps, m["sim.drive_s"])
    m["sim.steps_per_op"] = _ratio(steps, total("sim.drive", "ops"))
    m["sim.pause_share"] = _ratio(total("sim.drive", "pauses"), steps)
    m["sim.daemon_share"] = _ratio(daemon, client + daemon)
    for family in Campaign.families:
        mine = [s for s in drives if s.attrs.get("family") == family]
        m[f"sim.steps_per_op.{family}"] = _ratio(
            sum(s.attrs["steps"] for s in mine), sum(s.attrs["ops"] for s in mine)
        )
        m[f"campaign.cell_s.{family}"] = sum(
            s.seconds for s in by_name["campaign.cell"] if s.attrs["family"] == family
        )
    m["spec.check_s"] = seconds("spec.check")
    m["spec.checks"] = len(by_name["spec.check"])
    m["explore.runs"] = total("explore.search", "runs")
    m["explore.states"] = total("explore.search", "states")
    m["explore.races"] = total("explore.search", "races")
    m["explore.useful_frac"] = _ratio(total("explore.search", "unique"), m["explore.states"])
    m["explore.analyze_s"] = seconds("explore.analyze")
    m["explore.analyze_calls"] = len(by_name["explore.analyze"])
    m["explore.shrink_s"] = seconds("explore.shrink")
    m["explore.shrink_replays"] = total("explore.shrink", "replays")
    m["explore.shrink_steps"] = sum(
        s.attrs["steps"] for s in drives if under(s, "explore.shrink")
    )
    m["explore.shrink_kept"] = _ratio(
        total("explore.shrink", "kept"), total("explore.shrink", "original")
    )
    m["campaign.cell_s"] = seconds("campaign.cell")
    m["campaign.canonicalize_s"] = seconds("campaign.canonicalize")
    m["campaign.corpus_s"] = seconds("campaign.corpus")
    m["service.store_s"] = seconds("service.store")
    m["service.store_calls"] = len(by_name["service.store"])
    m["net.window_check_s"] = seconds("net.window_check")
    m["net.windows"] = len(by_name["net.window_check"])
    ops = outcome.extra.get("ops", 0)
    m["net.encode_s"] = counters.get("net.encode.s", 0.0)
    m["net.frames_per_op"] = _ratio(counters.get("net.encode.calls", 0), ops)
    m["net.bytes_per_op"] = _ratio(counters.get("net.encode.bytes", 0), ops)
    m["net.retransmits_per_op"] = outcome.extra.get("retransmits_per_op", 0.0)
    m["net.delivered_per_op"] = outcome.extra.get("delivered_per_op", 0.0)
    m["trace.wall_s"] = outcome.wall_s
    outermost = [
        s for s in spans
        if s.name in COVERING and not any(under(s, name) for name in COVERING)
    ]
    m["trace.coverage"] = _ratio(sum(s.seconds for s in outermost), outcome.wall_s)
    return m


def live_latencies(outcome: Outcome) -> Dict[str, float]:
    """Client-side latency figures of one untraced live iteration."""
    if "latencies" not in outcome.extra:
        return {}
    kinds = outcome.extra["latencies"]
    pooled = [v for values in kinds.values() for v in values]
    out = {
        "live.ops_per_s": outcome.extra["ops_per_s"],
        "live.op_p50_ms": _percentile(pooled, 0.50) * 1000,
        "live.op_p99_ms": _percentile(pooled, 0.99) * 1000,
    }
    for kind in ("read", "write", "transfer"):
        out[f"live.{kind}_p50_ms"] = _percentile(kinds.get(kind, []), 0.50) * 1000
    return out


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    workload = WORKLOADS[workload_name]()
    inputs = workload.setup(seed)

    def untraced(index: int) -> Outcome:
        return workload.iterate(inputs, index, seed)

    if not traced:
        outcomes = measure(untraced, seconds)
        metrics = {
            "setup_s": setup_seconds(workload_name, seed),
            "wall_s": statistics.median(o.wall_s for o in outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        consistent = True
    else:
        reference = untraced(0)
        tracer = Tracer()
        per_iteration: List[Dict[str, float]] = []
        workload.install(tracer)
        try:
            def traced_once(index: int) -> Outcome:
                tracer.run = index
                tracer.counters.clear()
                root = tracer.begin(f"workload.{workload_name}")
                try:
                    outcome = workload.iterate(inputs, index, seed)
                finally:
                    tracer.finish(root)
                per_iteration.append(layer_metrics(tracer, root, outcome, dict(tracer.counters)))
                return outcome

            traced_outcomes = measure(traced_once, seconds, first=1)
        finally:
            tracer.restore()
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{workload_name}-seed{seed}.jsonl"))
        outcomes = [reference] + traced_outcomes
        metrics = {
            name: statistics.median(row[name] for row in per_iteration)
            for name in per_iteration[0]
        }
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference.wall_s
        metrics.update(live_latencies(reference))
        units = dict(PER_LAYER)
        metrics = {name: metrics.get(name, 0.0) for name in units}
        # Same seed, same inputs: campaign and certify verdicts must not
        # depend on whether the wrappers were installed.
        consistent = workload_name == Live.name or all(
            o.payload == reference.payload for o in traced_outcomes
        )
        if not consistent:
            print("traced verdicts differ from the untraced reference", file=sys.stderr)
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": failed == 0 and consistent,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def _child_result(workload: str, seed: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def self_test() -> int:
    """Checks on the benchmark itself; exit status 1 if any fails.

    * the exact counts repeat bit for bit across two traced runs (two
      fresh interpreters) of ``campaign`` and ``certify``;
    * the named layers cover at least 90% of ``wall_s`` on both, shrink
      is the largest layer on ``campaign``, and drive plus race
      analysis cover most of ``certify``;
    * the tracing overhead (traced minus untraced ``wall_s``) per
      workload is printed;
    * ``campaign`` at ``seed0=7`` reports its fail rate: the smoke
      budget misses the naive flip-flop violation there, a known
      defect of the program that this check reports as a failure.
    """
    failures: List[str] = []

    def check(ok: bool, line: str) -> None:
        print(("ok   " if ok else "FAIL ") + line)
        if not ok:
            failures.append(line)

    for workload in ("campaign", "certify", "live"):
        first, second = _child_result(workload, 0), _child_result(workload, 0)
        print(f"{workload}: traced wall {first['trace.wall_s']:.3f} s, "
              f"tracing overhead {first['trace.overhead_s']:+.3f} s")
        if workload == "live":
            continue
        drift = [n for n in EXACT_COUNTS if first[n] != second[n]]
        check(not drift, f"{workload}: exact counts repeat ({', '.join(drift) or 'all equal'})")
        check(first["trace.coverage"] >= 0.9,
              f"{workload}: layers cover {first['trace.coverage']:.1%} of wall_s")
        if workload == "campaign":
            layers = {n: first[n] for n in ("explore.shrink_s", "campaign.cell_s",
                                             "service.store_s", "campaign.corpus_s",
                                             "campaign.canonicalize_s")}
            largest = max(layers, key=layers.get)
            check(largest == "explore.shrink_s", f"campaign: largest layer is {largest}")
        else:
            share = (first["sim.drive_s"] + first["explore.analyze_s"]) / first["trace.wall_s"]
            check(share > 0.5, f"certify: drive + analyze cover {share:.1%} of wall_s")
    probe = Campaign(seed0=7)
    outcome = probe.iterate(probe.setup(7), 0, 7)
    check(outcome.failed == 0,
          f"campaign at seed0=7: fail_rate {outcome.failed}/{outcome.attempted}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Keep every scratch file (service database, corpus) inside the checkout.
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    tempfile.tempdir = str(OUT)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        started = time.perf_counter()
        WORKLOADS[args.workload]().setup(args.seed)
        print(time.perf_counter() - started)
        return 0
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PinnedCountDrift as exc:
        print(f"pinned count drifted: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
