"""The online dpor race scan (repro.explore.dpor.RaceScan) and its closure.

Under ``reduction="dpor"`` the recorder feeds each step to a
:class:`RaceScan` and detaches once the scan reaches happens-before
closure, so the rest of the run takes the kernel's uninstrumented path.
These tests pin that the truncated record loses nothing:

* the closure differential: for every run of the Theorem 29 f = 1 cell
  and of every other-family cell in ``tests/test_dpor_differential.py``
  (at that file's depths, with ``early_exit`` off and on), ``analyze_run`` over the closed recorder's
  record returns the same races and the same backtrack requests, in the
  same order, as over a record whose recorder never detaches;
* unit cases for the closure rule itself: a coroutine that retires
  inside the window does not hold the scan open, and a live coroutine
  that has not stepped past the window does;
* the premise detaching relies on: every registry scenario fixes its
  coroutine set at build time;
* the observability counter ``ExploreReport.recorded_steps`` and the
  dpor summary line.
"""

from __future__ import annotations

import pytest

import repro.explore.explorer as explorer
import repro.scenarios.catalog  # noqa: F401  (registers the grid)
from repro import scenarios as registry
from repro.errors import StepLimitExceeded
from repro.explore import explore, make_scenario
from repro.explore.dpor import RaceScan, analyze_run
from repro.explore.explorer import InstrumentedRun
from repro.explore.scenarios import theorem29_symmetry

BUDGET = 40_000


def _record(label: str):
    for rec in registry.grid():
        if rec.label() == label:
            return rec
    raise AssertionError(f"scenario label missing from registry grid: {label}")


def _t29_f1():
    return make_scenario("theorem29", f=1), theorem29_symmetry(f=1)


def _t29_f2():
    return (
        make_scenario("theorem29", f=2, extra_correct=True),
        theorem29_symmetry(f=2, extra_correct=True),
    )


def _registry_cell(label: str):
    return lambda: (_record(label).spec, ())


#: (cell id, scenario factory, depth bound, preemption bound): the
#: cells of tests/test_dpor_differential.py at that file's bounds. The
#: f = 2 control cell is not replayed here (a never-detaching replay of
#: its runs takes over a minute per mode); the differential file pins
#: its verdict parity and TestReportCounters its recorded share.
CELLS = [
    ("theorem29-f1", _t29_f1, 14, 2),
    (
        "broadcast",
        _registry_cell(
            "broadcast/swarm:broadcast"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        ),
        6,
        2,
    ),
    (
        "reliable_broadcast",
        _registry_cell(
            "reliable_broadcast/swarm:reliable_broadcast"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        ),
        6,
        2,
    ),
    (
        "naive",
        _registry_cell(
            "naive/swarm:register"
            "(kind=naive-quorum,n=4,reader_adversaries=((4, 'flipflop'),),seed=0)"
        ),
        5,
        2,
    ),
    (
        "verifiable",
        _registry_cell(
            "verifiable/swarm:register"
            "(kind=verifiable,n=4,reader_adversaries=(),seed=0,"
            "writer_adversary=none)"
        ),
        4,
        2,
    ),
    (
        "mp_register",
        _registry_cell(
            "mp_emulation/swarm:mp_register"
            "(f=1,faults=(('drop', 1, 0, 1.0),),n=4,seed=0)"
        ),
        4,
        2,
    ),
    (
        "asset_transfer",
        _registry_cell(
            "asset_transfer/swarm:asset_transfer"
            "(byzantine=((3, 'equivocate'),),f=1,n=3,seed=0)"
        ),
        3,
        1,
    ),
    (
        "snapshot",
        _registry_cell(
            "snapshot/swarm:snapshot"
            "(byzantine=((3, 'deny'),),f=1,n=3,seed=0)"
        ),
        3,
        2,
    ),
]


class _NeverDetach(InstrumentedRun):
    """The reference recorder: re-attaches after every step, so its
    record covers the whole run whatever the closure rule decides."""

    def _on_step(self, cid, effect):
        super()._on_step(cid, effect)
        self.system.on_step = self._on_step


def _horizon(record, depth_bound):
    # The same clamp the explorer's dpor branch applies.
    return min(
        depth_bound,
        len(record.trace),
        len(record.runnables),
        len(record.effects),
    )


class TestClosureDifferential:
    @pytest.mark.parametrize("early_exit", [False, True], ids=["full", "early"])
    @pytest.mark.parametrize(
        "cell", CELLS, ids=[cell[0] for cell in CELLS]
    )
    def test_closed_record_matches_full_record(
        self, monkeypatch, cell, early_exit
    ):
        _, factory, depth, preemption = cell
        scenario, symmetry = factory()
        original = explorer.execute_trace
        tally = {"runs": 0, "detached": 0}

        def checked(scenario, prefix=(), depth_bound=0, **kwargs):
            record = original(scenario, prefix, depth_bound, **kwargs)
            assert kwargs["scan_races"]
            full = _NeverDetach(scenario, prefix, depth_bound, **kwargs).finish()
            assert record.trace == full.trace
            assert record.chosen == full.chosen[: len(record.chosen)]
            assert record.effects == full.effects[: len(record.effects)]
            closed = analyze_run(
                record.chosen, record.effects, _horizon(record, depth_bound)
            )
            reference = analyze_run(
                full.chosen, full.effects, _horizon(full, depth_bound)
            )
            assert closed == reference, prefix
            tally["runs"] += 1
            tally["detached"] += len(record.chosen) < len(full.chosen)
            return record

        monkeypatch.setattr(explorer, "execute_trace", checked)
        modes = ("dpor", "dpor+symmetry") if symmetry else ("dpor",)
        for reduction in modes:
            report = explore(
                scenario,
                budget=BUDGET,
                depth_bound=depth,
                preemption_bound=preemption,
                early_exit=early_exit,
                reduction=reduction,
                symmetry=symmetry,
            )
            assert report.exhausted
        # Not vacuous: the closure rule did cut runs short.
        assert tally["detached"] > 0, tally


def _scan(limit, live, steps):
    scan = RaceScan(limit, live)
    for step in steps:
        scan.feed(*step)
    return scan


A, B, C, D = (1, "a"), (2, "b"), (3, "c"), (4, "d")
SYNC = ("sync",)


class TestRaceScanClosure:
    def test_closes_once_every_live_coroutine_is_covered(self):
        scan = _scan(2, (A, B), [(A, ("write", "x")), (B, ("read", "x"))])
        # B's read merged A's write, A has seen nothing of B yet.
        assert not scan.closed
        scan.feed(A, ("read", "x"))  # reads commute: still uncovered
        assert not scan.closed
        scan.feed(A, SYNC)  # a sync step orders everything before it
        assert scan.closed

    def test_coroutine_retiring_inside_window_does_not_hold_scan_open(self):
        """Regression: the retired coroutine's clock can never cover the
        steps taken after its retirement, so counting it as live left
        the scan open for the rest of every run."""
        window = [
            (C, SYNC, True),  # C retires at step 0
            (A, ("write", "x"), False),
            (B, ("read", "x"), False),
        ]
        tail = [(A, SYNC, False), (B, SYNC, False)]
        scan = _scan(3, (A, B, C), window + tail)
        assert scan.closed
        unretired = _scan(
            3, (A, B, C), [(cid, sig, False) for cid, sig, _ in window + tail]
        )
        assert not unretired.closed

    def test_coroutine_retiring_after_window_drops_out(self):
        scan = _scan(
            2,
            (A, B, C),
            [(A, ("write", "x")), (B, ("read", "x")), (C, SYNC, True)],
        )
        assert not scan.closed  # A and B have not seen the window yet
        scan.feed(A, SYNC)
        scan.feed(B, SYNC)
        assert scan.closed

    def test_live_coroutine_that_never_steps_keeps_scan_open(self):
        """Conservative case: D might still race with the window."""
        steps = [(A, ("write", "x")), (B, ("read", "x"))]
        steps += [(A, SYNC), (B, SYNC)] * 10
        scan = _scan(2, (A, B, D), steps)
        assert not scan.closed
        scan.feed(D, SYNC)
        assert scan.closed

    def test_window_not_yet_fed_keeps_scan_open(self):
        scan = _scan(5, (A,), [(A, SYNC)] * 4)
        assert not scan.closed
        scan.feed(A, SYNC)
        assert scan.closed

    def test_result_stops_changing_at_closure(self):
        """Steps fed after closure add no reversible race."""
        steps = [
            (A, ("write", "x")),
            (B, ("write", "x")),
            (A, SYNC),
            (B, SYNC),
        ]
        scan = _scan(2, (A, B), steps)
        assert scan.closed
        at_closure = scan.result()
        assert at_closure[0] >= 1
        for step in [(B, ("write", "x")), (A, ("write", "x"))] * 3:
            scan.feed(*step)
        assert scan.result() == at_closure

    def test_analyze_run_is_the_full_feed(self):
        chosen = [A, B, A, C, B]
        effects = [("write", "x"), ("read", "x"), SYNC, ("send", 2), ("recv", 2)]
        assert analyze_run(chosen, effects, 3) == _scan(
            3, chosen, zip(chosen, effects)
        ).result()
        assert analyze_run((), (), 4) == (0, [])


def _sim_specs():
    specs = {
        rec.spec.label(): rec.spec
        for rec in registry.grid()
        if rec.engine != "live"
    }
    for scenario, _ in (_t29_f1(), _t29_f2()):
        specs[scenario.label()] = scenario
    return sorted(specs.items())


class TestFixedCoroutineSet:
    def test_no_coroutine_steps_that_was_not_runnable_before_the_drive(self):
        """Detaching the recorder relies on this: the scan's live set is
        the runnable set before the drive, so a coroutine spawned
        mid-run could race with the window unseen."""
        specs = _sim_specs()
        assert len(specs) >= 40
        for label, spec in specs:
            run = InstrumentedRun(spec)
            system = run.system
            before = frozenset(system.runnable())
            stepped = set()
            system.on_step = lambda cid, _effect: stepped.add(cid)
            try:
                run.built.drive()
            except StepLimitExceeded:
                pass
            finally:
                run.dispose()
            assert stepped and stepped <= before, (label, stepped - before)


class TestReportCounters:
    def test_certify_cell_records_a_small_share_of_its_steps(self):
        """An exact count: the same on every host."""
        scenario, symmetry = _t29_f2()
        report = explore(
            scenario,
            budget=BUDGET,
            depth_bound=12,
            preemption_bound=2,
            reduction="dpor+symmetry",
            symmetry=symmetry,
        )
        assert report.exhausted and not report.violations
        assert 0 < report.recorded_steps <= 0.05 * report.steps, (
            report.recorded_steps,
            report.steps,
        )
        assert f"{report.recorded_steps}/{report.steps} steps recorded" in (
            report.summary()
        )

    @pytest.mark.parametrize("reduction", ["dpor", "dpor+symmetry"])
    def test_dpor_summary_names_sleep_set_prunes(self, reduction):
        scenario, symmetry = _t29_f1()
        report = explore(
            scenario,
            budget=BUDGET,
            depth_bound=10,
            preemption_bound=2,
            reduction=reduction,
            symmetry=symmetry,
        )
        assert report.pruned_sleep > 0
        assert f"{report.pruned_sleep} by sleep sets" in report.summary()
