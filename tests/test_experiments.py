"""The experiment tables reproduce the paper's qualitative shapes.

One test per experiment table (E1–E10) plus the E13 exploration shape:
each builds the table at the sizes the experiment plan uses and asserts
the expectation the paper predicts for it. The ablations (E11, E12)
live in ``tests/test_ablations.py``.
"""

from __future__ import annotations

import statistics

import pytest

from repro.analysis import (
    broadcast_table,
    checker_for,
    correctness_sweep,
    impossibility_table,
    message_passing_table,
    run_register_scenario,
    snapshot_table,
    step_complexity_table,
)
from repro.analysis import test_or_set_table as or_set_table
from repro.explore import explore, fuzz, make_scenario


def _column(headers, name):
    return list(headers).index(name)


@pytest.mark.parametrize("kind", ["verifiable", "authenticated", "sticky"])
def test_e1_e3_register_sweeps_are_correct(kind):
    # E1 (Theorem 14), E2 (Theorem 20), E3 (Theorem 25): every
    # configuration of the adversary sweep passes both verdicts.
    headers, rows = correctness_sweep(kind, ns=(4, 7, 10), seeds=(0, 1))
    assert rows, "sweep produced no configurations"
    correct = _column(headers, "correct")
    for row in rows:
        assert row[correct] is True, f"violation in row: {row}"


def test_e4_observable_properties_hold_on_a_seeded_pool():
    for kind in ("verifiable", "authenticated", "sticky"):
        check_properties, _ = checker_for(kind)
        for seed in range(4):
            outcome = run_register_scenario(kind, n=4, seed=seed)
            system = outcome.system
            extra = {} if kind == "sticky" else {"initial": 0}
            report = check_properties(
                system.history, system.correct, "reg", writer=1, **extra
            )
            assert report.ok, (kind, seed, report.summary())


def test_e5_figure1_violates_exactly_at_the_bound():
    headers, rows = impossibility_table(fs=(1, 2, 3))
    violated = _column(headers, "violated")
    n_col, f_col = _column(headers, "n"), _column(headers, "f")
    for row in rows:
        if row[n_col] == 3 * row[f_col]:
            assert row[violated] != "nothing", f"no violation at bound: {row}"
        else:
            assert row[violated] == "nothing", f"control violated: {row}"


def test_e6_test_or_set_from_every_register():
    headers, rows = or_set_table(n=4, seeds=(0, 1))
    correct = _column(headers, "correct")
    assert rows and all(row[correct] for row in rows)


def test_e7_snapshot_scans_are_ordered_and_valid():
    headers, rows = snapshot_table(n=4, seeds=(0, 1))
    ordered = _column(headers, "scans ordered")
    valid = _column(headers, "components valid")
    assert rows
    for row in rows:
        assert row[ordered] and row[valid], row


def test_e8_sticky_broadcast_is_unique_signed_is_not():
    headers, rows = broadcast_table(n=4, seeds=(0, 1))
    impl = _column(headers, "implementation")
    unique = _column(headers, "unique")
    sticky = [r for r in rows if "sticky" in r[impl]]
    signed = [r for r in rows if "signed" in r[impl]]
    assert sticky and all(r[unique] for r in sticky), "sticky equivocated"
    assert any(not r[unique] for r in signed), (
        "the signed comparator was expected to admit the equivocation"
    )


def test_e9_algorithm1_over_message_passing():
    headers, rows = message_passing_table(seeds=(0,))
    correct = _column(headers, "correct")
    assert rows and all(row[correct] for row in rows)


def test_e10_signature_free_verify_costs_more_and_grows_with_n():
    headers, rows = step_complexity_table(ns=(4, 7, 10), seeds=(0, 1))
    kind = _column(headers, "kind")
    n_col = _column(headers, "n")
    op = _column(headers, "operation")
    mean = _column(headers, "mean steps")

    def mean_of(which, operation, n):
        values = [
            r[mean]
            for r in rows
            if r[kind] == which and r[op] == operation and r[n_col] == n
        ]
        assert values, (which, operation, n)
        return statistics.mean(values)

    for n in (4, 7, 10):
        free = mean_of("verifiable", "verify", n)
        signed = mean_of("signed", "verify", n)
        assert free > signed, (n, free, signed)
    assert mean_of("verifiable", "verify", 10) > mean_of("verifiable", "verify", 4)


class TestE13ExplorationShape:
    """Theorem 29 through both engines at the E13 budget of 400 runs."""

    BUDGET = 400

    def test_systematic_finds_exactly_one_class_at_3f(self):
        report = explore(
            make_scenario("theorem29", f=1),
            depth_bound=14,
            preemption_bound=2,
            budget=self.BUDGET,
        )
        assert len(report.violations) == 1, report.summary()

    def test_control_is_clean_through_every_engine(self):
        control = make_scenario("theorem29", f=1, extra_correct=True)
        systematic = explore(
            control, depth_bound=14, preemption_bound=2, budget=self.BUDGET
        )
        assert not systematic.violations, systematic.summary()
        for shards in (1, 2):
            report = fuzz(control, budget=self.BUDGET, shards=shards)
            assert report.runs == self.BUDGET
            assert not report.violations, report.violations[0].describe()
