"""The unified scenario registry (specs, oracle bindings, records).

One declarative record — topology ``(n, f)``, implementation family,
adversary behaviour, workload/driver program, oracle binding, expected
verdict — fully determines a runnable scenario, and every consumer
derives its view from the same records:

* ``repro.campaign.default_matrix`` is a :func:`grid` query;
* the explorer and fuzzer build runs through the registry's
  :class:`Scenario` specs and builder table;
* ``repro.analysis`` derives its checker/monitor bindings and sweep
  grids from :mod:`repro.scenarios.bindings` /
  :mod:`repro.scenarios.sweeps`;
* corpus entries resolve their recorded scenario labels back through
  :func:`resolve_spec` on replay.

Quickstart::

    from repro import scenarios

    for record in scenarios.grid(consumer="campaign"):
        print(record.describe())

    record = scenarios.resolve("snapshot/swarm:snapshot(byzantine=((4, 'deny'),),f=1,n=4,seed=0)")
    built = record.spec.build(my_scheduler)

The CLI front end is ``python -m repro.analysis scenarios --list``.

The default catalog (:mod:`repro.scenarios.catalog`) loads lazily on
the first registry query, so importing this package is cheap and the
builder modules (``repro.explore.scenarios``, ``repro.scenarios.apps``)
can import the registry without a cycle.
"""

from repro.scenarios.bindings import (
    FAMILY_BINDINGS,
    OracleBinding,
    binding_for,
    checker_for_kind,
    kind_for,
    monitor_family_for_kind,
    oracle_for,
    register_kinds,
)
from repro.scenarios.registry import (
    CONSUMERS,
    ENGINES,
    SCENARIO_BUILDERS,
    Scenario,
    ScenarioRecord,
    all_records,
    grid,
    known_scenarios,
    make_scenario,
    register,
    register_builder,
    registered_families,
    resolve,
    resolve_spec,
)
from repro.scenarios.sweeps import EXTRA_SWEEP_ADVERSARIES, SWEEP_ADVERSARIES

__all__ = [
    "CONSUMERS",
    "ENGINES",
    "EXTRA_SWEEP_ADVERSARIES",
    "FAMILY_BINDINGS",
    "OracleBinding",
    "SCENARIO_BUILDERS",
    "SWEEP_ADVERSARIES",
    "Scenario",
    "ScenarioRecord",
    "all_records",
    "binding_for",
    "checker_for_kind",
    "grid",
    "kind_for",
    "known_scenarios",
    "make_scenario",
    "monitor_family_for_kind",
    "oracle_for",
    "register",
    "register_builder",
    "register_kinds",
    "registered_families",
    "resolve",
    "resolve_spec",
]
