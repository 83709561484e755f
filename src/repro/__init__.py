"""repro — SWMR registers with signature properties, without signatures.

A faithful, executable reproduction of Hu & Toueg, *"You can lie but not
deny: SWMR registers with signature properties in systems with Byzantine
processes"* (PODC 2025; arXiv:2504.09805). The library provides:

* a deterministic shared-memory simulator for asynchronous systems with
  Byzantine processes (``repro.sim``),
* the paper's three register algorithms — verifiable, authenticated, and
  sticky (``repro.core``) — plus test-or-set, a signature-based
  comparator, and a naive strawman,
* linearizability / Byzantine-linearizability checkers and the register
  types' observable-property verdicts (``repro.spec``),
* a library of Byzantine behaviours and the executable Theorem 29 /
  Figure 1 impossibility construction (``repro.adversary``),
* downstream applications: non-equivocating broadcast, reliable
  broadcast, atomic snapshot (``repro.apps``),
* a message-passing substrate with an ``n > 3f`` SWMR-register emulation
  (``repro.mp``),
* the experiment harness behind ``EXPERIMENTS.md`` (``repro.analysis``),
* a schedule-space exploration engine — bounded systematic search, swarm
  fuzzing, counterexample shrinking (``repro.explore``),
* a unified scenario registry — declarative records (topology, family,
  adversary, workload, oracle binding, expected verdict) that the
  campaign, explorer and corpus all derive their scenarios from
  (``repro.scenarios``), and
* a differential conformance campaign layer with a persistent,
  replayable violation corpus (``repro.campaign``).

Quickstart::

    from repro import build_shared_memory_system, VerifiableRegister

    system = build_shared_memory_system(n=4)
    reg = VerifiableRegister(system, "vreg", initial=0).install()
    reg.start_helpers()
    # ... spawn clients that `yield from reg.op(pid, "write", 7)` etc.

See ``examples/quickstart.py`` for a complete runnable scenario.
"""

from repro.campaign import (
    CampaignCell,
    CampaignReport,
    CorpusEntry,
    default_matrix,
    load_corpus,
    replay_entry,
    run_campaign,
)
from repro.core import (
    AuthenticatedRegister,
    NaiveVerifiableRegister,
    QuorumTestOrSet,
    SignatureOracle,
    SignedVerifiableRegister,
    StickyRegister,
    TestOrSetFromAuthenticated,
    TestOrSetFromSticky,
    TestOrSetFromVerifiable,
    VerifiableRegister,
)
from repro.errors import (
    ConfigurationError,
    LinearizabilityViolation,
    OwnershipError,
    ReproError,
    StepLimitExceeded,
)
from repro.sim import (
    BOTTOM,
    History,
    OperationRecord,
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptClient,
    ScriptedScheduler,
    System,
    TraceScheduler,
)

__version__ = "1.0.0"


def build_shared_memory_system(
    n: int,
    f: int | None = None,
    scheduler=None,
    record_accesses: bool = False,
    enforce_bound: bool = True,
) -> System:
    """Create a shared-memory system with pids ``1 .. n``.

    Thin convenience wrapper over :class:`repro.sim.System` so the common
    path reads naturally in examples and experiments.
    """
    return System(
        n=n,
        f=f,
        scheduler=scheduler,
        record_accesses=record_accesses,
        enforce_bound=enforce_bound,
    )


__all__ = [
    "AuthenticatedRegister",
    "BOTTOM",
    "CampaignCell",
    "CampaignReport",
    "ConfigurationError",
    "CorpusEntry",
    "History",
    "LinearizabilityViolation",
    "NaiveVerifiableRegister",
    "OperationRecord",
    "OwnershipError",
    "PriorityScheduler",
    "QuorumTestOrSet",
    "RandomScheduler",
    "ReproError",
    "RoundRobinScheduler",
    "ScriptClient",
    "ScriptedScheduler",
    "SignatureOracle",
    "SignedVerifiableRegister",
    "StepLimitExceeded",
    "StickyRegister",
    "System",
    "TestOrSetFromAuthenticated",
    "TestOrSetFromSticky",
    "TestOrSetFromVerifiable",
    "TraceScheduler",
    "VerifiableRegister",
    "build_shared_memory_system",
    "default_matrix",
    "load_corpus",
    "replay_entry",
    "run_campaign",
    "__version__",
]
