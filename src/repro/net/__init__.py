"""Live-network runtime: asyncio socket clusters with chaos injection.

``repro.net`` deploys the [11]-style SWMR quorum emulation as an
n-process cluster on localhost TCP sockets. The protocol, retransmit
channels and stall monitor are the sans-IO classes the simulator
drives — :class:`repro.mp.ReplicaState`,
:class:`repro.faults.RetransmitChannels` and
:class:`repro.faults.ProgressMonitor` — fed here with sockets and the
wall clock, so the live cluster runs the code the explorer certifies:

* :mod:`repro.net.wire` — length-prefixed JSON framing shared by nodes,
  chaos proxies, and remote clients.
* :mod:`repro.net.chaos` — a genuine socket-layer chaos proxy applying
  the unchanged :class:`repro.faults.FaultPlan` vocabulary (drop / dup /
  delay rules, timed group partitions, crash-stop with optional
  restart-and-recover) with seeded determinism per rule.
* :mod:`repro.net.node` — one cluster process: the replica on asyncio
  (peer queues, a retransmit task), client operations
  (read / write / transfer / balance), crash-restart recovery, and a
  TCP server that also speaks the remote-client request protocol.
* :mod:`repro.net.loadgen` — hundreds of concurrent clients driving
  read/write/transfer mixes in barrier-separated rounds, with latency
  and throughput percentiles.
* :mod:`repro.net.oracle` — the online oracle: each round's operations
  form a self-contained window in the existing ``History`` record
  format, checked by the unmodified Wing–Gong search through
  :class:`repro.spec.CheckContext`, and serialized as corpus-compatible
  JSON evidence the offline path re-checks byte-identically.
* :mod:`repro.net.cluster` — orchestration: boot, chaos, load, a
  stall-monitor poll task, verdict (``CLEAN`` / ``VIOLATING`` /
  ``STALLED``).

The CLI lives in :mod:`repro.analysis.net`
(``python -m repro.analysis net --serve/--load/--chaos/--check``).
"""

from repro.net.chaos import ChaosClock, ChaosProxy
from repro.net.cluster import (
    CLEAN,
    STALLED,
    VIOLATING,
    LiveCluster,
    LiveProfile,
    LiveRunReport,
    run_live,
)
from repro.net.loadgen import LoadGenerator, LoadStats
from repro.net.node import NetNode
from repro.net.oracle import (
    EVIDENCE_KIND,
    EVIDENCE_VERSION,
    check_evidence,
    evidence_bytes,
    window_evidence,
)

__all__ = [
    "CLEAN",
    "STALLED",
    "VIOLATING",
    "ChaosClock",
    "ChaosProxy",
    "EVIDENCE_KIND",
    "EVIDENCE_VERSION",
    "LiveCluster",
    "LiveProfile",
    "LiveRunReport",
    "LoadGenerator",
    "LoadStats",
    "NetNode",
    "check_evidence",
    "evidence_bytes",
    "run_live",
    "window_evidence",
]
