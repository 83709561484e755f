"""Fault injection for the message-passing layer.

Three pieces (see ``README.md`` § "Fault injection & liveness"):

* :class:`FaultPlan` — a declarative, seeded, replayable composition of
  fault primitives (fair-lossy drops, duplication, reorder-inducing
  delays, timed partition windows, crash-stop / crash-recovery);
* :class:`FaultyNetwork` — applies a plan to any existing network
  through the ``System.network`` hook;
* :class:`RetransmitChannels` — rebuilds the reliable-channel
  assumption over fair-lossy links (ACK + seqno dedup + backoff
  retransmit), and :class:`ProgressMonitor` — converts liveness loss
  into a first-class ``STALLED`` verdict instead of a burned budget,
  with :func:`describe_suppression` naming what the plan cut.

The channels and the monitor are sans-IO (the caller supplies ``now``),
so the simulator and the live runtime (:mod:`repro.net`) drive the same
two classes, one on the virtual clock and one on the wall clock.
"""

from repro.faults.channels import RetransmitChannels
from repro.faults.monitor import ProgressMonitor
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan, describe_suppression

__all__ = [
    "FaultPlan",
    "FaultyNetwork",
    "ProgressMonitor",
    "RetransmitChannels",
    "describe_suppression",
]
