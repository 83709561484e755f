"""The n > 3f quorum replica as a sans-IO state machine.

One :class:`ReplicaState` is one process's replica *and* client
bookkeeping for every emulated register of the [11]-style emulation
(:mod:`repro.mp.swmr_emulation` describes the protocol and its
guarantees). It owns the whole message grammar — ``WRITE`` / ``ECHO``
/ ``ACK`` / ``READ`` / ``VALUE`` / ``PULL`` / ``PULL-ACK`` — and
touches no socket, scheduler or clock: :meth:`ReplicaState.handle`
takes one inbound message and the ``start_*`` methods take one client
request, and each returns an *outbox* of messages to send.

An outbox is a list of ``(dest, payload)`` pairs in send order; ``dest``
is a pid, or ``None`` for a broadcast to every process ``1..n`` (the
sender included). Waiting is the caller's business: it re-sends a
request's outbox on its own pacing and polls the ``*_done`` /
:meth:`ReplicaState.read_confirmed` predicates. Two runtimes call it —
:class:`repro.mp.RegisterEmulation` turns outboxes into simulator
effects, :class:`repro.net.NetNode` into asyncio peer queues — so the
explorer certifies the code the live cluster runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError

#: Messages to send: ``(dest pid, or None for all of 1..n; payload)``.
Outbox = List[Tuple[Optional[int], Any]]


@dataclass
class EmulatedRegisterSpec:
    """Static description of one emulated register (``initial`` frozen)."""

    name: str
    writer: int
    initial: Any = None


def _is_seq(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class ReplicaState:
    """One process's replica + client bookkeeping for all emulated registers.

    Args:
        pid: The owning process.
        n: System size (broadcasts address ``1..n``).
        f: Fault bound: quorums are ``n - f``, confirmations ``f + 1``.
        specs: ``name -> EmulatedRegisterSpec`` (shared, read-only).
    """

    def __init__(
        self, pid: int, n: int, f: int, specs: Dict[str, EmulatedRegisterSpec]
    ):
        self.pid = pid
        self.n = n
        self.f = f
        self.specs = specs
        #: Highest accepted (seq, value) per register.
        self.accepted: Dict[str, Tuple[int, Any]] = {
            name: (0, spec.initial) for name, spec in specs.items()
        }
        #: Echo tallies: (register, seq, value) -> pids that echoed it.
        self.echo_votes: Dict[Tuple[str, int, Any], Set[int]] = {}
        #: Pairs this replica has itself echoed (echo at most once).
        self.echoed: Set[Tuple[str, int, Any]] = set()
        #: ACKs for this process's writes, (reg, seq) -> pids; write-back
        #: PULL-ACKs live under (reg, -wb_id).
        self.acks: Dict[Tuple[str, int], Set[int]] = {}
        #: VALUE reports for this process's reads: (reg, rid) -> per-sender.
        self.value_reports: Dict[Tuple[str, int], Dict[int, Tuple[int, Any]]] = {}
        #: Last write sequence number per register (used by its writer).
        self.write_seq: Dict[str, int] = {name: 0 for name in specs}
        #: Last read / write-back / recovery query id.
        self.read_id = 0
        #: A recovering replica answers no READ: its reset state could
        #: otherwise confirm a stale pair for some reader.
        self.recovering = False
        #: Monotone count of state *changes* (adoptions, fresh votes,
        #: fresh acks, changed reports) — a progress signal; duplicate
        #: or stale messages leave it untouched.
        self.version = 0

    def maybe_adopt(self, name: str, seq: int, value: Any) -> bool:
        """Adopt ``(seq, value)`` if strictly newer; returns adoption."""
        if seq > self.accepted[name][0]:
            self.accepted[name] = (seq, value)
            self.version += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Replica side: one inbound message in, an outbox out
    # ------------------------------------------------------------------
    def handle(self, sender: int, payload: Any) -> Outbox:
        """Process one inbound message; malformed input is ignored."""
        out: Outbox = []
        if not isinstance(payload, tuple) or not payload:
            return out
        kind = payload[0]
        specs = self.specs
        if kind == "WRITE" and len(payload) == 4:
            _k, name, seq, value = payload
            spec = specs.get(name)
            if spec is not None and sender == spec.writer and _is_seq(seq) and seq > 0:
                self.maybe_adopt(name, seq, value)
                self._echo_once(out, name, seq, value)
                out.append((spec.writer, ("ACK", name, seq)))
        elif kind == "ECHO" and len(payload) == 4:
            _k, name, seq, value = payload
            if name in specs and _is_seq(seq) and seq > 0:
                votes = self.echo_votes.setdefault((name, seq, value), set())
                if sender not in votes:
                    votes.add(sender)
                    self.version += 1
                if len(votes) >= self.f + 1:
                    self.maybe_adopt(name, seq, value)
                    self._echo_once(out, name, seq, value)
        elif kind == "READ" and len(payload) == 3:
            _k, name, rid = payload
            if name in specs and not self.recovering:
                seq, value = self.accepted[name]
                out.append((sender, ("VALUE", name, rid, seq, value)))
        elif kind == "PULL" and len(payload) == 5:
            _k, name, seq, value, wb_id = payload
            if name in specs and _is_seq(seq) and isinstance(wb_id, int):
                # Acknowledge only what this replica genuinely holds; a
                # Byzantine reader cannot make a replica adopt anything
                # through PULL (adoption still requires the writer or
                # f + 1 echoes), so write-back is abuse-proof.
                if self.accepted[name][0] >= seq:
                    out.append((sender, ("PULL-ACK", name, wb_id)))
        elif kind == "PULL-ACK" and len(payload) == 3:
            _k, name, wb_id = payload
            if name in specs and isinstance(wb_id, int):
                self._ack(name, -wb_id, sender)
        elif kind == "ACK" and len(payload) == 3:
            _k, name, seq = payload
            if name in specs and isinstance(seq, int):
                self._ack(name, seq, sender)
        elif kind == "VALUE" and len(payload) == 5:
            _k, name, rid, seq, value = payload
            if name in specs and isinstance(rid, int) and _is_seq(seq):
                reports = self.value_reports.setdefault((name, rid), {})
                if reports.get(sender) != (seq, value):
                    reports[sender] = (seq, value)
                    self.version += 1
        return out

    def _echo_once(self, out: Outbox, name: str, seq: int, value: Any) -> None:
        key = (name, seq, value)
        if key not in self.echoed:
            self.echoed.add(key)
            out.append((None, ("ECHO", name, seq, value)))

    def _ack(self, name: str, key: int, sender: int) -> None:
        acks = self.acks.setdefault((name, key), set())
        if sender not in acks:
            acks.add(sender)
            self.version += 1

    # ------------------------------------------------------------------
    # Client side: start a request, then poll its predicate
    # ------------------------------------------------------------------
    def spec(self, name: str) -> EmulatedRegisterSpec:
        """The spec of ``name``; :class:`ConfigurationError` if unknown."""
        spec = self.specs.get(name)
        if spec is None:
            raise ConfigurationError(f"unknown emulated register {name!r}")
        return spec

    def check_writer(self, name: str) -> None:
        """Raise :class:`ConfigurationError` unless this process writes ``name``."""
        if self.spec(name).writer != self.pid:
            raise ConfigurationError(
                f"p{self.pid} is not the writer of emulated register {name!r}"
            )

    def start_write(self, name: str, value: Any) -> Tuple[int, Outbox]:
        """Begin ``write(value)`` (``value`` frozen); returns ``(seq, outbox)``."""
        self.check_writer(name)
        self.write_seq[name] += 1
        seq = self.write_seq[name]
        # The writer is also a replica: adopt and self-ack before sending.
        self.maybe_adopt(name, seq, value)
        self.acks.setdefault((name, seq), set()).add(self.pid)
        return seq, [(None, ("WRITE", name, seq, value))]

    def write_done(self, name: str, seq: int) -> bool:
        """Whether ``n - f`` replicas acknowledged write ``seq``."""
        return len(self.acks.get((name, seq), ())) >= self.n - self.f

    def start_read(self, name: str) -> Tuple[int, Outbox]:
        """Begin a read (also a recovery query); returns ``(rid, outbox)``."""
        self.spec(name)
        self.read_id += 1
        rid = self.read_id
        self.value_reports.setdefault((name, rid), {})[self.pid] = self.accepted[name]
        return rid, [(None, ("READ", name, rid))]

    def read_confirmed(self, name: str, rid: int) -> Optional[Tuple[int, Any]]:
        """The highest-seq pair reported identically by ``f + 1`` replicas."""
        reports = self.value_reports.setdefault((name, rid), {})
        # Refresh own report — the local replica may have adopted a
        # newer pair since the read began.
        if self.accepted[name][0] > reports.get(self.pid, (0, None))[0]:
            reports[self.pid] = self.accepted[name]
        tally: Dict[Tuple[int, Any], int] = {}
        for pair in reports.values():
            tally[pair] = tally.get(pair, 0) + 1
        confirmed = [pair for pair, count in tally.items() if count >= self.f + 1]
        if not confirmed:
            return None
        return max(confirmed, key=lambda pair: pair[0])

    def start_write_back(self, name: str, seq: int, value: Any) -> Tuple[int, Outbox]:
        """Begin the [11] write-back of a read pair; returns ``(wb_id, outbox)``."""
        self.read_id += 1
        wb_id = self.read_id
        self.acks.setdefault((name, -wb_id), set()).add(self.pid)
        return wb_id, [(None, ("PULL", name, seq, value, wb_id))]

    def write_back_done(self, name: str, wb_id: int) -> bool:
        """Whether ``n - f`` replicas hold at least the written-back pair."""
        return len(self.acks.get((name, -wb_id), ())) >= self.n - self.f

    def finish_recovery(self, name: str, rid: int) -> bool:
        """Adopt the newest pair once ``n - f - 1`` *other* replicas reported.

        Completes the lose-state recovery query ``rid`` (a
        :meth:`start_read` issued while :attr:`recovering`); returns
        ``False`` while reports are still missing. A recovered writer
        also resumes its sequence numbers past the adopted pair.
        """
        others = [
            pair
            for sender, pair in self.value_reports.get((name, rid), {}).items()
            if sender != self.pid
        ]
        if len(others) < self.n - self.f - 1:
            return False
        best = max(others, key=lambda pair: pair[0])
        self.maybe_adopt(name, *best)
        if self.specs[name].writer == self.pid:
            self.write_seq[name] = max(self.write_seq[name], best[0])
        return True
