"""SWMR register emulation over message passing, n > 3f, no signatures.

The paper closes by noting that its registers also exist in
message-passing systems with ``n > 3f``, because SWMR registers can be
emulated there without signatures (Mostéfaoui, Petrolia, Raynal & Jard
[11]). This module provides such an emulation over the ``repro.mp``
network so experiment E9 can run Algorithm 1 end-to-end on top of
messages.

Protocol (echo-amplified quorum replication, in the spirit of [11]):

* Every process acts as a *replica* holding the highest timestamped
  ``(seq, value)`` pair it has accepted for each emulated register.
* ``write(v)``: the writer increments its sequence number, broadcasts
  ``WRITE(reg, seq, v)``, and waits for ``n - f`` ``ACK``\\ s.
* Replicas accept a WRITE only from the register's true writer (channels
  are authenticated), adopt it if newer, **echo** it to all replicas,
  and also adopt pairs confirmed by ``f + 1`` matching echoes — so every
  correct replica eventually converges even if the writer's own sends
  race with reads.
* ``read()``: the reader broadcasts ``READ(reg, rid)`` and collects
  ``VALUE(reg, rid, seq, v)`` replies. It returns ``v`` once some pair
  ``(seq, v)`` is *confirmed* — reported identically by ``f + 1``
  distinct replicas (at least one correct) — choosing the confirmed pair
  with the highest ``seq``. It re-broadcasts the query until confirmation
  arrives.

The protocol itself is the sans-IO :class:`repro.mp.replica.ReplicaState`
(shared with the live runtime in :mod:`repro.net`); this module runs it
in the simulator, turning each outbox into ``Send`` / ``Broadcast``
effects (channel-framed when channels are installed).

Mailbox discipline: each process's **replica daemon is the sole consumer
of its mailbox**; it feeds every inbound message to the process's
:class:`ReplicaState`, which records client-relevant responses (ACKs,
VALUE reports). Client operations (the :meth:`RegisterEmulation.write`
/ :meth:`RegisterEmulation.read` generators) never touch the mailbox —
they broadcast, then poll the shared state, which eliminates the classic
two-readers-one-mailbox race.

Guarantees (with at most ``f`` Byzantine replicas and a correct writer):
**regular-register** semantics — a read returns a value at least as new
as the last write completed before it began (never a fabricated one,
because fabrication needs ``f + 1`` matching liars). Full atomicity
additionally needs the reader write-back round of [11]; see DESIGN.md's
substitution note. E9's layered experiment uses schedules with
non-overlapping low-level writes, for which regular and atomic coincide.

Substitution notes (the assumptions this module *substitutes* for the
paper's model, and where each one is discharged):

* **Reliable channels** — [11] assumes them; the default network
  (:class:`repro.mp.RandomDelayNetwork`) provides them. Over a
  fair-lossy :class:`repro.faults.FaultyNetwork` the assumption is
  rebuilt by passing ``channels=`` one
  :class:`repro.faults.RetransmitChannels` per pid: every protocol
  message is then framed ``("CH", seq, payload)`` with ACK + seqno dedup +
  backoff retransmission, and the replica daemon doubles as the
  channel pump (unframing inbound traffic, emitting due retransmits
  each loop). Without channels over a lossy network, liveness is
  forfeit — exactly what the campaign's pinned ``STALLED`` cells
  measure.
* **Read termination** — the read loop re-queries so withheld replies
  cannot stall it; the re-query is *paced* (interval doubles from
  ``requery_every`` up to 16x) so an unconfirmable read does not flood
  the network while it waits.
* **SWSR restrictions / atomicity vs regularity** — unchanged from the
  original notes above (enforced by callers; write-back optional).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mp.replica import EmulatedRegisterSpec, Outbox, ReplicaState
from repro.sim.effects import Broadcast, Pause, ReceiveAll, Send
from repro.sim.process import Program
from repro.sim.system import System
from repro.sim.values import freeze


class RegisterEmulation:
    """A set of SWMR registers emulated over the system's network.

    Args:
        system: A system with a network installed (``system.network``).
        f: Fault bound the emulation is configured for.
        channels: Optional ``pid -> RetransmitChannels`` (one endpoint
            per process). When given, every protocol message travels
            channel-framed (ACK + dedup + retransmit) and the replica
            daemons pump the channel layer — restoring the
            reliable-channel assumption over a fair-lossy network.
            ``None`` keeps bare ``Send``/``Broadcast`` (correct over
            reliable networks).

    Usage: declare registers with :meth:`add_register`, spawn
    :meth:`replica_program` on every correct process, then run the
    :meth:`write` / :meth:`read` generators from client coroutines of the
    same processes.
    """

    def __init__(
        self,
        system: System,
        f: Optional[int] = None,
        channels: Optional[Mapping[int, Any]] = None,
    ):
        if system.network is None:
            raise ConfigurationError("RegisterEmulation requires a network")
        self.system = system
        self.f = system.f if f is None else f
        self.n = system.n
        self.channels = channels
        self._specs: Dict[str, EmulatedRegisterSpec] = {}
        self._states: Dict[int, ReplicaState] = {}

    def _effects(self, pid: int, outbox: Outbox) -> List[Any]:
        """Simulator effects for one outbox.

        Built eagerly, before the first is yielded, so every frame of a
        batch is stamped with the same clock — recorded traces replay
        only if retransmit due times stay where they were.
        """
        effects: List[Any] = []
        if self.channels is None:
            for dest, payload in outbox:
                effects.append(Broadcast(payload) if dest is None else Send(dest, payload))
            return effects
        channel = self.channels[pid]
        now = self.system.clock
        for dest, payload in outbox:
            for dst in range(1, self.n + 1) if dest is None else (dest,):
                effects.append(Send(dst, channel.frame(dst, payload, now)))
        return effects

    def progress_version(self) -> int:
        """Monotone counter of protocol-state changes across all replicas.

        Bumped by adoptions, fresh echo votes, fresh ACKs, and changed
        VALUE reports — the "accepted" side of the progress signals a
        :class:`repro.faults.ProgressMonitor` watches. Retransmissions
        and duplicate messages do not move it.
        """
        return sum(state.version for state in self._states.values())

    # ------------------------------------------------------------------
    def add_register(self, name: str, writer: int, initial: Any = None) -> None:
        """Declare an emulated register before replicas start."""
        if name in self._specs:
            raise ConfigurationError(f"emulated register {name!r} already exists")
        if self._states:
            raise ConfigurationError("cannot add registers after replicas started")
        self._specs[name] = EmulatedRegisterSpec(name, writer, freeze(initial))

    def register_names(self) -> Tuple[str, ...]:
        """All declared emulated register names."""
        return tuple(self._specs)

    def state_of(self, pid: int) -> ReplicaState:
        """The replica of ``pid`` (created on first use)."""
        if pid not in self._states:
            self._states[pid] = ReplicaState(pid, self.n, self.f, self._specs)
        return self._states[pid]

    # ------------------------------------------------------------------
    # Replica daemon — sole mailbox consumer of its process
    # ------------------------------------------------------------------
    def replica_program(self, pid: int) -> Program:
        """The message-handling daemon every correct process runs.

        With channels installed it is also the channel pump: each loop
        emits the process's due retransmits, and inbound traffic is
        unframed (acked / deduped) before protocol handling.
        """
        replica = self.state_of(pid)
        channel = self.channels[pid] if self.channels is not None else None
        while True:
            messages = yield ReceiveAll()
            if channel is not None:
                for dst, frame in channel.due_retransmits(self.system.clock):
                    yield Send(dst, frame)
            if not messages:
                yield Pause()
                continue
            for sender, payload in messages:
                if channel is not None:
                    payload, acks = channel.on_receive(sender, payload)
                    for ack in acks:
                        yield Send(sender, ack)
                    if payload is None:
                        continue
                for effect in self._effects(pid, replica.handle(sender, payload)):
                    yield effect

    # ------------------------------------------------------------------
    # Client operations — broadcast, then poll the shared state
    # ------------------------------------------------------------------
    def write(self, pid: int, name: str, value: Any) -> Program:
        """Emulated ``write(value)``; returns when ``n - f`` replicas acked."""
        replica = self.state_of(pid)
        seq, outbox = replica.start_write(name, freeze(value))
        for effect in self._effects(pid, outbox):
            yield effect
        while not replica.write_done(name, seq):
            yield Pause()
        return "done"

    def read(
        self,
        pid: int,
        name: str,
        requery_every: int = 64,
        write_back: bool = False,
    ) -> Program:
        """Emulated ``read()``; returns a value confirmed by ``f + 1``.

        Re-broadcasts the query so replies withheld by Byzantine
        replicas or raced by timing cannot stall it. The re-query is
        *paced*: the first fires after ``requery_every`` polls and the
        interval doubles up to ``16 * requery_every``, so an
        unconfirmable read (e.g. under a partition) backs off instead
        of flooding the network.

        With ``write_back=True`` the reader additionally performs the
        [11]-style write-back round before returning: it broadcasts a
        ``PULL`` for the selected pair, replicas already holding it
        acknowledge (a Byzantine reader cannot trigger adoption of a
        value that never had ``f + 1`` echoes), and the reader waits
        until ``n - f`` replicas acknowledge holding at least the
        selected sequence number. This closes the new/old-inversion
        window between two non-overlapping reads, strengthening regular
        semantics toward atomicity.
        """
        replica = self.state_of(pid)
        rid, query = replica.start_read(name)
        for effect in self._effects(pid, query):
            yield effect
        yield from self._paced(
            pid,
            lambda: replica.read_confirmed(name, rid) is not None,
            query,
            requery_every,
        )
        seq, value = replica.read_confirmed(name, rid)
        if write_back and seq > 0:
            wb_id, pull = replica.start_write_back(name, seq, value)
            for effect in self._effects(pid, pull):
                yield effect
            yield from self._paced(
                pid,
                lambda: replica.write_back_done(name, wb_id),
                pull,
                requery_every,
            )
        return value

    def _paced(
        self, pid: int, done: Callable[[], bool], outbox: Outbox, requery_every: int
    ) -> Program:
        """Poll ``done``; re-send ``outbox`` on a doubling interval (<= 16x)."""
        polls = 0
        interval = requery_every
        next_requery = requery_every
        while not done():
            polls += 1
            if polls >= next_requery:
                interval = min(interval * 2, requery_every * 16)
                next_requery = polls + interval
                for effect in self._effects(pid, outbox):
                    yield effect
            yield Pause()
