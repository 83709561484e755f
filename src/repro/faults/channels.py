"""Retransmission channels: reliable links rebuilt over fair-lossy ones.

The paper (and the [11] emulation in :mod:`repro.mp.swmr_emulation`)
assumes reliable authenticated channels. Over a fair-lossy network —
a :class:`repro.faults.FaultyNetwork` in virtual time, a chaos proxy
on real sockets — that assumption breaks; this module rebuilds it with
the classic mechanism:

* every protocol payload is framed as ``("CH", seq, payload)`` with a
  per-destination sequence number;
* the receiver **always acknowledges** a frame (``("CH-ACK", seq)``)
  and delivers the inner payload at most once (seqno dedup absorbs
  duplication and retransmit races);
* the sender keeps unacknowledged frames pending and retransmits on a
  timeout with exponential backoff, up to ``max_retries`` attempts;
  exhaustion is surfaced in :attr:`RetransmitChannels.exhausted` (a
  metric, not an exception — over a fair-lossy link exhaustion means
  the retry budget was too small; over a partition it is expected).

Fair-lossy links deliver any message retransmitted infinitely often, so
with an adequate retry budget the framed channel is reliable and the
emulation's quorum arguments go through unchanged.

The class is sans-IO: it never reads a clock or touches a transport.
Every timed entry point takes ``now`` (virtual steps or wall-clock
seconds) and returns the frames to send. With ``jitter=0`` (the
default) nothing is randomized and integer clocks give integer due
times, so virtual-time runs stay replayable; live clusters shave seeded
jitter off each backoff to desynchronize retransmit storms.

Unframed payloads pass through :meth:`RetransmitChannels.on_receive`
untouched, which lets channel-framed and bare traffic coexist (and
keeps Byzantine senders free to ignore the framing).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError


class _PendingFrame:
    """Sender-side bookkeeping for one unacknowledged frame."""

    __slots__ = ("dest", "seq", "payload", "due", "attempts")

    def __init__(self, dest: int, seq: int, payload: Any, due: Any):
        self.dest = dest
        self.seq = seq
        self.payload = payload
        self.due = due
        self.attempts = 0


class _Dedup:
    """Delivered seqs from one sender: a contiguous prefix plus stragglers.

    ``floor`` is the highest seq below which every frame has been
    delivered; ``above`` holds the delivered seqs past a gap. In-order
    traffic keeps ``above`` empty, so memory stays bounded by the
    reordering window rather than by the run length.
    """

    __slots__ = ("floor", "above")

    def __init__(self) -> None:
        self.floor = 0
        self.above: Set[int] = set()

    def first_delivery(self, seq: int) -> bool:
        """Record ``seq``; ``False`` if it was already delivered."""
        if seq <= self.floor or seq in self.above:
            return False
        self.above.add(seq)
        while self.floor + 1 in self.above:
            self.floor += 1
            self.above.discard(self.floor)
        return True


class RetransmitChannels:
    """Reliable channels from one endpoint to every peer.

    Args:
        pid: The owning endpoint's pid (seeds the jitter).
        base_timeout: Time before the first retransmit of a frame.
            Should comfortably exceed the network round trip.
        max_backoff: Cap on the doubling retransmit interval. Jitter is
            applied downward, so no retransmit gap exceeds this cap —
            the bound :class:`repro.faults.ProgressMonitor` validates
            its stall window against.
        max_retries: Retransmit attempts before a frame is abandoned
            (counted in :attr:`exhausted`).
        jitter: Fraction of each backoff randomly shaved off, from a
            ``random.Random`` seeded with ``(seed, pid)``. ``0`` draws
            nothing.
        seed: Jitter seed.
    """

    def __init__(
        self,
        pid: int,
        base_timeout: Any = 24,
        max_backoff: Any = 384,
        max_retries: int = 12,
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if base_timeout <= 0 or max_backoff < base_timeout or max_retries < 0:
            raise ConfigurationError(
                f"bad channel timing: base_timeout={base_timeout}, "
                f"max_backoff={max_backoff}, max_retries={max_retries}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {jitter}")
        self.pid = pid
        self.base_timeout = base_timeout
        self.max_backoff = max_backoff
        self.max_retries = max_retries
        self.jitter = jitter
        self._rng = random.Random(f"net-channels:{seed}:{pid}") if jitter else None
        #: Next sequence number per destination.
        self._next_seq: Dict[int, int] = {}
        #: Unacked frames: (dst, seq) -> _PendingFrame.
        self._pending: Dict[Tuple[int, int], _PendingFrame] = {}
        #: Receiver-side dedup per sender.
        self._seen: Dict[int, _Dedup] = {}
        # Metrics.
        self.sent = 0
        self.retransmitted = 0
        self.acked = 0
        self.duplicates_dropped = 0
        self.exhausted = 0

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def frame(self, dst: int, payload: Any, now: Any) -> Any:
        """Frame ``payload`` for ``dst``; registers it for retransmission."""
        seq = self._next_seq.get(dst, 0) + 1
        self._next_seq[dst] = seq
        self._pending[(dst, seq)] = _PendingFrame(
            dst, seq, payload, now + self._interval(0)
        )
        self.sent += 1
        return ("CH", seq, payload)

    def due_retransmits(self, now: Any) -> List[Tuple[int, Any]]:
        """``(dst, frame)`` for every overdue frame; abandons at the cap."""
        out: List[Tuple[int, Any]] = []
        abandoned: List[Tuple[int, int]] = []
        for key, pending in self._pending.items():
            if pending.due > now:
                continue
            pending.attempts += 1
            if pending.attempts > self.max_retries:
                abandoned.append(key)
                continue
            self.retransmitted += 1
            pending.due = now + self._interval(pending.attempts)
            out.append((pending.dest, ("CH", pending.seq, pending.payload)))
        for key in abandoned:
            del self._pending[key]
            self.exhausted += 1
        return out

    def drop_pending(self) -> None:
        """Forget every unacked frame (they were volatile: a restart).

        Sequence counters and dedup state survive, so peers never see a
        reused sequence number.
        """
        self._pending.clear()

    def _interval(self, attempts: int) -> Any:
        backoff = min(self.base_timeout * (2 ** attempts), self.max_backoff)
        if self.jitter:
            backoff *= 1.0 - self.jitter * self._rng.random()
        return backoff

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_receive(
        self, sender: int, payload: Any
    ) -> Tuple[Optional[Any], List[Any]]:
        """Unframe one inbound payload.

        Returns ``(inner, acks)``: ``inner`` is the deliverable protocol
        payload (``None`` for duplicates and pure acks), ``acks`` the
        raw payloads to send back to ``sender`` *outside* the channel
        layer. Non-channel payloads pass through untouched.
        """
        if isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "CH":
            _k, seq, inner = payload
            if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
                return None, []
            # Always ack — the previous ack may have been the lost leg.
            acks: List[Any] = [("CH-ACK", seq)]
            seen = self._seen.get(sender)
            if seen is None:
                seen = self._seen[sender] = _Dedup()
            if not seen.first_delivery(seq):
                self.duplicates_dropped += 1
                return None, acks
            return inner, acks
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "CH-ACK":
            _k, seq = payload
            if self._pending.pop((sender, seq), None) is not None:
                self.acked += 1
            return None, []
        return payload, []

    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Frames sent but not yet acknowledged or abandoned."""
        return len(self._pending)

    def metrics(self) -> Dict[str, int]:
        """Plain-dict channel counters for reports and tests."""
        return {
            "sent": self.sent,
            "retransmitted": self.retransmitted,
            "acked": self.acked,
            "duplicates_dropped": self.duplicates_dropped,
            "exhausted": self.exhausted,
            "pending": self.pending_count(),
            # Dedup memory beyond the contiguous prefix (0 when in order).
            "out_of_order": sum(len(seen.above) for seen in self._seen.values()),
        }
