"""Stall-to-verdict liveness monitoring.

Under injected faults a run can lose liveness — a write that can never
reach its quorum just polls forever — and without help it burns the
whole step budget (or, on a live cluster, hangs), indistinguishable
from "budget too small". :class:`ProgressMonitor` watches a tuple of
*progress signals* (delivered counters, recorded responses,
protocol-state versions) and raises :class:`repro.errors.StallDetected`
once nothing has moved for a full stall window — converting the
would-be hang into a first-class ``STALLED`` verdict carrying a
diagnosis: which operations are pending and what the fault plan is
suppressing.

The monitor is sans-IO: callers hand it the time with every
:meth:`ProgressMonitor.observe`. The simulator's scenarios call it
from the drive loop's goal predicate with the virtual clock (and
catch the exception, so a stalled run is *completed* as far as the
exploration/replay machinery is concerned — its trace replays, shrinks
and persists to the corpus like any safety violation); a live cluster
calls it from a poll task with the wall clock.

The window must be comfortably larger than the longest legitimate gap
between progress events — with retransmit channels that is the capped
backoff interval, which construction enforces — and far smaller than
the drive's budget so a stalling run still completes within it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

from repro.errors import ConfigurationError, StallDetected


class ProgressMonitor:
    """Raise :class:`StallDetected` when progress signals stop moving.

    Args:
        signals: Zero-argument callable returning a comparable tuple of
            progress counters; any change resets the window. Counters
            should track *useful* events (deliveries, responses,
            protocol-state adoptions) — retransmission sends and
            deduped duplicates are not progress.
        window: Time without a signal change before the stall verdict,
            in the unit of ``now`` (virtual steps or seconds).
        describe_pending: Optional callable returning a one-line summary
            of the operations still pending (folded into the diagnosis).
        describe_suppression: Optional callable explaining what the
            fault plan is cutting (see :func:`repro.faults.describe_suppression`).
        channels: The :class:`repro.faults.RetransmitChannels` the
            monitored system sends through. A stall window at or below
            any one's capped backoff reads every legitimate retransmit
            gap as a stall, so that configuration is rejected loudly.
    """

    def __init__(
        self,
        signals: Callable[[], Tuple],
        window: Any = 2_500,
        describe_pending: Optional[Callable[[], str]] = None,
        describe_suppression: Optional[Callable[[], str]] = None,
        channels: Iterable[Any] = (),
    ):
        if window <= 0:
            raise ConfigurationError(f"stall window must be > 0, got {window}")
        for channel in channels:
            if window <= channel.max_backoff:
                raise ConfigurationError(
                    f"stall window {window} must exceed the retransmit "
                    f"layer's capped backoff ({channel.max_backoff}): a "
                    f"legitimate retransmit gap would read as a stall"
                )
        self.window = window
        self._signals = signals
        self._describe_pending = describe_pending
        self._describe_suppression = describe_suppression
        self._last: Optional[Tuple] = None
        self._last_change: Any = None
        #: Set to the diagnosis once a stall has been raised.
        self.stalled: Optional[str] = None

    def observe(self, now: Any) -> None:
        """Sample the signals at time ``now``; raise once the window elapses.

        The first call sets the baseline. Cost is one tuple compare, so
        the simulator can call it before every step.
        """
        current = self._signals()
        if current != self._last:
            self._last = current
            self._last_change = now
            return
        if now - self._last_change >= self.window:
            self.stalled = self._diagnose(now)
            raise StallDetected(self.stalled)

    def _diagnose(self, now: Any) -> str:
        # Virtual clocks count steps (ints); wall clocks count seconds.
        if isinstance(now, float):
            span = f"{self.window:g}s (wall clock)"
        else:
            span = f"{self.window} steps (clock={now})"
        parts = [f"STALLED: no progress for {span}"]
        if self._describe_pending is not None:
            parts.append(f"pending: {self._describe_pending()}")
        if self._describe_suppression is not None:
            parts.append(self._describe_suppression())
        return "; ".join(parts)
