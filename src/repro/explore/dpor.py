"""Dynamic partial-order reduction over executed effect traces.

The systematic explorer (:mod:`repro.explore.explorer`) is stateless:
every node of its search tree is a decision prefix, and every executed
run is a *complete* schedule whose per-step effect signatures the
instrumentation records. That executed trace is exactly the input
classical DPOR (Flanagan–Godefroid 2005) needs: independence between
two concrete steps is computable from their signatures (the same
``commutes`` algebra the sleep-set pruning uses), so the happens-before
order of a run — and with it every *race*, a pair of conflicting steps
by different coroutines that are adjacent in that order — falls out of
one linear scan with vector clocks.

This module is the analysis half of the explorer's ``reduction="dpor"``
modes; it deliberately knows nothing about frontiers or budgets:

* :class:`RaceScan` scans one run step by step, online, and
  :func:`analyze_run` feeds it a recorded run; either returns the
  detected races together with *backtrack requests*: for each race ``(i, j)``
  the coroutine whose scheduling at the pre-state of step ``i`` starts
  reversing the race. Following the source-set refinement of optimal
  DPOR (Abdulla–Aronis–Jonsson–Sagonas 2014), the requested coroutine
  is the first event of ``notdep(i) · proc(j)`` — always an *initial*
  of that sequence — and the search loop skips the request whenever the
  initial is already explored at that node. Requesting a single initial
  (rather than computing the full initial set) can only add
  exploration, never lose it, so the reduction stays sound while the
  scan stays linear.
* :class:`SymmetryFolder` implements the interchangeable-process
  folding of ``reduction="dpor+symmetry"``: for scenarios that declare
  symmetric process groups (see
  :class:`repro.scenarios.ScenarioRecord.symmetry`), two backtrack
  candidates from the same group are *canonicalized* onto the
  least-pid live representative as long as neither process has been
  touched by the prefix — their coroutines still sit in their initial
  (declared-interchangeable) states, so the reached state is invariant
  under the transposition and one branch's subtree is the renaming
  image of the other's. Violation fingerprints digit-mask pids
  (:meth:`repro.explore.Violation.fingerprint`), so the fold preserves
  verdicts *and* violation classes.

Happens-before is the conflict closure of the ``commutes`` algebra:
same-coroutine program order, plus an edge for every pair of
non-commuting steps. Coroutines here pause-poll rather than block, so
the requested coroutine of a backtrack is *usually* runnable at its
node; when a guarded helper has already retired or is mid-await at that
prefix, the search loop falls back to the classic conservative
treatment and expands every enabled sibling there instead. The race
scan tracks, per resource, only the accesses that can still be an
*immediate* predecessor of a later conflict (same-register last write +
reads since it, same-mailbox last touch, last broadcast, last sync,
and — for sync steps, which conflict with everything — every
coroutine's last step); older accesses are happens-before-ordered
through the tracked ones, so no race within the scanned window is
missed.

**Bounded windows.** The explorer only *controls* the first
``depth_bound`` decisions; beyond them every run finishes under a fixed
round-robin completion tail. The scan therefore only emits requests
for races whose first step lies inside that window — a race
materializing entirely in the tail has no controllable pre-state to
backtrack to. The same rule lets the scan stop early. It reaches
*happens-before closure* once every in-window step happens-before the
latest step of every coroutine still alive; a retired coroutine never
steps again and drops out, and a live one that has not stepped yet
keeps the scan open. Each later step starts from its own coroutine's
previous clock, which then already covers the whole window, so the
happens-before test orders every in-window candidate before it and no
reversible race can appear. A race found before closure picks its
backtrack winner among the steps between its two racing steps, all of
them scanned, so the requests at closure equal those of a scan over the
whole run, in the same order. The explorer's recorder detaches at
closure and the rest of the run takes the kernel's uninstrumented path.
The window is also where the reduction is genuinely weaker than the
sleep baseline's blind enumeration: a prefix deviation also shifts how
the uncontrolled tail *aligns*, and at very tight horizons (the n = 3
broadcast cells at ``depth_bound = 5``) that alignment effect produces
violation classes no in-window race predicts. Parity with the baseline
is re-verified per shipped cell by ``tests/test_dpor_differential.py``;
every shipped campaign cell sits at ``depth_bound >= 6``, inside the
verified regime.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sim.scheduler import CoroutineId

#: Mirrors ``repro.explore.explorer.EffectSignature`` (a structural
#: alias; redefined here so the explorer can import this module).
EffectSignature = Tuple[str, ...]

#: ``first_touches`` sentinel for "never touched inside the window".
NEVER = 1 << 30


class RaceScan:
    """Online happens-before race scan over one run, step by step.

    ``feed`` takes the run's steps in order: the stepping coroutine, its
    effect signature and whether the step retired it. ``limit`` is the
    deviation horizon — races whose *earlier* step lies at or past it
    cannot be reversed by the bounded search, so they produce no request
    (the happens-before edge is still applied). ``live`` names every
    coroutine that may step, in the order that fixes the clock layout.

    :attr:`closed` turns True at *happens-before closure*: once at least
    ``limit`` steps were fed, every live coroutine has either retired or
    stepped with a clock covering every in-window step (see the
    "Bounded windows" paragraph of the module doc). From then on no
    further step can add a reversible race, so :meth:`result` over the
    steps fed so far equals :meth:`result` over the whole run. Feeding
    after closure stays legal and changes nothing that ``result``
    reports.
    """

    def __init__(self, limit: int, live: Iterable[CoroutineId]):
        self.limit = limit
        #: Coroutine -> dense clock index.
        self._index: Dict[CoroutineId, int] = {}
        for cid in live:
            self._index.setdefault(cid, len(self._index))
        width = len(self._index)
        self._zero = (0,) * width
        self._chosen: List[CoroutineId] = []
        # Per step: owning proc index, per-proc local step number, and
        # the vector clock *after* the step (vc[p] = number of p's steps
        # that happen-before-or-equal this one).
        self._proc: List[int] = []
        self._local: List[int] = []
        self._vc: List[Tuple[int, ...]] = []
        self._counts = [0] * width
        # Immediate-predecessor tracking (see module doc).
        self._last_step_of: List[Optional[int]] = [None] * width
        self._last_sync: Optional[int] = None
        self._last_write: Dict[str, int] = {}
        self._reads_since_write: Dict[str, List[int]] = {}
        self._last_mbox: Dict[int, int] = {}
        self._last_bcast: Optional[int] = None
        self._races: List[Tuple[int, int]] = []
        self._retired: Set[int] = set()
        #: Per-proc local step counts at the end of the window, once fed.
        self._target: Optional[Tuple[int, ...]] = None
        #: Live procs not yet covered by ``_target`` (valid once set).
        self._open: Set[int] = set()
        self.closed = False

    def _covers(self, vc: Tuple[int, ...]) -> bool:
        return all(map(int.__ge__, vc, self._target))

    def feed(
        self, cid: CoroutineId, sig: EffectSignature, retired: bool = False
    ) -> None:
        """Scan one more step of the run."""
        j = len(self._chosen)
        p = self._index[cid]
        head = sig[0]
        step_proc = self._proc
        step_local = self._local
        step_vc = self._vc
        last_step_of = self._last_step_of
        last_sync = self._last_sync

        candidates: List[Optional[int]]
        if head == "sync":
            candidates = [s for q, s in enumerate(last_step_of) if q != p]
        elif head == "pause":
            candidates = [last_sync]
        elif head == "read":
            candidates = [self._last_write.get(sig[1]), last_sync]
        elif head == "write":
            register = sig[1]
            candidates = [self._last_write.get(register), last_sync]
            candidates.extend(self._reads_since_write.get(register, ()))
        elif head in ("send", "recv"):
            candidates = [
                self._last_mbox.get(sig[1]), self._last_bcast, last_sync
            ]
        else:  # bcast
            candidates = list(self._last_mbox.values())
            candidates.append(self._last_bcast)
            candidates.append(last_sync)

        own_prev = last_step_of[p]
        vc = step_vc[own_prev] if own_prev is not None else self._zero
        # Later candidates first: merging a later conflicting step's
        # clock may already order an earlier one (then it is not an
        # immediate predecessor and not a race).
        for i in sorted({c for c in candidates if c is not None}, reverse=True):
            q = step_proc[i]
            if q == p:
                continue  # program order, already inside vc
            if vc[q] >= step_local[i]:
                continue  # happens-before through an intermediate step
            self._races.append((i, j))
            vc = tuple(map(max, vc, step_vc[i]))

        local = self._counts[p] + 1
        self._counts[p] = local
        vc = vc[:p] + (local,) + vc[p + 1:]
        self._chosen.append(cid)
        step_proc.append(p)
        step_local.append(local)
        step_vc.append(vc)
        last_step_of[p] = j

        if head == "sync":
            self._last_sync = j
        elif head == "read":
            self._reads_since_write.setdefault(sig[1], []).append(j)
        elif head == "write":
            self._last_write[sig[1]] = j
            self._reads_since_write.pop(sig[1], None)
        elif head in ("send", "recv"):
            self._last_mbox[sig[1]] = j
        elif head == "bcast":
            self._last_bcast = j
            self._last_mbox.clear()

        if retired:
            self._retired.add(p)
        if self._target is None:
            if j + 1 < self.limit:
                return
            # The window is fully fed: every later step must start from
            # a clock covering these counts for the scan to close.
            self._target = tuple(self._counts)
            self._open = {
                q
                for q, last in enumerate(last_step_of)
                if q not in self._retired
                and (last is None or not self._covers(step_vc[last]))
            }
        elif p in self._open and (retired or self._covers(vc)):
            self._open.discard(p)
        self.closed = not self._open

    def result(self) -> Tuple[int, List[Tuple[int, CoroutineId]]]:
        """``(races_detected, requests)`` over the steps fed so far.

        Each request is ``(depth, cid)``: schedule ``cid`` instead of
        the base choice at the node ``trace[:depth]``. Requests are
        deduplicated and ordered by the race that first demanded them.
        """
        chosen = self._chosen
        step_proc = self._proc
        step_local = self._local
        step_vc = self._vc
        # Backtrack requests: for each reversible race, the first step
        # after i that does not happen-after i — the head of notdep(i) ·
        # proc(j), hence an initial of it (nothing in the sequence
        # precedes it).
        requests: List[Tuple[int, CoroutineId]] = []
        seen: Set[Tuple[int, CoroutineId]] = set()
        reversible = 0
        for i, j in self._races:
            if i >= self.limit:
                continue
            reversible += 1
            pi, li = step_proc[i], step_local[i]
            winner = chosen[j]
            for k in range(i + 1, j):
                if step_vc[k][pi] < li:
                    winner = chosen[k]
                    break
            request = (i, winner)
            if request not in seen:
                seen.add(request)
                requests.append(request)
        return reversible, requests


def analyze_run(
    chosen: Sequence[CoroutineId],
    effects: Sequence[EffectSignature],
    limit: int,
) -> Tuple[int, List[Tuple[int, CoroutineId]]]:
    """Detect races in one executed run; derive backtrack requests.

    ``chosen`` / ``effects`` are the run's per-step records (coroutine
    and effect signature of every recorded step, in order) and ``limit``
    the deviation horizon, as for :class:`RaceScan`. The record may end
    anywhere at or past the scan's happens-before closure: the result
    is the same as over the whole run.

    Returns ``(races_detected, requests)`` (see :meth:`RaceScan.result`).
    """
    total = min(len(chosen), len(effects))
    scan = RaceScan(limit, chosen[:total])
    for k in range(total):
        scan.feed(chosen[k], effects[k])
    return scan.result()


class SymmetryFolder:
    """Canonicalizes backtrack candidates under process renaming.

    ``groups`` are the scenario-declared interchangeable process sets
    (pids whose initial coroutine/register/mailbox configurations map
    onto each other under any permutation of the group);
    ``register_owners`` maps register names to their writer pid, which
    is how a register access in an effect signature is attributed to a
    group member. A grouped pid is *touched* by a step when the step is
    its own, reads or writes a register it owns, or targets its
    mailbox; until either pid of a transposition is touched, the
    reached state is a fixed point of that transposition and the two
    branches explore renaming-equivalent subtrees.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        register_owners: Dict[str, Optional[int]],
    ):
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(group)) for group in groups if len(group) >= 2
        )
        self.group_of: Dict[int, Tuple[int, ...]] = {
            pid: group for group in self.groups for pid in group
        }
        self.owners = register_owners

    def __bool__(self) -> bool:
        return bool(self.groups)

    def first_touches(
        self,
        chosen: Sequence[CoroutineId],
        effects: Sequence[EffectSignature],
        limit: int,
    ) -> Dict[int, int]:
        """First step index breaking each grouped pid's interchangeability.

        Only the first ``limit`` steps matter (nodes exist only below
        the deviation horizon); untouched pids are absent (treat as
        :data:`NEVER`).
        """
        members = self.group_of
        touched: Dict[int, int] = {}
        horizon = min(limit, len(chosen), len(effects))
        for k in range(horizon):
            if len(touched) == len(members):
                break
            pid = chosen[k][0]
            if pid in members and pid not in touched:
                touched[pid] = k
            sig = effects[k]
            head = sig[0]
            if head in ("read", "write"):
                owner = self.owners.get(sig[1])
                if owner in members and owner not in touched:
                    touched[owner] = k
            elif head in ("send", "recv"):
                dest = sig[1]
                if dest in members and dest not in touched:
                    touched[dest] = k
            elif head == "bcast":  # touches every mailbox
                for pid in members:
                    if pid not in touched:
                        touched[pid] = k
        return touched

    def canonical(
        self,
        cid: CoroutineId,
        runnable: Sequence[CoroutineId],
        live: frozenset,
    ) -> CoroutineId:
        """The least live same-group representative of ``cid``.

        ``live`` holds the grouped pids still untouched at the node;
        a candidate outside every group, or already touched, is its own
        representative.
        """
        pid, role = cid
        group = self.group_of.get(pid)
        if group is None or pid not in live:
            return cid
        for other in group:
            if other == pid:
                break
            if other in live and (other, role) in runnable:
                return (other, role)
        return cid
