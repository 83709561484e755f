"""In-memory span recorder that wraps the program's public layer boundaries.

The benchmark never edits the program: for a traced run it swaps a timing
wrapper into the module attribute (or class attribute) through which the
program calls each layer, and puts the original back when the run ends.
Spans (name, start, end, parent, run id, attributes) stay in memory and
are written as JSON lines once the run is over.

Hot per-frame calls (the live wire codec) are folded into counters
instead of spans, so tracing never records one object per message.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, sid: int, name: str, start: int, parent: int, run: int):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "run": self.run,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Span stack plus the attribute patches that feed it.

    ``patch`` swaps a wrapper into ``owner.attr`` and ``restore`` puts
    every original back. ``layer`` wrappers open a span per call; one
    whose layer is already open further up the stack calls straight
    through, so a layer's time is counted once even when its functions
    call each other.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: List[Span] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else 0
        span = Span(len(self.spans) + 1, name, time.perf_counter_ns(), parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open[span.name] -= 1

    def layer(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``before(args)`` runs ahead of the call; its return value reaches
        ``after(span, args, result, state)``, which runs even when the
        call raises (with ``result`` None) so no span loses its counts.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._open[name]:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.finish(span)
                if after is not None:
                    after(span, args, result, state)

        return wrapper

    def tally(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in counters ``name.calls``/``.s`` (and ``.bytes``)."""
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            result = fn(*args, **kwargs)
            counters[name + ".s"] += clock() - started
            counters[name + ".calls"] += 1
            if size is not None:
                counters[name + ".bytes"] += size(result)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True) + "\n")
