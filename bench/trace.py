"""Span tracer installed from the benchmark's side of each layer boundary.

The tracer wraps public callables of the program where they are looked
up (a method on its class, a function on the module that calls it), so
the program itself carries no benchmark code.  Each call becomes a span:
name, start, end, parent and thread.  Stacks are per thread, so spans of
the serving engine thread nest under their own parents, not under
whatever the event-loop thread happens to be running.

Self time is computed online: a span's self time is its duration minus
the durations of its direct children.  Totals are kept per span name;
full spans are kept in memory up to a cap and written as JSONL at the
end of the run.

Pool workers are forked processes: a fork hook disables the tracer in
the child, so wrapped functions run untraced there and no child spans
are recorded (their work is reported through the program's own
``PerfCounters`` instead).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["Target", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner.attr`` recorded as span ``name``.

    ``units(args, kwargs)`` optionally measures the work of one call
    (e.g. rows of a batched forward); it is summed per span name.
    """

    owner: object
    attr: str
    name: str
    units: Callable | None = None


class _ThreadState:
    __slots__ = ("ident", "stack", "totals")

    def __init__(self, ident: int):
        self.ident = ident
        # frame: [name, start, child_time, span_id, parent_id]
        self.stack: list[list] = []
        # name -> [count, total_s, self_s, units]
        self.totals: dict[str, list] = {}


#: Spans kept for the JSONL file; totals always cover every span.
KEEP_SPANS = 50_000


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self):
        self.enabled = True
        #: Recorded spans: (span_id, parent_id, thread, name, start, end).
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple] = []
        ref = weakref.ref(self)

        def disable_in_child() -> None:
            tracer = ref()
            if tracer is not None:
                tracer.enabled = False

        os.register_at_fork(after_in_child=disable_in_child)

    # -- span recording --------------------------------------------------- #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def enter(self, name: str, now: float | None = None) -> None:
        """Open a span on the calling thread's stack."""
        stack = self._state().stack
        parent_id = stack[-1][3] if stack else 0
        stack.append([name, time.perf_counter() if now is None else now, 0.0,
                      next(self._ids), parent_id])

    def exit(self, now: float | None = None, units: float = 0) -> None:
        """Close the innermost open span of the calling thread."""
        end = time.perf_counter() if now is None else now
        state = self._state()
        name, start, child_time, span_id, parent_id = state.stack.pop()
        duration = end - start
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0.0, 0.0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_time
        total[3] += units
        if state.stack:
            state.stack[-1][2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent_id, state.ident, name,
                               start, end))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, name: str,
             units: Callable | None = None) -> Callable:
        """``fn`` recording one span per call while the tracer is enabled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(units=units(args, kwargs) if units else 0)

        return traced

    # -- installation ----------------------------------------------------- #
    def install(self, targets) -> None:
        """Wrap every target in place; :meth:`uninstall` restores them."""
        for target in targets:
            owner, attr = target.owner, target.attr
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._installed.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(original, target.name,
                                           target.units))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------- #
    def reset(self) -> None:
        """Drop everything recorded so far (call with no span open)."""
        with self._lock:
            for state in self._threads:
                state.totals.clear()
        self.spans.clear()
        self.dropped = 0

    def totals(self) -> dict[str, tuple[int, float, float, float]]:
        """Per span name over all threads: (count, total_s, self_s, units)."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (count, total, self_s, units) in state.totals.items():
                row = merged.setdefault(name, [0, 0.0, 0.0, 0])
                row[0] += count
                row[1] += total
                row[2] += self_s
                row[3] += units
        return {name: tuple(row) for name, row in merged.items()}

    def write_jsonl(self, path) -> None:
        """Write the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, thread, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent_id, "thread": thread,
                    "name": name, "start": start, "end": end}) + "\n")
