"""Layer spans recorded from the benchmark's own code.

The program under test carries no spans of its own yet, so the traced
pass wraps each layer's entry point at the attribute its caller looks
up (a module global or a class attribute) and records one span per
call: name, start, end and the index of the enclosing span.  Spans stay
in memory, in flat arrays the garbage collector does not scan, and are
written out as JSONL when the child ends.

A layer's self time is its spans' duration minus the time their child
spans cover, so the self times of all layers plus the time no layer
claimed add up to the traced wall time exactly.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory span recorder with attribute wrapping."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        #: summed counters, ``<span name>.<counter>``
        self.counts: Dict[str, float] = {}
        self._stack = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around one of the benchmark's own calls."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Optional[Callable[[Any], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`close`.

        *counts*, when given, maps the call's return value to counters
        that are summed under ``<name>.<counter>``.
        """
        original = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        # span() inlined: this runs on every wrapped call
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper = traced
        if counts is not None:
            totals = self.counts

            def counted(*args: Any, **kwargs: Any) -> Any:
                result = traced(*args, **kwargs)
                for key, value in counts(result).items():
                    full = f"{name}.{key}"
                    totals[full] = totals.get(full, 0) + value
                return result

            wrapper = counted
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_times(self, wall: float) -> Dict[str, Any]:
        """Per-layer self time and call count, plus the trace bookkeeping.

        *wall* is the traced timed region; ``coverage`` is the share of
        it that top-level spans cover, ``unattributed_s`` the rest.
        """
        count = len(self.names)
        child_time = [0.0] * count
        top_level = 0.0
        for index in range(count):
            duration = self.ends[index] - self.starts[index]
            parent = self.parents[index]
            if parent < 0:
                top_level += duration
            else:
                child_time[parent] += duration
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[index]
            calls[name] = calls.get(name, 0) + 1
        return {
            "self_s": self_s,
            "calls": calls,
            "coverage": top_level / wall if wall > 0 else 0.0,
            "unattributed_s": max(wall - top_level, 0.0),
        }

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(
                    f'{{"name": {json.dumps(name)}, "start": {self.starts[index]!r}, '
                    f'"end": {self.ends[index]!r}, "parent": {self.parents[index]}}}\n'
                )
