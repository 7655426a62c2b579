"""Spans and counts recorded from outside the program.

A Tracer replaces public functions and methods with wrappers, each patched
where the caller looks the name up (a module attribute, or a class attribute
for methods), and restores the originals on `uninstall`.  Synchronous spans
nest through a stack, so a span's self time is its duration minus that of its
direct child spans.  Coroutine spans interleave on the event loop; they are
recorded as top-level spans and take no part in self time.

Spans are kept in memory, up to MAX_SPANS, and written out by `dump`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> seconds
        self.self_time = defaultdict(float)  # span name -> seconds less direct children
        self.calls = Counter()  # span or count name -> calls
        self.counts = Counter()  # free-form counters (bytes, events, ...)
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.dropped = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []  # (owner, attr, original)

    # ---- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _open(self, name: str, start: float, parent: int) -> int:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, start, parent))
            return len(self.spans) - 1
        self.dropped += 1
        return -1

    def _close(self, index: int, end: float) -> None:
        if index >= 0:
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, end, parent)

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Time every call of owner.attr as span `name`; on_return(args,
        kwargs, result) may add counts."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = tracer._stack[-1][0] if tracer._stack else -1
                start = time.perf_counter()
                frame = [tracer._open(name, start, parent), 0.0]
                tracer._stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    duration = end - start
                    tracer.total[name] += duration
                    tracer.self_time[name] += duration - frame[1]
                    tracer.calls[name] += 1
                    if tracer._stack:
                        tracer._stack[-1][1] += duration
                    tracer._close(frame[0], end)
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def async_span(self, owner, attr: str, name: str, on_return=None) -> None:
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                start = time.perf_counter()
                index = tracer._open(name, start, -1)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer.total[name] += end - start
                    tracer.calls[name] += 1
                    tracer._close(index, end)
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without timing them."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def wrap(self, owner, attr: str, make) -> None:
        """Install a custom wrapper; make(original) returns the replacement."""
        self._patch(owner, attr, make)

    # ---- output ------------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "total_s": dict(self.total),
                    "self_s": dict(self.self_time),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "dropped_spans": self.dropped,
                    "spans": [list(s) for s in self.spans],
                    **extra,
                },
                fh,
            )
