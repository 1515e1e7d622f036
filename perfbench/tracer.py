"""In-memory span tracer that instruments a program from outside.

A span records a name, start, end and the span that was open when it
began.  Spans stay in a list and are written out when the run ends.  A
span's self time is its duration minus the time its children cover.
Functions that run tens of thousands of times per run are *counted*
instead: calls and total time accumulate under a name, and the time is
charged to the enclosing span so its self time stays exact.

Instrumentation replaces module attributes with wrappers and puts the
originals back on exit.  A function imported by name into a caller's
module is a separate binding there, so the probe must patch the caller's
namespace to see those calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "covered", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.covered = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.calls = defaultdict(int)
        self.times = defaultdict(float)

    def begin(self, name: str) -> Span:
        span = Span(name, self.clock(), self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self.stack.pop()
        if span.parent is not None:
            span.parent.covered += span.duration

    def span(self, name: str, fn, attrs=None, only_under: str | None = None):
        """Wrap fn so each call records a span.

        attrs(args, kwargs, result) returns a dict stored on the span;
        with only_under set, calls record only when the innermost open
        span has that name and pass straight through otherwise.
        """
        def wrapper(*args, **kwargs):
            if only_under is not None and (
                    not self.stack or self.stack[-1].name != only_under):
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        """Wrap fn so calls and time add up under name, without spans."""
        def wrapper(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.calls[name] += 1
                self.times[name] += elapsed
                if self.stack:
                    self.stack[-1].covered += elapsed

        return wrapper

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def to_rows(self) -> list:
        """Spans as [name, start, end, parent index] rows, in start order."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 None if s.parent is None else index[id(s.parent)]]
                for s in self.spans]


@contextmanager
def patched(patches):
    """Apply (owner, attribute, make_wrapper) patches; restore all on exit."""
    applied = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            applied.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(applied):
            setattr(owner, attr, original)
