"""In-memory spans around the public calls of each bell_lab layer.

`Tracer.install` rebinds each target function, wherever a bell_lab module
holds it by name, to a wrapper that records a span (name, start, end,
parent) and any counts read from the call's arguments or result, then
`restore` puts the originals back.  The program's files are not touched:
the wrappers live here, around the calls into each layer.

A span's self time is its duration minus the durations of its direct
children; since one thread runs everything, children nest inside their
parent and never overlap, so self times add up to the traced wall time.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    #: suffix for membership spans, set per operation (e.g. "3x3", "ensemble")
    membership_tag: str = "other"
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.end - span.start

    def wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            label = name(tracer) if callable(name) else name
            index = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: dict) -> None:
        """targets: original function -> (span name, after hook or None).

        Classes in `targets` are handled by key (cls, attr)."""
        for key, (name, after) in targets.items():
            if isinstance(key, tuple):
                owner, attr = key
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
                continue
            wrapper = self.wrap(name, key, after)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "bell_lab" and not mod_name.startswith("bell_lab."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is key:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out
