"""Bench-side spans: timing calls into the program's public functions.

Nothing here touches the program's sources.  A :class:`Tracer` records
spans (name, start, end, parent, attributes) in memory; :meth:`Tracer.wrap`
replaces a module attribute or class method with a timing wrapper, so the
benchmark can attribute wall time to layers without spans inside the
program.  Spans are written out once, when the traced process ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Child intervals are
merged before they are subtracted, so overlapping children (executor
threads in the serve daemon) are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time

clock = time.perf_counter


class Tracer:
    """In-memory span recorder, safe to use from several threads.

    Spans are lists ``[name, start, end, parent, attrs]``; ``parent`` is
    the index of the enclosing span on the same thread, or None.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict = None) -> int:
        stack = self._stack()
        span = [name, clock(), None, stack[-1] if stack else None, attrs]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        stack = self._stack()
        # unwind spans left open below this one (an entry span closed
        # implicitly by its enclosing call returning)
        while stack:
            top = stack.pop()
            if top == index:
                break
            if self.spans[top][2] is None:
                self.spans[top][2] = self.spans[index][2]

    def current(self):
        """Index of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner, attr: str, name: str, attrs=None, on_result=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``attrs(args, kwargs)`` returns span attributes; ``on_result(
        result, args)`` records counts from the return value.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name, attrs(args, kwargs) if attrs else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(owner, attr, wrapper)
        return original

    def wrap_generator(self, owner, attr: str, name: str, attrs=None):
        """Time each step of a generator method: the work done inside
        ``next()`` only, not what the consumer does between steps."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            span_attrs = attrs(args, kwargs) if attrs else None
            while True:
                index = tracer.begin(name, span_attrs)
                try:
                    item = next(items)
                except StopIteration:
                    tracer.end(index)
                    return
                tracer.end(index)
                yield item

        setattr(owner, attr, wrapper)
        return original

    def to_json(self) -> dict:
        # a span still open when the process ends (a thread cut off at
        # exit) is written as zero-length, so it attributes nothing
        return {"spans": [[name, start, start if end is None else end,
                           parent, attrs]
                          for name, start, end, parent, attrs in self.spans],
                "counts": dict(self.counts)}

    def write(self, path: str, **extra) -> None:
        doc = self.to_json()
        doc.update(extra)
        with open(path, "w") as handle:
            json.dump(doc, handle)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the union of its children,
    each child clipped to the parent's interval."""
    children: dict = {}
    for index, span in enumerate(spans):
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        clipped = [(max(start, spans[c][1]), min(end, spans[c][2]))
                   for c in children.get(index, ())]
        inner = covered([(a, b) for a, b in clipped if b > a])
        result.append(max(0.0, (end - start) - inner))
    return result


def layer_totals(spans: list, exclude=("op",)) -> dict:
    """Self time summed per span name, leaving out the root names."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        if span[0] in exclude:
            continue
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def graft(spans: list, child_spans: list, parent: int) -> None:
    """Append a traced child process's spans under ``spans[parent]``.

    Both processes read the same monotonic clock, so the child's spans
    fall inside the parent-side span that waited for it.
    """
    offset = len(spans)
    for name, start, end, up, attrs in child_spans:
        spans.append([name, start, end,
                      parent if up is None else up + offset, attrs])
