"""In-memory span recorder for the traced benchmark passes.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or None, `op` the index of the operation it belongs to.
Spans stay in memory and are handed back once, at the end of a pass.
A layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def layer_totals(self, ops=None) -> dict[str, dict]:
        """Self time and call count per span name, over the spans of the
        operations in `ops` (all spans when None)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "calls": 0})
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            out[name]["busy_s"] += end - start - child_time[i]
            out[name]["calls"] += 1
        return dict(out)

    def op_times(self, n_ops: int) -> list[float]:
        """Traced layer time per operation: its outermost spans' durations."""
        out = [0.0] * n_ops
        for _, start, end, parent, op in self.spans:
            if parent is None and op is not None:
                out[op] += end - start
        return out


def _traced(tracer: Tracer, fn, span: str, count):
    if inspect.isgeneratorfunction(fn):
        return _traced_generator(tracer, fn, span, count)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(span, fn, *args, **kwargs)
        if count is not None:
            count(span, args, kwargs, result)
        return result

    return wrapper


def _traced_generator(tracer: Tracer, fn, span: str, count):
    """A generator's work runs inside its consumer's loop, so each step
    (one `next`) is its own span; `count` sees every yielded item."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            with tracer.span(span):
                try:
                    item = next(gen)
                except StopIteration:
                    return
            if count is not None:
                count(span, args, kwargs, item)
            yield item

    return wrapper


@contextmanager
def wrapped(tracer: Tracer, module, names, span_of, count=None):
    """Temporarily replace module-level functions by span-recording wrappers.

    `span_of(fn)` gives the span name of each function; `count(span, args,
    kwargs, result)` may add counters read from arguments and results (for a
    generator, once per yielded item).  The original bindings are restored on
    exit.
    """
    saved = {}
    for name in names:
        fn = getattr(module, name, None)
        if fn is not None:
            saved[name] = fn
            setattr(module, name, _traced(tracer, fn, span_of(fn), count))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
