"""In-memory spans recorded around calls into magflow's layers.

A span has a layer (one of LAYERS, or "op" for a whole operation), a name,
start and end times from time.perf_counter, the id of the span that was
open when it started, and numeric attributes (nfev, samples, ...). Spans
of one pass share the pass id. Nothing is written until the run ends.

A disabled Tracer hands out one shared no-op span, so the untraced run
pays one attribute lookup and one call per instrumented site.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("profiles", "contact", "reduced", "flow", "cz", "hopf", "cli")


class _NullSpan:
    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Span:
    __slots__ = ("id", "parent", "pass_id", "layer", "name", "start", "end",
                 "attrs", "error", "_tracer")

    def __init__(self, tracer, sid, parent, pass_id, layer, name, attrs):
        self._tracer = tracer
        self.id = sid
        self.parent = parent
        self.pass_id = pass_id
        self.layer = layer
        self.name = name
        self.attrs = attrs
        self.error = None
        self.start = self.end = 0.0

    def set(self, **attrs):
        self.attrs.update(attrs)

    def __enter__(self):
        self._tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        self._tracer._stack.pop()
        if exc_type is not None:
            self.error = exc_type.__name__
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "pass": self.pass_id,
                "layer": self.layer, "name": self.name,
                "start": self.start, "end": self.end, "error": self.error,
                "attrs": self.attrs}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id = 0

    def span(self, layer: str, name: str, **attrs):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        sp = Span(self, len(self.spans), parent, self.pass_id, layer, name,
                  attrs)
        self.spans.append(sp)
        return sp


@contextmanager
def interposed(module, name: str, tracer: Tracer, layer: str, label: str,
               attrs=None):
    """Wrap module.name in a span for the duration of the block.

    Used for calls a public magflow function makes through its own module
    globals (cz.latitude_cz calls cz.integrate_linearized), so one layer's
    time splits into its stages without touching the package. attrs, if
    given, maps the call's arguments to the span's attributes.
    """
    orig = getattr(module, name)

    def wrapped(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs else {}
        with tracer.span(layer, label, **extra):
            return orig(*args, **kwargs)

    setattr(module, name, wrapped)
    try:
        yield
    finally:
        setattr(module, name, orig)


def self_times(spans: list) -> dict:
    """Per-span self time: duration minus the union of its children."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = _union_length([(c.start, c.end)
                                 for c in children.get(sp.id, ())])
        out[sp.id] = sp.duration - covered
    return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_covered(spans: list) -> float:
    """Time inside at least one layer span (operation spans excluded)."""
    return _union_length([(s.start, s.end) for s in spans
                          if s.layer in LAYERS])
