"""Per-layer spans recorded from outside the program.

The traced run wraps calls into the program in :class:`Recorder` spans:
module functions at the call site (``with rec.span("logs.io"): ...``) and
public methods of objects the benchmark holds, replaced on the instance
only (:meth:`Recorder.wrap`).  Each layer accumulates a count, busy time
(outermost spans of the layer), self time (busy minus time in nested spans
of other layers) and wait time (supplied by the caller, e.g. queue wait).

Untraced runs use a disabled recorder: ``span`` returns a shared no-op and
nothing is wrapped, so end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    count: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    wait_s: float = 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "busy_s": self.busy_s,
                "self_s": self.self_s, "wait_s": self.wait_s}


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _Null()


class _Span:
    __slots__ = ("rec", "layer", "t0", "child", "nested")

    def __init__(self, rec: "Recorder", layer: str) -> None:
        self.rec = rec
        self.layer = layer
        self.child = 0.0
        self.nested = False

    def __enter__(self):
        stack = self.rec._stack
        self.nested = any(s.layer == self.layer for s in stack)
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter() - self.t0
        rec = self.rec
        rec._stack.pop()
        if rec._stack:
            parent = rec._stack[-1]
            if parent.layer != self.layer:
                parent.child += dur
            else:
                parent.child += self.child
        if self.nested:
            return None
        st = rec.layers.setdefault(self.layer, LayerStats())
        st.count += 1
        st.busy_s += dur
        st.self_s += dur - self.child
        return None


class Recorder:
    """Span stack + per-layer accumulators (one per run)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[_Span] = []
        self._wrapped: list[tuple[object, str]] = []

    def span(self, layer: str):
        return _Span(self, layer) if self.enabled else _NULL

    def layer(self, name: str) -> LayerStats:
        return self.layers.setdefault(name, LayerStats())

    def add_wait(self, layer: str, seconds: float) -> None:
        if self.enabled:
            self.layer(layer).wait_s += seconds

    def wrap(self, obj: object, method: str, layer: str) -> None:
        """Time ``obj.method`` as ``layer`` by shadowing it on the instance
        (the class and every other instance are untouched)."""
        if not self.enabled:
            return
        inner = getattr(obj, method)
        span = self.span

        def traced(*args, **kwargs):
            with span(layer):
                return inner(*args, **kwargs)

        traced.__wrapped__ = inner
        setattr(obj, method, traced)
        self._wrapped.append((obj, method))

    def unwrap_all(self) -> None:
        for obj, method in reversed(self._wrapped):
            try:
                delattr(obj, method)
            except AttributeError:
                pass
        self._wrapped.clear()

    def table(self) -> dict[str, dict]:
        return {name: st.as_dict() for name, st in sorted(self.layers.items())}
