"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions: :meth:`Tracer.wrap` swaps an attribute of a live
object (or a module global the caller imported by name) for a timing
wrapper, so nothing under ``src/`` is edited.  Spans stay in memory and are
written to ``results/trace-<workload>.jsonl`` when the run ends.

A span is ``{id, parent, request, name, start_ns, end_ns}``.  A layer's
*self time* is its span's duration minus the part its child spans cover;
the root span of a request (the client's view) keeps whatever no wrapped
call explains — that remainder is reported as ``trace.residual_ms``, never
folded into a layer.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Tracer", "self_times", "layer_self_ms", "span_cost_s"]


class Tracer:
    """Records nested spans per thread; wraps callables to emit them."""

    def __init__(self):
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._restore: List[Callable[[], None]] = []
        #: Wraps that failed because the symbol is gone (a refactor landed).
        self.missing: List[str] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def begin(self, name: str, request: Optional[int] = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": self._new_id(),
            "parent": parent["id"] if parent else None,
            "request": request if request is not None
            else (parent["request"] if parent else None),
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass
        with self._lock:
            self.spans.append(span)

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: Optional[int] = None,
        request: Optional[int] = None,
    ) -> int:
        """Record a span measured elsewhere (a client timestamp pair, or a
        re-enacted subtree grafted under a client span)."""
        span_id = self._new_id()
        with self._lock:
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "request": request,
                    "name": name,
                    "start_ns": int(start_ns),
                    "end_ns": int(end_ns),
                }
            )
        return span_id

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str) -> bool:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        Returns False (and remembers the name in :attr:`missing`) when the
        attribute does not exist, so a refactor that removes a symbol costs
        a probe, not the run.
        """
        original = getattr(owner, attribute, None)
        if original is None or not callable(original):
            self.missing.append(name)
            return False
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        own = getattr(owner, "__dict__", {})
        had_own = attribute in own
        raw = own.get(attribute)  # the undecorated classmethod/function
        try:
            setattr(owner, attribute, timed)
        except (AttributeError, TypeError):  # slots / read-only owner
            self.missing.append(name)
            return False

        def restore():
            if had_own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

        self._restore.append(restore)
        return True

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over the bare call (calibration)."""

    class Target:
        def call(self):
            return None

    def timed(target) -> float:
        started = time.perf_counter()
        for __ in range(calls):
            target.call()
        return time.perf_counter() - started

    bare, wrapped = Target(), Target()
    Tracer().wrap(wrapped, "call", "calibration")
    return max(0.0, min(timed(wrapped) for __ in range(3))
               - min(timed(bare) for __ in range(3))) / calls


def self_times(spans: Iterable[dict]) -> Dict[int, int]:
    """Self time in ns of every span: duration minus its children's."""
    spans = list(spans)
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for span in spans:
        parent = span["parent"]
        if parent in own:
            own[parent] -= span["end_ns"] - span["start_ns"]
    return own


def layer_self_ms(spans: Iterable[dict], requests: Iterable[int]) -> Dict[str, List[float]]:
    """Per layer name, the self time in ms it cost each of ``requests``
    (0.0 for a request that never entered the layer), so medians are taken
    over the same population the client latency is."""
    spans = [s for s in spans if s["request"] is not None]
    own = self_times(spans)
    per_request: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        per_request[span["request"]][span["name"]] += own[span["id"]] / 1e6
    names = {s["name"] for s in spans}
    return {
        name: [per_request[r].get(name, 0.0) for r in requests]
        for name in sorted(names)
    }
