"""Per-layer spans recorded from outside the library.

The tracer rebinds public functions of the ``peakcast`` modules to timed
wrappers while it is installed, so the library itself carries no tracing
code. A span is kept open while a wrapped call runs; its busy time is the
call's duration and its self time is that minus the busy time of wrapped
calls made inside it. Spans are aggregated per phase ("train",
"forecast", or "" for set-up and data assembly) and never stored one by
one.

Backward time is attributed through the tape: a traced step gives its
``Tape`` a node list whose ``append`` stores each backward closure behind
a timed wrapper tagged with the stack of spans open when the node was
recorded. Replaying the tape then charges every node's time to the layer
that recorded it (self) and to each enclosing layer (busy).

With ``memory=True`` every span also records the ``tracemalloc``
current-bytes delta across the call, which is the memory the call leaves
alive (outputs plus what the tape retains). Memory tracing slows Python
code far more than BLAS code, so timing and memory are traced in
separate steps.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from peakcast import aee, autodiff, data, efe, model, oversample

# (module, public function) pairs wrapped while tracing. The library calls
# them through a module attribute or a module global, so rebinding the
# attribute also catches the calls made inside the library.
WRAPPED = [
    (data, "load_csv"), (data, "align"), (data, "make_windows"), (data, "chrono_split"),
    (data, "window_at_origin"), (oversample, "fit_gmm"), (efe, "embed_sequence"),
    (aee, "encode"), (aee, "decode"), (aee, "timestamp_features"),
    (model, "forward"), (model, "encoder_forward"), (model, "decoder_forward"),
    (model, "multi_head_attention"), (autodiff, "backward"),
]

UNTAGGED = "(benchmark)"


class Tracer:
    """Aggregated span and tape-node statistics for one traced process."""

    def __init__(self) -> None:
        self.phase = ""
        self.memory = False
        self._stack: list[str] = []
        # (phase, layer) -> totals
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.retained = defaultdict(float)
        # (phase, span path at record time) -> totals over tape nodes
        self.node_time = defaultdict(float)
        self.node_count = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self, phase: str, memory: bool = False):
        """Wrap every function in WRAPPED for the duration of the block."""
        self.phase, self.memory = phase, memory
        if memory:
            tracemalloc.start()
        for module, name in WRAPPED:
            original = getattr(module, name)
            self._originals.append((module, name, original))
            layer = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            setattr(module, name, self._wrap(layer, original))
        try:
            yield self
        finally:
            for module, name, original in reversed(self._originals):
                setattr(module, name, original)
            self._originals.clear()
            if memory:
                tracemalloc.stop()
            self._stack.clear()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (self.phase, layer)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(layer)
            mem0 = tracemalloc.get_traced_memory()[0] if self.memory else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if self.memory:
                    self.retained[key] += tracemalloc.get_traced_memory()[0] - mem0
                self._stack.pop()
                self.busy[key] += dt
                self.calls[key] += 1
                if parent is not None:
                    self.child[(self.phase, parent)] += dt

        return traced

    # -- tape tagging ---------------------------------------------------

    def tag_tape(self, tape: autodiff.Tape) -> None:
        """Replace ``tape.nodes`` with a list that times and tags each node."""
        tape.nodes = _TaggingList(self)

    def _tagged(self, bw):
        path = tuple(self._stack) or (UNTAGGED,)
        key = (self.phase, path)
        self.node_count[key] += 1
        node_time = self.node_time

        def node() -> None:
            t0 = time.perf_counter()
            bw()
            node_time[key] += time.perf_counter() - t0

        return node

    # -- results --------------------------------------------------------

    def ms(self, phase: str, layer: str) -> float:
        return 1e3 * self.busy[(phase, layer)]

    def self_ms(self, phase: str, layer: str) -> float:
        return 1e3 * (self.busy[(phase, layer)] - self.child[(phase, layer)])

    def n_calls(self, phase: str, layer: str) -> int:
        return self.calls[(phase, layer)]

    def retained_mb(self, phase: str, layer: str) -> float:
        return self.retained[(phase, layer)] / 2**20

    def backward_ms(self, phase: str, layer: str, own: bool = False) -> float:
        """Backward time of nodes recorded inside ``layer`` (only directly
        inside it when ``own``)."""
        total = 0.0
        for (p, path), dt in self.node_time.items():
            if p == phase and ((path[-1] == layer) if own else (layer in path)):
                total += dt
        return 1e3 * total

    def tape_nodes(self, phase: str, layer: str | None = None) -> int:
        return sum(n for (p, path), n in self.node_count.items()
                   if p == phase and (layer is None or layer in path))

    def top_level_ms(self, phase: str) -> float:
        """Busy time of spans that had no traced parent (= sum of self times)."""
        busy = sum(v for (p, _), v in self.busy.items() if p == phase)
        child = sum(v for (p, _), v in self.child.items() if p == phase)
        return 1e3 * (busy - child)

    def node_ms(self, phase: str) -> float:
        """Time spent inside tagged tape nodes."""
        return 1e3 * sum(v for (p, _), v in self.node_time.items() if p == phase)


class _TaggingList(list):
    """Tape node list that wraps every appended backward closure."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def append(self, bw) -> None:
        super().append(self._tracer._tagged(bw))
