"""Layer attribution for the traced run, applied from outside the program.

:class:`LayerProfiler` replaces public functions of each layer with
timing wrappers (on the class or module attribute the callers look up)
and keeps, per wrapped name, a call count, the total time and the *self*
time: a call's duration minus the time spent in wrapped calls nested
inside it.  Hot per-call functions (the fused quantize kernel, the bulk
draws, the RTL adder step) are aggregated the same way, so they cost one
counter update per call and no span in the ``repro.obs`` ring.

Nothing here touches an array the program computes with, so a traced run
produces the same bits as an untraced one; the workloads check that.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceRecorder

#: The clock of ``repro.obs`` spans, so wrapped calls and spans share
#: one time line.
CLOCK = time.monotonic


class Stat:
    """Aggregate of one wrapped name."""

    __slots__ = ("calls", "total", "self_time", "elems", "overhead")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.elems = 0
        self.overhead = 0.0


class LayerProfiler:
    """Stack-based self-time accounting for wrapped layer functions.

    Layer names are the text before the first dot of a wrapped name
    (``"emu.engine"`` belongs to layer ``emu``).  Only the thread that
    created the profiler is measured on the stack; calls from other
    threads pass straight through, so sender threads of the serving
    workload never corrupt it.  A name patched with ``any_thread=True``
    is instead timed on every thread under a lock, outside the stack.

    :attr:`top` keeps the (start, end) of every outermost wrapped call
    on the stack, so :meth:`covered` can tell how much of a stretch of
    wall time fell inside some wrapped layer entry point.

    Example::

        prof = LayerProfiler()
        prof.patch(Conv2d, "forward", "nn.conv2d")
        try:
            model(x)
        finally:
            prof.restore()
        prof.stats["nn.conv2d"].self_time
    """

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.top: List[Tuple[float, float]] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self._lock = threading.Lock()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def stat(self, name: str) -> Stat:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = Stat()
        return entry

    def timed(self, name: str, fn: Callable, *,
              elems: Optional[Callable] = None,
              inner: Optional[str] = None,
              any_thread: bool = False) -> Callable:
        """``fn`` wrapped to account its time under ``name``.

        ``elems(args, kwargs)`` adds a work count per call; ``inner``
        names a wrapped function whose time inside this one is *not*
        overhead (``Stat.overhead`` collects the rest).
        """
        stat = self.stat(name)
        if any_thread:
            return self._timed_any_thread(stat, fn, elems)
        inner_stat = self.stat(inner) if inner is not None else None
        stack = self._stack
        top = self.top
        owner = self._thread
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            inner0 = inner_stat.total if inner_stat is not None else 0.0
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                dur = t1 - t0
                stack.pop()
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if elems is not None:
                    stat.elems += elems(args, kwargs)
                if inner_stat is not None:
                    stat.overhead += dur - (inner_stat.total - inner0)
                if stack:
                    stack[-1][0] += dur
                else:
                    top.append((t0, t1))

        return wrapper

    def _timed_any_thread(self, stat: Stat, fn: Callable,
                          elems: Optional[Callable]) -> Callable:
        lock = self._lock

        def wrapper(*args, **kwargs):
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = CLOCK() - t0
                with lock:
                    stat.calls += 1
                    stat.total += dur
                    stat.self_time += dur
                    if elems is not None:
                        stat.elems += elems(args, kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: Optional[str] = None, *,
              wrap: Optional[Callable] = None, **kwargs) -> None:
        """Replace ``owner.attr`` (a class or a module) until
        :meth:`restore`.

        ``wrap(original)`` first builds a replacement (to record or
        count something); ``name`` then times the result as in
        :meth:`timed`, which takes the remaining keyword arguments.
        """
        original = owner.__dict__[attr]
        fn = wrap(original) if wrap is not None else original
        if name is not None:
            fn = self.timed(name, fn, **kwargs)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, fn)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_self(self) -> Dict[str, float]:
        """Self time summed per layer (``emu``, ``fp``, ...)."""
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stat.self_time
        return out

    def covered(self, extra: Iterable[Tuple[float, float]] = ()) -> float:
        """Seconds inside at least one outermost wrapped call or one of
        the ``extra`` (start, end) intervals, overlaps counted once."""
        total = 0.0
        reach = float("-inf")
        for start, end in sorted(list(self.top) + list(extra)):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total


def _size(args, kwargs) -> int:
    return int(np.size(args[0]))


def _serve_macs(args, kwargs) -> int:
    # _ServeGemm.__call__(self, a, b): (B, M, K) @ (B, K, N) or 2D
    a, b = np.shape(args[1]), np.shape(args[2])
    return int(np.prod(a, dtype=np.int64)) * int(b[-1])


def _draw_count(args, kwargs) -> int:
    # bulk_draws(stream, rbits, steps, shape)
    return int(args[2]) * int(np.prod(args[3], dtype=np.int64))


def instrument_datapath(prof: LayerProfiler) -> None:
    """Wrap the public entry points of the nn/emu/fp/prng/rtl layers.

    Names are patched where callers look them up: ``repro.emu.engine``
    and ``repro.rtl.vectorized`` import ``_quantize_fused_into`` and
    ``bulk_draws`` by name.  GEMM callables are wrapped on their class,
    never on the instance, so ``hasattr(gemm, "gemm_rows")`` still picks
    the same conv path.
    """
    from repro.emu import engine, gemm, parallel
    from repro.fp import fastquant
    from repro.nn import layers
    from repro.rtl import vectorized
    from repro.serve import session

    for cls, name in ((layers.Conv2d, "nn.conv2d"),
                      (layers.Linear, "nn.linear"),
                      (layers.MultiHeadAttention, "nn.attention")):
        prof.patch(cls, "forward", name)
        prof.patch(cls, "backward", name)

    prof.patch(gemm.QuantizedGemm, "__call__", "emu.gemm")
    for attr in ("__call__", "gemm_rows", "gemm_rows_streamed",
                 "gemm_outer_rows"):
        prof.patch(parallel.ParallelQuantizedGemm, attr, "emu.parallel",
                   inner="emu.engine")
    prof.patch(session._ServeGemm, "__call__", "emu.parallel",
               inner="emu.engine", elems=_serve_macs)
    prof.patch(gemm, "cast_inputs", "emu.cast")
    prof.patch(parallel, "_cast_operand", "emu.cast")
    prof.patch(parallel, "_cast_one", "emu.cast")
    prof.patch(session, "_cast_one", "emu.cast")
    prof.patch(gemm, "sum_reduce", "emu.reduce")
    for cls in (engine.SequentialEngine, engine.PairwiseEngine,
                engine.ChunkedEngine, engine._RTLEngine):
        prof.patch(cls, "gemm", "emu.engine")
        prof.patch(cls, "reduce", "emu.reduce")

    fused = prof.stat("fp.quantize")
    general = prof.stat("fp.general")
    prof.patch(engine, "_quantize_fused_into", "fp.quantize", elems=_size)
    prof.patch(fastquant, "_quantize_fused_into", "fp.quantize",
               elems=_size)

    def _general_lane(fn):
        # An accumulator rounding through round_partial that did not
        # reach the fused kernel took the general (allocating or
        # reference) lane.
        def call(values, *args, **kwargs):
            before = fused.calls
            try:
                return fn(values, *args, **kwargs)
            finally:
                if fused.calls == before:
                    general.elems += int(np.size(values))
        return call

    for attr in ("quantize_fast", "quantize"):
        prof.patch(engine, attr, "fp.general", wrap=_general_lane)

    prof.patch(engine, "bulk_draws", "prng.draws", elems=_draw_count)
    prof.patch(vectorized, "bulk_draws", "prng.draws", elems=_draw_count)
    prof.patch(vectorized.VectorAdder, "add", "rtl.add")


class CountingRecorder(TraceRecorder):
    """A ``repro.obs`` recorder that also counts every span offered to
    it, so spans the bounded ring overwrote show as dropped, and keeps
    the (start, end) of every span named in ``keep`` (the layer
    boundaries that are spans rather than functions)."""

    def __init__(self, keep: Iterable[str] = ()):
        super().__init__()
        self._count_lock = threading.Lock()
        self.recorded = 0
        self.keep = frozenset(keep)
        self.kept: List[Tuple[float, float]] = []

    def _record(self, span_obj) -> None:
        with self._count_lock:
            self.recorded += 1
            if span_obj.name in self.keep:
                self.kept.append((span_obj.t0, span_obj.t1))
        super()._record(span_obj)

    def dropped(self) -> int:
        return self.recorded - len(self.events())

    def span_totals(self) -> Dict[str, float]:
        """Total seconds per span name."""
        out: Dict[str, float] = {}
        for event in self.events():
            out[event["name"]] = out.get(event["name"], 0.0) \
                + event["dur_us"] / 1e6
        return out
