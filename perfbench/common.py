"""Shared pieces of the benchmark: metric catalogue, result type, stats."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

#: Serving rates in requests per second, fixed on purpose: a later run
#: must load the pool exactly as this one did.  A pooled request takes
#: ~9 ms at p50 on a 2-CPU container and the senders are capped at the
#: CPU count, so two blocking senders saturate near 200 req/s.  The
#: shared host at times runs at a third of its usual speed, which moves
#: that knee to about 70 req/s; ``high`` stays below it even then, so
#: the latencies measure service, which host-speed scaling can correct,
#: and not queueing, which it cannot.
RATES: Dict[str, float] = {"low": 15.0, "mid": 30.0, "high": 60.0}

#: Latency limit on the tail for ``max_ok_rps``.  Unloaded requests
#: take ~10 ms on a shared 2-vCPU VM, and tails there reach
#: 50 ms without any backlog, so 100 ms separates overload from noise.
LATENCY_LIMIT_MS = 100.0

#: How late the load generator itself may send (sleep overshoot and
#: interpreter contention, not backlog) before the run is flagged as
#: having measured the sender rather than the pool.
LATE_BOUND_MS = 5.0

#: Requests per window of :func:`windowed_tail`: each window's tail is
#: then about its 80th percentile, ten samples beyond it, and even the
#: ``low`` rate spans three windows, so one stall moves the median of
#: the windows little.
TAIL_WINDOW = 50

#: Set-ups per run; ``setup_s`` is their median.  Pool set-up is short
#: and noisy, so serve-pool repeats it more often.
SETUPS = 3
SERVE_SETUPS = 5

#: Seconds :func:`probe` takes on the reference host: the 2-vCPU VM the
#: benchmark was defined on, at its quieter moments.  Every timed
#: end-to-end figure is scaled by ``PROBE_REF_S`` over the probe time
#: measured around it, so this constant is fixed for good: changing it
#: rescales every such figure.
PROBE_REF_S = 0.016
#: Iterations of the probe's loop.
PROBE_LOOPS = 200_000

#: End-to-end metrics (``--trace 0``), name -> unit.  Every workload
#: reports every one of them; see README.md for what each means on a
#: training workload versus the serving one.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "loss_final": "nats",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "latency_p50_ms.low": "ms",
    "latency_p50_ms.mid": "ms",
    "latency_p50_ms.high": "ms",
    "latency_tail_ms.low": "ms",
    "latency_tail_ms.mid": "ms",
    "latency_tail_ms.high": "ms",
    "max_ok_rps": "1/s",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  Per train step on
#: the train-* workloads, per request on serve-pool; a layer that does
#: no work on a workload reports 0.
PER_LAYER: Dict[str, str] = {
    "data.batch_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.update_s": "s",
    "nn.conv2d_self_s": "s",
    "nn.linear_self_s": "s",
    "nn.attention_self_s": "s",
    "nn.applied_step_ratio": "ratio",
    "emu.gemm_calls": "count",
    "emu.macs": "count",
    "emu.gemm_s": "s",
    "emu.macs_per_s": "1/s",
    "emu.cast_s": "s",
    "emu.reduce_s": "s",
    "emu.overflow_ratio": "ratio",
    "emu.parallel.overhead_s": "s",
    "fp.quantize_calls": "count",
    "fp.quantize_s": "s",
    "fp.fused_ratio": "ratio",
    "prng.draws": "count",
    "prng.draw_s": "s",
    "rtl.add_calls": "count",
    "rtl.add_s": "s",
    "serve.route_ms": "ms",
    "serve.replica_ms": "ms",
    "serve.ipc_ms": "ms",
    "serve.key_us": "us",
    "serve.session_ms": "ms",
    "serve.batcher.mean_batch": "samples",
    "serve.cache.hit_ratio": "ratio",
    "serve.errors": "count",
    "serve.restarts": "count",
    "loadgen.late_ms_tail.low": "ms",
    "loadgen.late_ms_tail.mid": "ms",
    "loadgen.late_ms_tail.high": "ms",
    "trace.overhead_frac": "ratio",
    "trace.dropped_spans": "count",
    "trace.attributed_frac": "ratio",
}


class GateFailure(RuntimeError):
    """A correctness check failed: the run must print no metrics."""


@dataclass
class Result:
    """What one workload run reports."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    details: dict = field(default_factory=dict)

    def line(self, catalogue: Dict[str, str]) -> dict:
        """The result object, printed as the run's last stdout line."""
        missing = sorted(set(catalogue) - set(self.metrics))
        if missing:
            raise RuntimeError(f"workload did not report {missing}")
        return {
            "correct": True,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(self.metrics[name]),
                               "unit": unit}
                        for name, unit in catalogue.items()},
        }


def per_layer_defaults() -> Dict[str, float]:
    """Every per-layer metric at 0, for a workload to fill in."""
    return {name: 0.0 for name in PER_LAYER}


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with
    at least ten samples beyond it.

    Below 21 samples that percentile would sit at or under the median,
    which is no tail; the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def windowed_tail(values: Sequence[float], window: int = TAIL_WINDOW
                  ) -> Tuple[float, float, int]:
    """(value, mean percentile, window count): the median, over
    consecutive windows of about ``window`` samples in arrival order, of
    each window's :func:`tail`.

    One stall on a shared machine delays a run of consecutive requests;
    a single whole-run tail then swings by 25% between identical runs,
    while the median over windows does not.
    """
    count = max(1, len(values) // window)
    parts = [tail(part) for part in np.array_split(np.asarray(values),
                                                   count)]
    return (median([p[0] for p in parts]),
            float(np.mean([p[1] for p in parts])), count)


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed.

    The shared host's speed drifts by up to 60% over minutes, in CPU
    time as much as in wall time, and this interpreter-bound program
    slows with it.  The loop runs none of the program's code, so a
    change to the program moves a scaled figure one for one.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Host speed around consecutive timed stretches.

    Construct it right before the first stretch and call
    :meth:`factor` right after each one; a stretch's duration times its
    factor is the duration on the reference host.
    """

    def __init__(self):
        self.last = probe()
        self.factors = []

    def factor(self) -> float:
        """``PROBE_REF_S`` over the mean of the probes just before and
        just after the stretch that has ended."""
        after = probe()
        value = PROBE_REF_S / (0.5 * (self.last + after))
        self.last = after
        self.factors.append(value)
        return value


def counter_delta(before: dict, after: dict, prefix: str) -> int:
    """Growth of every counter named ``prefix*`` between two metrics
    registry snapshots."""
    def total(snapshot):
        return sum(int(v) for k, v in snapshot["counters"].items()
                   if k.startswith(prefix))
    return total(after) - total(before)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process, plus the largest waited-for
    child process when ``children`` is set (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def state_digest(model) -> str:
    """sha256 over every parameter and buffer of ``model``, by name."""
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()
