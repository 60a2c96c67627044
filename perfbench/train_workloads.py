"""The three training workloads: train-cnn-sr, train-tf-sr, train-cnn-rtl.

Each builds its run from the public entry points users call
(``build_gemm``/``build_model`` + ``loaders_for`` for the CNN,
``build_transformer_gemm`` + ``TinyTransformer`` for the transformer)
and drives ``Trainer.train_batch`` one step at a time.  Every input —
dataset, initial weights and the SR stream — derives from the workload
seed.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data import loaders_for, make_cifar10_like
from repro.data.sequences import (make_sequence_classification,
                                  sequence_loaders_for)
from repro.emu import GemmConfig, QuantizedGemm, matmul, reference_matmul
from repro.emu.gemm import cast_inputs
from repro.emu.parallel import ParallelQuantizedGemm
from repro.experiments.training import SCALES, build_gemm, build_model
from repro.experiments.transformer import (TRANSFORMER_SCALES,
                                           build_transformer_gemm)
from repro.models import TinyTransformer
from repro.nn import Trainer
from repro.obs import trace as obs_trace

from common import (SETUPS, GateFailure, HostSpeed, Result, counter_delta,
                    median, per_layer_defaults, peak_rss_mb, ratio,
                    state_digest)
from profiler import CountingRecorder, LayerProfiler, instrument_datapath

RBITS = 9
#: The trainer's phase spans, the ``nn`` layer's step-level boundaries.
PHASES = ("train/forward", "train/backward", "train/update")


@dataclass(frozen=True)
class TrainSpec:
    """One training workload.

    ``loss_final`` is the mean training loss of the fixed steps
    ``loss_from..loss_steps`` (1-based, warm-up step included), so it is
    deterministic for a seed whatever the machine's speed; a run always
    makes at least ``loss_steps`` steps.  The window spans a few hundred
    samples because a single batch's loss moves 10-20% from seed to seed.
    """

    name: str
    model: str            # "cnn" or "tf"
    accum_order: str
    batch: int
    loss_from: int
    loss_steps: int
    n_train: Optional[int] = None   # None: the scale's own size


SPECS: Dict[str, TrainSpec] = {
    # Table III "small" SR r=9 E6M5 row on the default serial path.
    "train-cnn-sr": TrainSpec("train-cnn-sr", "cnn", "sequential", 128,
                              6, 8),
    # The tiny transformer: every GEMM through the tiled executor.
    "train-tf-sr": TrainSpec("train-tf-sr", "tf", "sequential", 64, 2, 4),
    # The paper's bit-true eager SR adder; batch cut so a step costs
    # about what a train-cnn-sr step does.
    "train-cnn-rtl": TrainSpec("train-cnn-rtl", "cnn", "rtl_eager", 16,
                               5, 12),
}

#: Reduced sizes for the benchmark's own tests.
SMOKE: Dict[str, TrainSpec] = {
    "train-cnn-sr": TrainSpec("train-cnn-sr", "cnn", "sequential", 16,
                              1, 2, n_train=64),
    "train-tf-sr": TrainSpec("train-tf-sr", "tf", "sequential", 8, 1, 2,
                             n_train=32),
    "train-cnn-rtl": TrainSpec("train-cnn-rtl", "cnn", "rtl_eager", 2,
                               1, 2, n_train=8),
}


class TrainRun:
    """Dataset, GEMM, model and trainer of one run, plus its batch
    stream (which restarts the loader at each epoch end)."""

    def __init__(self, spec: TrainSpec, seed: int):
        config = GemmConfig.sr(RBITS, seed=seed,
                               accum_order=spec.accum_order)
        if spec.model == "cnn":
            scale = SCALES["small"]
            n_train = spec.n_train or scale.n_train
            dataset = make_cifar10_like(n_train, scale.n_test,
                                        scale.image_size, seed=seed)
            self.gemm = build_gemm(config)
            self.model = build_model(scale, dataset, self.gemm, seed)
            self.loader, _ = loaders_for(dataset, batch_size=spec.batch,
                                         seed=seed)
        else:
            scale = TRANSFORMER_SCALES["tiny"]
            dataset = make_sequence_classification(
                spec.n_train or scale.n_train, scale.n_test,
                seq_len=scale.seq_len, vocab_size=scale.vocab_size,
                num_classes=scale.num_classes, bias=0.25, corrupt=0.15,
                seed=seed)
            self.gemm = build_transformer_gemm(config)
            self.model = TinyTransformer(
                dataset.vocab_size, dataset.num_classes,
                d_model=scale.d_model, n_heads=scale.n_heads,
                depth=scale.depth, max_len=dataset.seq_len,
                gemm=self.gemm, seed=seed)
            self.loader, _ = sequence_loaders_for(
                dataset, batch_size=spec.batch, seed=seed)
        self.trainer = Trainer(self.model, lr=scale.lr, epochs=scale.epochs,
                               weight_decay=scale.weight_decay)
        self._batches = iter(self.loader)
        self.steps = 0
        self.losses: List[float] = []

    def next_batch(self):
        try:
            return next(self._batches)
        except StopIteration:
            self._batches = iter(self.loader)
            return next(self._batches)

    def step(self, next_batch: Optional[Callable] = None) -> float:
        """One train step (batch fetch included); returns its seconds."""
        start = time.perf_counter()
        images, labels = (next_batch or self.next_batch)()
        loss = self.trainer.train_batch(images, labels)
        elapsed = time.perf_counter() - start
        self.steps += 1
        self.losses.append(float(loss))
        return elapsed


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def record_gemms(prof: LayerProfiler, records: Dict[tuple, tuple]) -> None:
    """Keep the first operands of every distinct GEMM shape in
    ``records`` while ``prof`` is patched (class-level wrap, so the conv
    path choice is unchanged)."""
    def recording(original):
        def call(gemm, a, b, *args, **kwargs):
            key = (np.shape(a), np.shape(b))
            if key not in records:
                records[key] = (np.array(a, np.float64),
                                np.array(b, np.float64))
            return original(gemm, a, b, *args, **kwargs)
        return call

    for cls in (QuantizedGemm, ParallelQuantizedGemm):
        prof.patch(cls, "__call__", wrap=recording)


def _as_2d(a: np.ndarray, b: np.ndarray):
    if a.ndim == 3:
        return a[0], b[0]
    return a, b


def check_against_reference(records: Dict[tuple, tuple], seed: int) -> int:
    """Every recorded shape through ``matmul`` equals ``reference_matmul``
    bit for bit at the same seed; returns the number checked."""
    if not records:
        raise GateFailure("no GEMM was recorded")
    for (a_shape, b_shape), (a, b) in sorted(records.items()):
        a2, b2 = _as_2d(a, b)
        fast = matmul(a2, b2, GemmConfig.sr(RBITS, seed=seed))
        ref = reference_matmul(a2, b2, GemmConfig.sr(RBITS, seed=seed))
        if fast.tobytes() != ref.tobytes():
            raise GateFailure(
                f"matmul diverged from reference_matmul on {a_shape} x "
                f"{b_shape}")
    return len(records)


def check_rtl_slice(records: Dict[tuple, tuple], seed: int,
                    rows: int = 4, cols: int = 4) -> int:
    """A corner of the deepest recorded GEMM (reduction depth at most
    256) through the vectorized eager-SR datapath equals a grid of
    scalar ``MACUnit`` chains seeded with the same LFSR lanes."""
    from repro.fp.formats import FP12_E6M5
    from repro.prng.streams import LFSRStream
    from repro.rtl.mac import MACConfig, MACUnit

    candidates = [rec for rec in records.values()
                  if _as_2d(*rec)[0].shape[1] <= 256]
    if not candidates:
        raise GateFailure("no recorded GEMM is shallow enough to replay")
    a, b = _as_2d(*max(candidates, key=lambda rec: _as_2d(*rec)[0].shape[1]))
    a, b = a[:rows], b[:, :cols]
    m, n = a.shape[0], b.shape[1]
    config = GemmConfig.sr(RBITS, seed=seed, accum_order="rtl_eager")
    a, b = cast_inputs(a, b, config)
    lanes = LFSRStream(lanes=m * n, seed=seed)
    states = LFSRStream(lanes=m * n, seed=seed).lane_states(RBITS)
    from dataclasses import replace
    vec = matmul(a, b, replace(config, stream=lanes), cast=False)
    mac_cfg = MACConfig(FP12_E6M5.exponent_bits, FP12_E6M5.mantissa_bits,
                        "sr_eager", True, RBITS)
    scalar = np.empty((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            mac = MACUnit(mac_cfg, seed=None)
            mac.lfsr.state = int(states[i * n + j])
            scalar[i, j] = mac.dot(a[i], b[:, j])
    if scalar.tobytes() != vec.tobytes():
        raise GateFailure("vectorized RTL GEMM diverged from the scalar "
                          "MACUnit chains")
    return m * n


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _setup(spec: TrainSpec, seed: int):
    """Build a run and make its warm-up step, recording GEMM operands
    for the gate; returns (run, seconds, records)."""
    start = time.perf_counter()
    run = TrainRun(spec, seed)
    records: Dict[tuple, tuple] = {}
    with LayerProfiler() as prof:
        record_gemms(prof, records)
        run.step()
    return run, time.perf_counter() - start, records


def _timed_steps(run: TrainRun, seconds: float, min_steps: int,
                 next_batch: Optional[Callable] = None):
    """Steps for ``seconds``, and at least until the run has made
    ``min_steps``; returns their seconds as measured and as scaled to
    the reference host, and the :class:`HostSpeed` that scaled them."""
    raw, scaled = [], []
    speed = HostSpeed()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or run.steps < min_steps:
        raw.append(run.step(next_batch))
        scaled.append(raw[-1] * speed.factor())
    return raw, scaled, speed


def _gate(spec: TrainSpec, seed: int, records) -> dict:
    checked = check_against_reference(records, seed)
    out = {"reference_shapes_checked": checked}
    if spec.accum_order.startswith("rtl"):
        out["macunit_outputs_checked"] = check_rtl_slice(records, seed)
    return out


def run_train(spec: TrainSpec, seed: int, seconds: float,
              trace: bool) -> Result:
    """One run of a training workload (see module docstring)."""
    if trace:
        return _run_traced(spec, seed, seconds)
    setup_raw, setup_times = [], []
    for _ in range(SETUPS):
        speed = HostSpeed()
        run, elapsed, records = _setup(spec, seed)
        setup_raw.append(elapsed)
        setup_times.append(elapsed * speed.factor())
    raw, times, speed = _timed_steps(run, seconds, spec.loss_steps)
    details = _gate(spec, seed, records)
    step = median(times)
    # A run makes 10-25 steps, too few for a percentile with ten samples
    # beyond it to lie above the median.  The tail is the nearest-rank
    # 90th percentile (the second or third slowest step): the slowest
    # step alone moved 6-16% between runs, set by single host stalls.
    tail_s = sorted(times)[math.ceil(0.9 * len(times)) - 1]
    metrics = {
        "setup_s": median(setup_times),
        "samples_per_s": spec.batch / step,
        "loss_final": float(np.mean(
            run.losses[spec.loss_from - 1:spec.loss_steps])),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0,
        "max_ok_rps": 1.0 / tail_s,
    }
    for level in ("low", "mid", "high"):
        metrics[f"latency_p50_ms.{level}"] = 1000.0 * step
        metrics[f"latency_tail_ms.{level}"] = 1000.0 * tail_s
    details.update(setup_s=setup_raw, step_s=raw,
                   host_factor=speed.factors, batch=spec.batch,
                   loss_steps=[spec.loss_from, spec.loss_steps],
                   steps=run.steps)
    return Result(attempted=run.steps + (SETUPS - 1), failed=0,
                  metrics=metrics, details=details)


def _macs(snapshot: dict) -> int:
    """Σ b·m·k·n over the GEMM's per-shape call counters."""
    total = 0
    for key, count in snapshot["counters"].items():
        match = re.search(r'shape="(\d+)x(\d+)x(\d+)x(\d+)"', key)
        if key.startswith("gemm_shape_calls_total") and match:
            b, m, k, n = (int(v) for v in match.groups())
            total += count * b * m * k * n
    return total


def _run_traced(spec: TrainSpec, seed: int, seconds: float) -> Result:
    """Untraced steps, then the same number of steps traced on a fresh
    identical run; the two must end on the same parameter digest."""
    plain, _, records = _setup(spec, seed)
    _, plain_times, _ = _timed_steps(plain, seconds / 2, 3)
    steps = len(plain_times)

    traced, _, _ = _setup(spec, seed)
    before = traced.gemm.metrics.snapshot()
    skipped0 = traced.trainer.scaler.skipped_steps
    prof = LayerProfiler()
    recorder = CountingRecorder(keep=PHASES)
    next_batch = prof.timed("data.batch", traced.next_batch)
    instrument_datapath(prof)
    obs_trace.install(recorder)
    try:
        traced_raw, traced_times, _ = _timed_steps(traced, 0.0, plain.steps,
                                                   next_batch)
    finally:
        obs_trace.uninstall()
        prof.restore()
    after = traced.gemm.metrics.snapshot()

    if state_digest(plain.model) != state_digest(traced.model) \
            or plain.losses != traced.losses:
        raise GateFailure("traced run diverged from the untraced run")
    details = _gate(spec, seed, records)

    stats = prof.stats
    spans = recorder.span_totals()
    calls = counter_delta(before, after, "gemm_calls_total")
    overflows = counter_delta(before, after, "gemm_overflows_total")
    macs = _macs(after) - _macs(before)
    rounds = counter_delta(before, after, "gemm_sr_rounds_total")
    gemm_s = stats["emu.gemm"].total + stats["emu.parallel"].total
    fused = stats["fp.quantize"].elems
    layer_self = prof.layer_self()
    # Step time inside a named layer boundary: the wrapped entry points
    # and the trainer's phase spans.  Time in none of them (an unwrapped
    # hot path outside the phases, the trainer's own bookkeeping) is
    # unattributed.
    attributed = prof.covered(recorder.kept)
    per = 1.0 / steps

    metrics = per_layer_defaults()
    metrics.update({
        "data.batch_s": stats["data.batch"].total * per,
        "nn.forward_s": spans.get("train/forward", 0.0) * per,
        "nn.backward_s": spans.get("train/backward", 0.0) * per,
        "nn.update_s": spans.get("train/update", 0.0) * per,
        "nn.conv2d_self_s": stats["nn.conv2d"].self_time * per,
        "nn.linear_self_s": stats["nn.linear"].self_time * per,
        "nn.attention_self_s": stats["nn.attention"].self_time * per,
        "nn.applied_step_ratio": 1.0 - ratio(
            traced.trainer.scaler.skipped_steps - skipped0, steps),
        "emu.gemm_calls": calls * per,
        "emu.macs": macs * per,
        "emu.gemm_s": gemm_s * per,
        "emu.macs_per_s": ratio(macs, gemm_s),
        "emu.cast_s": stats["emu.cast"].total * per,
        "emu.reduce_s": stats["emu.reduce"].total * per,
        "emu.overflow_ratio": ratio(overflows, calls),
        "emu.parallel.overhead_s": stats["emu.parallel"].overhead * per,
        "fp.quantize_calls": stats["fp.quantize"].calls * per,
        "fp.quantize_s": stats["fp.quantize"].total * per,
        "fp.fused_ratio": ratio(fused, fused + stats["fp.general"].elems),
        "prng.draws": stats["prng.draws"].elems * per,
        "prng.draw_s": stats["prng.draws"].total * per,
        "rtl.add_calls": stats["rtl.add"].calls * per,
        "rtl.add_s": stats["rtl.add"].total * per,
        "trace.overhead_frac": median(traced_times) / median(plain_times)
        - 1.0,
        "trace.dropped_spans": recorder.dropped(),
        "trace.attributed_frac": ratio(attributed, sum(traced_raw)),
    })
    details.update(steps=steps, untraced_step_s=plain_times,
                   traced_step_s=traced_times, layer_self_s=layer_self,
                   unattributed_s=sum(traced_raw) - attributed,
                   # phase time outside every wrapped entry point: where
                   # an unwrapped hot path inside a phase would show
                   nn_phase_self_s=(attributed - prof.covered()) * per,
                   gemm_sr_rounds_per_step=rounds * per,
                   spans_recorded=recorder.recorded)
    return Result(attempted=2 * (steps + 1), failed=0, metrics=metrics,
                  details=details)
