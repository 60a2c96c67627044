"""The serve-pool workload: open-loop load on a 2-replica ReplicaPool.

A seeded SimpleCNN (width 4, 8 px, SR r=9 — bench_pool's model) is
saved with ``save_checkpoint`` and served by ``ReplicaPool`` (fork,
default micro-batcher, response cache on).  Requests come from at most
``os.cpu_count()`` sender threads on a seeded schedule at the fixed
rates of :data:`common.RATES`: mostly fresh images, plus a seeded ~25%
share re-sending a small hot set so the replica caches serve some of
them.  Each request's latency is timed from the moment it was due, so a
stall also charges the requests queued behind it, and is scaled to the
reference host speed by the probes around its block.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data import make_cifar10_like
from repro.emu import GemmConfig
from repro.models import SimpleCNN, simple_cnn_spec
from repro.nn import save_checkpoint
from repro.obs import merge_snapshots
from repro.obs import trace as obs_trace
from repro.serve import InferenceSession, ReplicaPool
from repro.serve import pool as pool_module
from repro.serve.pool import response_bytes

from common import (LATE_BOUND_MS, LATENCY_LIMIT_MS, RATES, SERVE_SETUPS,
                    GateFailure, HostSpeed, Result, counter_delta, median,
                    per_layer_defaults, peak_rss_mb, ratio, tail,
                    windowed_tail)
from profiler import CountingRecorder, LayerProfiler, instrument_datapath

RBITS = 9
MODEL_SEED = 1
SR_SEED = 3
REPLICAS = 2
IMAGE = (3, 8, 8)
#: Seconds a routed request may take before it counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Seconds at the start of each phase whose requests are not timed.
LEAD_IN_S = 0.5
#: Times the open-loop phase cycles through the fixed rates.
CYCLES = 4
#: In-process single-input predictions timed for ``serve.session_ms``.
SESSION_PROBES = 40
#: Images re-sent by the hot share of the requests, and that share.
HOT_SET = 8
HOT_SHARE = 0.25
#: Share of ``--seconds`` given to the closed-loop capacity phase that
#: measures ``samples_per_s``; the fixed rates split the rest.
CAPACITY_SHARE = 0.3
#: Requests scheduled per second of the capacity phase: well above what
#: the capped senders complete (about 220 req/s on a 2-vCPU VM), so the
#: phase ends on its clock rather than on an empty schedule.
CAPACITY_MAX_RPS = 400.0
#: Blocks the capacity phase is cut into, with a host-speed probe
#: between them: the host's speed moves within a second or two.
CAPACITY_BLOCKS = 6
SHM_GLOB = "/dev/shm/reproshm*"


@dataclass
class Phase:
    """One stretch of the schedule: open loop on seeded due times, or a
    closed loop for ``seconds``."""

    name: str
    closed: bool
    seconds: float
    offsets: np.ndarray          # due times, seconds from phase start
    labels: np.ndarray           # rate name per request
    blocks: np.ndarray           # block index per request
    spans: List[Tuple[float, float]]  # (start, end) offset per block
    inputs: np.ndarray           # input index per request
    hot: np.ndarray              # bool per request


@dataclass
class PhaseResult:
    phase: Phase
    latency: List[float]         # seconds from due to answer
    failed: List[bool]           # latency is then the request timeout
    late: List[Optional[float]]  # send minus due if the sender was idle
    done: List[Optional[float]]  # answer time, seconds from phase start
    answers: Dict[int, List[bytes]]
    failures: List[str]
    wall: float


class Inputs:
    """Seeded images: a hot set, a warm-up image, and fresh images
    handed out in schedule order; labels come along for the loss."""

    def __init__(self, seed: int, fresh: int):
        dataset = make_cifar10_like(max(1, fresh), HOT_SET + 1, 8,
                                    seed=seed)
        self.images = np.concatenate([dataset.test_images,
                                      dataset.train_images])
        self.labels = np.concatenate([dataset.test_labels,
                                      dataset.train_labels])
        self.hot = list(range(HOT_SET))
        self.warm = HOT_SET
        self.next_fresh = HOT_SET + 1


def interleaved(seconds: float) -> List[Tuple[str, float, float]]:
    """Blocks cycling through every fixed rate :data:`CYCLES` times over
    ``seconds``.  A slow stretch of a shared machine then falls on a
    part of every rate, not on the whole of one."""
    block = seconds / (CYCLES * len(RATES))
    return [(name, rate, block) for _ in range(CYCLES)
            for name, rate in RATES.items()]


def _hot_flags(rng: np.random.Generator, count: int) -> np.ndarray:
    """Exactly :data:`HOT_SHARE` of ``count`` requests, at seeded
    positions, are hot (cache hits are fast, so a share that varied by
    seed would move the median)."""
    flags = np.zeros(count, dtype=bool)
    flags[rng.permutation(count)[:int(round(HOT_SHARE * count))]] = True
    return flags


def _schedule(rng: np.random.Generator, blocks) -> tuple:
    """(due offsets, rate labels, block indices, block spans, hot flags)
    of open-loop ``blocks`` run back to back.  A block of rate ``r`` has
    one arrival per ``1/r`` slot, at a seeded position inside the middle
    half of the slot: a steady rate without bursts the capped sender
    pool would queue."""
    offsets, labels, index, spans, hot = [], [], [], [], []
    start = 0.0
    for block, (label, rate, seconds) in enumerate(blocks):
        count = max(1, int(round(rate * seconds)))
        slots = np.arange(count, dtype=np.float64)
        offsets.append(start + (slots + rng.uniform(0.25, 0.75,
                                                    size=count)) / rate)
        labels.append(np.full(count, label))
        index.append(np.full(count, block))
        spans.append((start, start + count / rate))
        hot.append(_hot_flags(rng, count))
        start += count / rate
    return (np.concatenate(offsets), np.concatenate(labels),
            np.concatenate(index), spans, np.concatenate(hot))


def make_phases(seed: int, plan) -> Tuple[Inputs, List[Phase]]:
    """The seeded inputs and phases of ``plan``: per phase, its name and
    either a list of open-loop ``(rate name, rate, seconds)`` blocks or
    the seconds of a closed loop, which gets :data:`CAPACITY_MAX_RPS`
    worth of requests, cut into :data:`CAPACITY_BLOCKS` blocks whose
    requests are all due at the block's start."""
    raw = []
    for index, (name, blocks) in enumerate(plan):
        rng = np.random.default_rng([seed, index])
        closed = not isinstance(blocks, list)
        if closed:
            seconds = float(blocks)
            count = max(1, int(round(CAPACITY_MAX_RPS * seconds)))
            edges = np.linspace(0.0, seconds, CAPACITY_BLOCKS + 1)
            index = np.arange(count) * CAPACITY_BLOCKS // count
            offsets = edges[index]
            labels = np.full(count, name)
            spans = list(zip(edges[:-1], edges[1:]))
            hot = _hot_flags(rng, count)
        else:
            seconds = sum(block[2] for block in blocks)
            offsets, labels, index, spans, hot = _schedule(rng, blocks)
        hot_pick = rng.integers(0, HOT_SET, size=len(offsets))
        raw.append((name, closed, seconds, offsets, labels, index, spans,
                    hot, hot_pick))
    inputs = Inputs(seed, sum(int((~r[-2]).sum()) for r in raw))
    phases = []
    for (name, closed, seconds, offsets, labels, index, spans, hot,
         hot_pick) in raw:
        idx = np.empty(len(offsets), dtype=np.int64)
        for i in range(len(offsets)):
            if hot[i]:
                idx[i] = inputs.hot[hot_pick[i]]
            else:
                idx[i] = inputs.next_fresh
                inputs.next_fresh += 1
        phases.append(Phase(name, closed, seconds, offsets, labels, index,
                            spans, idx, hot))
    return inputs, phases


def make_checkpoint(directory: str) -> str:
    """bench_pool's served model.  Its weights and SR seed stay fixed so
    the workload seed varies only the traffic: a seeded model would
    move ``loss_final`` by ~10% from seed to seed."""
    model = SimpleCNN(10, IMAGE[0], 4, seed=MODEL_SEED)
    spec = simple_cnn_spec(num_classes=10, in_channels=IMAGE[0], width=4,
                           image_size=IMAGE[1], seed=MODEL_SEED)
    path = os.path.join(directory, "serve.npz")
    save_checkpoint(model, path, model_spec=spec,
                    gemm_config=GemmConfig.sr(RBITS, seed=SR_SEED))
    return path


def drive(pool, phase: Phase, images: np.ndarray, senders: int,
          malformed: int = 0) -> PhaseResult:
    """Send ``phase`` from ``senders`` threads: open loop on its
    schedule, or, for a closed-loop phase, each sender's next request as
    soon as its last one is answered until ``phase.seconds`` are over.

    The first ``malformed`` requests carry a wrong-shaped input (used by
    the benchmark's own tests to prove failures are counted).
    """
    n = len(phase.offsets)
    latency = [REQUEST_TIMEOUT_S] * n
    failed = [False] * n
    late: List[Optional[float]] = [None] * n
    finished: List[Optional[float]] = [None] * n
    answers: Dict[int, List[bytes]] = {}
    failures: List[str] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.02
    stop = start + phase.seconds if phase.closed else float("inf")

    def sender():
        while True:
            with lock:
                if cursor[0] >= n or time.perf_counter() >= stop:
                    return
                i = cursor[0]
                cursor[0] += 1
            due = max(start, time.perf_counter()) if phase.closed \
                else start + float(phase.offsets[i])
            picked = time.perf_counter()
            while True:
                wait = due - time.perf_counter()
                if wait <= 0:
                    break
                time.sleep(wait)
            sent = time.perf_counter()
            index = int(phase.inputs[i])
            payload = {"input": images[index][:, :, :-1]
                       if i < malformed else images[index]}
            try:
                body = pool.predict_json(payload)
            # reprolint: disable=HYG-EXCEPT  malformed input
            # (ValueError), ReplicaError, timeouts, non-200 answers and
            # anything else: the sender counts the failure and keeps the
            # schedule going
            except Exception as error:
                failed[i] = True
                with lock:
                    failures.append(f"{type(error).__name__}: {error}")
                continue
            done = time.perf_counter()
            latency[i] = done - due
            finished[i] = done - start
            if picked <= due:
                late[i] = sent - due
            with lock:
                answers.setdefault(index, []).append(response_bytes(body))

    threads = [threading.Thread(target=sender, name=f"sender-{k}")
               for k in range(max(1, senders))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    sent = cursor[0]
    return PhaseResult(phase, latency[:sent], failed[:sent], late[:sent],
                       finished[:sent], answers, failures, wall)


def drive_blocks(pool, phase: Phase, images: np.ndarray, senders: int,
                 speed: HostSpeed, malformed: int = 0) -> PhaseResult:
    """:func:`drive` one block of ``phase`` at a time, probing the host's
    speed between blocks while the pool is idle; each answered latency
    is scaled to the reference host by the probes around its block.
    ``done`` stays in phase time and unscaled: it is schedule time.  The
    result's phase keeps the requests sent (a closed-loop block ends on
    its clock), so it lines up with the per-request lists."""
    latency, failed, late, done, sent = [], [], [], [], []
    answers: Dict[int, List[bytes]] = {}
    failures: List[str] = []
    wall = 0.0
    for block, (start, end) in enumerate(phase.spans):
        mine = phase.blocks == block
        part = drive(pool, Phase(phase.name, phase.closed, end - start,
                                 phase.offsets[mine] - start,
                                 phase.labels[mine],
                                 np.zeros(int(mine.sum()), dtype=np.int64),
                                 [(0.0, end - start)], phase.inputs[mine],
                                 phase.hot[mine]),
                     images, senders, malformed if block == 0 else 0)
        factor = speed.factor()
        sent.append(np.flatnonzero(mine)[:len(part.latency)])
        latency += [v if lost else v * factor
                    for v, lost in zip(part.latency, part.failed)]
        failed += part.failed
        late += part.late
        done += [None if d is None else d + start for d in part.done]
        for index, got in part.answers.items():
            answers.setdefault(index, []).extend(got)
        failures += part.failures
        wall += part.wall * factor
    sent = np.concatenate(sent)
    phase = Phase(phase.name, phase.closed, phase.seconds,
                  phase.offsets[sent], phase.labels[sent],
                  phase.blocks[sent], phase.spans, phase.inputs[sent],
                  phase.hot[sent])
    return PhaseResult(phase, latency, failed, late, done, answers,
                       failures, wall)


def rate_summary(result: PhaseResult, label: str) -> dict:
    """Latency statistics of the requests of one fixed rate.

    Requests due in the phase's first :data:`LEAD_IN_S` are sent and
    checked but not timed, unless they failed: they pay for the sender
    threads starting.  A failed request counts as answering after the
    request timeout, so it misses every latency limit.
    ``answered_per_s`` is the rate the pool sustained: answered requests
    over the time from each of the rate's blocks starting to its last
    answer (or the block's end, if later)."""
    phase = result.phase
    sent = len(result.latency)
    mine = phase.labels[:sent] == label
    failed = np.asarray(result.failed, dtype=bool)
    counted = mine & ((phase.offsets[:sent] >= min(LEAD_IN_S,
                                                   phase.offsets[-1]))
                      | failed)
    lat_ms = [1000.0 * v for v, c in zip(result.latency, counted) if c]
    late_ms = [1000.0 * v for v, c in zip(result.late, counted)
               if c and v is not None]
    tail_ms, tail_pct, windows = windowed_tail(lat_ms)
    tenth = max(1, len(lat_ms) // 10)
    last_p50 = median(lat_ms[-tenth:])
    late_tail = tail(late_ms)[0] if late_ms else 0.0
    lost = int((mine & failed).sum())
    ok = (not lost and tail_ms <= LATENCY_LIMIT_MS
          and last_p50 <= LATENCY_LIMIT_MS)
    busy = 0.0
    for block in np.unique(phase.blocks[:sent][mine]):
        start, end = phase.spans[block]
        ends = [d for d, b in zip(result.done, phase.blocks[:sent])
                if b == block and d is not None]
        busy += max([end] + ends) - start
    return {
        "rate": RATES[label],
        "requests": int(mine.sum()),
        "failed": lost,
        "hot_share": float(np.mean(phase.hot[:sent][mine])),
        "p50_ms": median(lat_ms),
        "tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "tail_windows": windows,
        "samples": len(lat_ms),
        "last_tenth_p50_ms": last_p50,
        "late_ms_tail": late_tail,
        "late_samples": len(late_ms),
        "generator_ok": late_tail <= LATE_BOUND_MS,
        "meets_limit": ok,
        "answered_per_s": (int(mine.sum()) - lost) / busy,
    }


def _session_answers(session, inputs: Inputs, indices) -> Dict[int, bytes]:
    order = sorted(indices)
    out = {}
    for k in range(0, len(order), 64):
        chunk = order[k:k + 64]
        logits = session.predict_batch([inputs.images[i] for i in chunk])
        for i, row in zip(chunk, logits):
            out[i] = np.asarray(row, dtype=np.float64).tobytes()
    return out


def check_answers(results: List[PhaseResult],
                  expected: Dict[int, bytes]) -> int:
    """Every pooled answer equals the in-process session's bytes."""
    checked = 0
    for result in results:
        for index, got in result.answers.items():
            for body in got:
                if body != expected[index]:
                    raise GateFailure(
                        f"pooled answer for input {index} differs from "
                        "the in-process InferenceSession")
                checked += 1
    return checked


def _loss(expected: Dict[int, bytes], inputs: Inputs, indices) -> float:
    """Mean cross-entropy of the served logits on their labels."""
    losses = []
    for i in sorted(indices):
        logits = np.frombuffer(expected[i], dtype=np.float64)
        shifted = logits - logits.max()
        log_z = np.log(np.exp(shifted).sum())
        losses.append(float(log_z - shifted[inputs.labels[i]]))
    return float(np.mean(losses))


def _pool_snapshot(pool) -> Tuple[dict, dict]:
    replicas = merge_snapshots([s for s in pool.replica_metrics()
                                if s is not None])
    return pool.registry.snapshot(), replicas


def _hist(snap: dict, name: str) -> Tuple[int, float]:
    entry = snap["histograms"].get(name, {"count": 0, "sum": 0.0})
    return entry["count"], entry["sum"]


def _mean_delta(before: dict, after: dict, name: str) -> float:
    c0, s0 = _hist(before, name)
    c1, s1 = _hist(after, name)
    return ratio(s1 - s0, c1 - c0)


class _Setup:
    """Inputs, checkpoint and a warmed pool (one set-up as users pay it);
    ``seconds`` is its time scaled to the reference host."""

    def __init__(self, seed: int, workdir: str, plan):
        speed = HostSpeed()
        start = time.perf_counter()
        self.inputs, self.phases = make_phases(seed, plan)
        self.checkpoint = make_checkpoint(workdir)
        self.pool = ReplicaPool(self.checkpoint, replicas=REPLICAS,
                                start_method="fork",
                                request_timeout=REQUEST_TIMEOUT_S)
        try:
            self.pool.predict_json(
                {"input": self.inputs.images[self.inputs.warm]})
        except BaseException:
            self.pool.close()
            raise
        self.raw_seconds = time.perf_counter() - start
        self.seconds = self.raw_seconds * speed.factor()


def run_serve(seed: int, seconds: float, trace: bool, workdir: str, *,
              malformed: int = 0) -> Result:
    """One run of serve-pool; ``workdir`` holds the checkpoint.

    Untraced: the three fixed rates interleaved, then the closed-loop
    capacity phase.  Traced: the three rates interleaved, then ``mid``
    again with the parent traced.
    """
    os.makedirs(workdir, exist_ok=True)
    shm_before = set(glob.glob(SHM_GLOB))
    senders = max(1, os.cpu_count() or 1)
    if trace:
        plan = [("rates", interleaved(0.75 * seconds)),
                ("traced", [("mid", RATES["mid"], 0.25 * seconds)])]
    else:
        plan = [("rates", interleaved((1.0 - CAPACITY_SHARE) * seconds)),
                ("capacity", CAPACITY_SHARE * seconds)]
    setups: List[_Setup] = []
    try:
        for _ in range(1 if trace else SERVE_SETUPS):
            if setups:
                setups[-1].pool.close()
            setups.append(_Setup(seed, workdir, plan))
        setup = setups[-1]
        pool, inputs = setup.pool, setup.inputs
        session = InferenceSession.from_checkpoint(setup.checkpoint)
        speed = HostSpeed()
        rates = drive_blocks(pool, setup.phases[0], inputs.images, senders,
                             speed, malformed)
        traced_part = None
        if trace:
            traced_part = _traced_phase(pool, setup.phases[1], inputs,
                                        senders, speed)
            extra = traced_part[0]
        else:
            extra = drive_blocks(pool, setup.phases[1], inputs.images,
                                 senders, speed)
        results_all = [rates, extra]
        stats = pool.stats()
    finally:
        for item in setups:
            item.pool.close()
        shutil.rmtree(workdir, ignore_errors=True)
    leftover = set(glob.glob(SHM_GLOB)) - shm_before
    if leftover:
        raise GateFailure(f"shared-memory segments left behind: "
                          f"{sorted(leftover)}")

    used = {i for r in results_all for i in r.answers}
    fresh_used = {int(i) for i, hot in zip(rates.phase.inputs,
                                           rates.phase.hot) if not hot}
    expected = _session_answers(session, inputs, used | fresh_used)
    checked = check_answers(results_all, expected)

    summaries = {name: rate_summary(rates, name) for name in RATES}
    attempted = sum(len(r.latency) for r in results_all) + len(setups)
    failed = sum(len(r.failures) for r in results_all)
    late_flag = [name for name, s in summaries.items()
                 if not s["generator_ok"]]
    if late_flag:
        print(f"perfbench: load generator ran late at {late_flag} "
              f"(tail beyond {LATE_BOUND_MS} ms): those rates measured the "
              "sender, not the pool", file=sys.stderr)
    details = {"rates": summaries, "answers_checked": checked,
               "senders": senders,
               "setup_s": [s.raw_seconds for s in setups],
               "host_factor": speed.factors,
               "pool_stats": {"cache": stats["cache"],
                              "batcher": stats["batcher"],
                              "restarts": stats["restarts"]},
               "generator_flagged": late_flag}

    if trace:
        metrics = _traced_metrics(traced_part, summaries, session, inputs,
                                  details)
        return Result(attempted, failed, metrics, details)

    capacity = {"requests": len(extra.latency),
                "failed": len(extra.failures),
                "hot_share": float(np.mean(extra.phase.hot[
                    :len(extra.latency)])),
                "wall_s": extra.wall,
                "answered_per_s": (len(extra.latency)
                                   - len(extra.failures)) / extra.wall}
    details["capacity"] = capacity
    # The highest fixed rate meeting the limit, reported as the rate it
    # was measured to sustain (answered requests per second).
    passing = [s for s in summaries.values() if s["meets_limit"]]
    best = max(passing, key=lambda s: s["rate"]) if passing else None
    metrics = {
        "setup_s": median([s.seconds for s in setups]),
        "samples_per_s": capacity["answered_per_s"],
        "loss_final": _loss(expected, inputs, fresh_used),
        "peak_rss_mb": peak_rss_mb(children=True),
        "ok_frac": 1.0 - ratio(failed, attempted),
        "max_ok_rps": best["answered_per_s"] if best else 0.0,
    }
    for name, summary in summaries.items():
        metrics[f"latency_p50_ms.{name}"] = summary["p50_ms"]
        metrics[f"latency_tail_ms.{name}"] = summary["tail_ms"]
    return Result(attempted, failed, metrics, details)


def _traced_phase(pool, phase: Phase, inputs: Inputs, senders: int,
                  speed: HostSpeed):
    """The mid rate again, on fresh inputs, with the parent traced and
    its request keying timed on the sender threads."""
    before = _pool_snapshot(pool)
    restarts0 = pool.stats()["restarts"]
    recorder = CountingRecorder()
    keys = LayerProfiler()
    for attr in ("validate_payload", "request_content_key"):
        keys.patch(pool_module, attr, "serve.key", any_thread=True)
    obs_trace.install(recorder)
    try:
        with keys:
            result = drive_blocks(pool, phase, inputs.images, senders,
                                  speed)
    finally:
        obs_trace.uninstall()
    after = _pool_snapshot(pool)
    restarts = pool.stats()["restarts"] - restarts0
    return result, before, after, recorder, keys.stats["serve.key"], \
        restarts


def _traced_metrics(traced_part, summaries, session, inputs: Inputs,
                    details: dict) -> Dict[str, float]:
    result, before, after, recorder, keys, restarts = traced_part
    (router0, rep0), (router1, rep1) = before, after
    requests = len(result.latency)
    route_ms = _mean_delta(router0, router1, "router_latency_ms")
    replica_ms = _mean_delta(rep0, rep1, "request_latency_ms")
    hits = counter_delta(rep0, rep1, "cache_hits_total")
    misses = counter_delta(rep0, rep1, "cache_misses_total")
    batches = counter_delta(rep0, rep1, "batcher_batches_total")
    samples = counter_delta(rep0, rep1, "batcher_samples_total")
    errors = counter_delta(rep0, rep1, "errors_total")

    # In-process session on the same checkpoint: untraced probes time
    # serve.session_ms, traced probes attribute the request to layers
    # and must answer the same bytes.
    probes = SESSION_PROBES
    probe_inputs = [inputs.images[inputs.next_fresh - 1 - k]
                    for k in range(probes)]
    plain_times, plain_bytes = [], []
    for x in probe_inputs:
        t0 = time.perf_counter()
        out = session.predict_batch([x])[0]
        plain_times.append(time.perf_counter() - t0)
        plain_bytes.append(out.tobytes())
    prof = LayerProfiler()
    instrument_datapath(prof)
    calls0 = session.metrics.snapshot()
    traced_times = []
    try:
        for x, expect in zip(probe_inputs, plain_bytes):
            t0 = time.perf_counter()
            out = session.predict_batch([x])[0]
            traced_times.append(time.perf_counter() - t0)
            if out.tobytes() != expect:
                raise GateFailure("traced in-process answer differs from "
                                  "the untraced one")
    finally:
        prof.restore()
    calls1 = session.metrics.snapshot()
    stats = prof.stats
    per = 1.0 / probes
    gemm_calls = counter_delta(calls0, calls1, "gemm_calls_total")
    overflows = counter_delta(calls0, calls1, "gemm_overflows_total")
    macs = stats["emu.parallel"].elems
    gemm_s = stats["emu.parallel"].total
    fused = stats["fp.quantize"].elems
    layer_self = prof.layer_self()
    # Request time inside a wrapped nn/emu/fp/prng entry point; the
    # session's own work around the model (keying, stream spawning,
    # unwrapped layers, copies) is unattributed.
    attributed = prof.covered()
    untraced_mid = summaries["mid"]["p50_ms"]
    traced_mid = rate_summary(result, "mid")["p50_ms"]

    metrics = per_layer_defaults()
    metrics.update({
        "nn.conv2d_self_s": stats["nn.conv2d"].self_time * per,
        "nn.linear_self_s": stats["nn.linear"].self_time * per,
        "emu.gemm_calls": gemm_calls * per,
        "emu.macs": macs * per,
        "emu.gemm_s": gemm_s * per,
        "emu.macs_per_s": ratio(macs, gemm_s),
        "emu.cast_s": stats["emu.cast"].total * per,
        "emu.reduce_s": stats["emu.reduce"].total * per,
        "emu.overflow_ratio": ratio(overflows, gemm_calls),
        "emu.parallel.overhead_s": stats["emu.parallel"].overhead * per,
        "fp.quantize_calls": stats["fp.quantize"].calls * per,
        "fp.quantize_s": stats["fp.quantize"].total * per,
        "fp.fused_ratio": ratio(fused, fused + stats["fp.general"].elems),
        "prng.draws": stats["prng.draws"].elems * per,
        "prng.draw_s": stats["prng.draws"].total * per,
        "serve.route_ms": route_ms,
        "serve.replica_ms": replica_ms,
        "serve.ipc_ms": route_ms - replica_ms,
        "serve.key_us": 1e6 * ratio(keys.total, requests),
        "serve.session_ms": 1000.0 * median(plain_times),
        "serve.batcher.mean_batch": ratio(samples, batches),
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.errors": len(result.failures) + errors,
        "serve.restarts": restarts,
        "trace.overhead_frac": ratio(traced_mid, untraced_mid) - 1.0,
        "trace.dropped_spans": recorder.dropped(),
        "trace.attributed_frac": ratio(attributed, sum(traced_times)),
    })
    for name, summary in summaries.items():
        metrics[f"loadgen.late_ms_tail.{name}"] = summary["late_ms_tail"]
    details.update(traced_requests=requests,
                   traced_p50_ms=traced_mid,
                   session_probe_ms={"untraced": 1000.0 * median(plain_times),
                                     "traced": 1000.0 * median(traced_times)},
                   layer_self_s_per_request={k: v * per
                                             for k, v in layer_self.items()},
                   unattributed_s_per_request=(sum(traced_times)
                                               - attributed) * per,
                   spans_recorded=recorder.recorded)
    return metrics
