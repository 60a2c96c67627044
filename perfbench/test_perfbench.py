"""The benchmark's own tests: a reduced-size smoke of every workload.

Run from the repository root (not part of the tier-1 suite, which
collects ``tests/`` only)::

    python -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

import run as bench
from common import END_TO_END, LATENCY_LIMIT_MS, PER_LAYER, GateFailure
from profiler import CLOCK, LayerProfiler

HERE = os.path.dirname(os.path.abspath(__file__))

TRAIN = ("train-cnn-sr", "train-tf-sr", "train-cnn-rtl")
SEED = 5
#: Train smokes run a fixed step count (seconds=0 never adds steps), so
#: their counts must repeat exactly; serve smokes need a little traffic.
SECONDS = {name: 0.0 for name in TRAIN}
SECONDS["serve-pool"] = 1.2
COUNTS = ("emu.gemm_calls", "emu.macs", "prng.draws")


def _run(name, trace, **kwargs):
    return bench.run_workload(name, SEED, SECONDS[name], trace, smoke=True,
                              **kwargs)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_end_to_end_metrics_are_named_with_units(name):
    line = _run(name, False).line(END_TO_END)
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == list(END_TO_END)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == END_TO_END[metric]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_counts_repeat_and_nothing_is_dropped(name):
    first = _run(name, True)
    second = _run(name, True)
    line = first.line(PER_LAYER)
    assert list(line["metrics"]) == list(PER_LAYER)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == PER_LAYER[metric]
    for metric in COUNTS:
        assert first.metrics[metric] > 0
        assert first.metrics[metric] == second.metrics[metric], metric
    assert first.metrics["trace.dropped_spans"] == 0
    attributed = first.metrics["trace.attributed_frac"]
    assert 0.0 < attributed <= 1.0
    if name in TRAIN:
        assert attributed >= 0.95


def test_time_outside_every_wrapped_entry_point_is_unattributed():
    def wrapped():
        time.sleep(0.02)

    def unwrapped():
        time.sleep(0.06)

    layer = types.SimpleNamespace(work=wrapped)
    with LayerProfiler() as prof:
        prof.patch(layer, "work", "emu.work")
        start = CLOCK()
        layer.work()
        unwrapped()
        layer.work()
        elapsed = CLOCK() - start
        # A span covering the unwrapped call closes the gap.
        covered_with_span = prof.covered([(start, CLOCK())])
    assert prof.covered() / elapsed < 0.5
    assert covered_with_span >= elapsed


def test_rtl_workload_runs_the_adder_and_not_the_fused_kernel():
    metrics = _run("train-cnn-rtl", True).metrics
    assert metrics["rtl.add_calls"] > 0
    assert metrics["fp.quantize_calls"] == 0


def test_sr_draws_match_the_gemm_round_counter():
    result = _run("train-cnn-sr", True)
    assert result.metrics["prng.draws"] == \
        result.details["gemm_sr_rounds_per_step"]


def test_malformed_request_counts_as_failed():
    result = _run("serve-pool", False, malformed=1)
    assert result.failed == 1
    assert result.metrics["ok_frac"] == pytest.approx(
        1.0 - result.failed / result.attempted)
    # A failed request misses every latency limit.
    assert result.metrics["latency_tail_ms.low"] > LATENCY_LIMIT_MS


def test_gate_failure_prints_no_metrics(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise GateFailure("injected")

    monkeypatch.setattr(bench, "run_workload", failing)
    code = bench.main(["--workload", "train-cnn-sr", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_exits_nonzero_without_the_repository_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
