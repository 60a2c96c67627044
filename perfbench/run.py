"""The repository benchmark: one command, four workloads, gated by bits.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-cnn-sr --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` adds a traced run and prints the per-layer
metrics.  Every run first passes its correctness gate: a failed check
exits with status 2 and prints no metrics.  The last stdout line is the
result object; the line before it is the run's detail record (machine,
seed, raw samples, percentiles and sample counts).  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-cnn-sr", "train-tf-sr", "train-cnn-rtl", "serve-pool")
#: Scratch space inside the checkout (checkpoints of serve-pool).
WORKDIR = os.path.join(ROOT, ".perfbench")


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and the shared
    machine block from ``benchmarks``; fail when they are absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {src}")
    for path in (HERE, os.path.join(ROOT, "benchmarks"), src):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 smoke: bool = False, malformed: int = 0):
    """Run one workload; returns a :class:`common.Result`.

    ``smoke`` selects the reduced train sizes of the benchmark's own
    tests; ``malformed`` injects that many bad requests into serve-pool.
    """
    if name == "serve-pool":
        from serve_workload import run_serve

        workdir = os.path.join(WORKDIR, f"serve-{os.getpid()}")
        return run_serve(seed, seconds, trace, workdir, malformed=malformed)
    from train_workloads import SMOKE, SPECS, run_train

    spec = (SMOKE if smoke else SPECS)[name]
    return run_train(spec, seed, seconds, trace)


def stop_children() -> None:
    """Kill and reap every child process still attached to this one,
    then stop multiprocessing's resource tracker, which publishing a
    shared-memory segment starts and which outlives the pool: it ignores
    SIGTERM and exits when this process closes its pipe."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(p) for p in handle.read().split())
        except OSError:
            continue
    pids.discard(tracker._pid)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_repo_sources()

    from _machine import machine_info
    from common import END_TO_END, PER_LAYER, GateFailure

    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except GateFailure as error:
        print(f"perfbench: correctness gate failed: {error}",
              file=sys.stderr)
        return 2
    finally:
        stop_children()
    catalogue = PER_LAYER if args.trace else END_TO_END
    line = result.line(catalogue)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), "details": result.details}
    print(json.dumps(detail, default=float))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
