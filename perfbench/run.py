"""Benchmark of cyclosieve verdict sweeps on one workload.

    python3 perfbench/run.py --workload syt --seed 1 --seconds 20 --trace 0

The run spawns fresh worker processes one at a time (one closed-loop
client, no threads): a few that only import ``cyclosieve.cli``, to time
set-up, then one per sweep of the workload's op list, issued in the order
the seed fixes, for as many whole sweeps as fit in ``--seconds`` (at least
three).  Every op's exit code and output digest are checked against
``golden.json``.  Human-readable lines go to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 3  # import-only processes per run, besides one per sweep
MIN_SWEEPS = 3  # also fixes each workload's tail percentile (see end_to_end)
# Median time of worker.calibrate() on the machine this benchmark was written
# on (2-core Intel Xeon VM, Python 3.11.7).  End-to-end times are scaled to it.
CALIBRATION_REF_S = 1.8e-3
WORKER_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """A worker could not run its sweep."""


def spawn(ops, trace: bool = False) -> dict:
    """Run one worker process over ``ops`` and return its result."""
    request = json.dumps({"ops": ops, "trace": trace})
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER)], input=request, capture_output=True, text=True,
        cwd=CHECKOUT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    result["wall_s"] = time.monotonic() - started
    result["scale"] = CALIBRATION_REF_S / statistics.median(result["calibration"])
    return result


def failures(result: dict, golden: dict) -> list[str]:
    """Ops whose exit code or output digest differs from the golden record."""
    return [key for key, code, digest, _ in result["ops"] if golden.get(key) != [code, digest]]


def tail_percentile(n: int) -> int:
    """The highest whole percentile (>= 50) with at least ten of n samples beyond it."""
    return max((p for p in range(50, 100) if n - math.ceil(p * n / 100) >= 10), default=50)


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct * len(ordered) / 100), 1) - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sweep_schedule(trace: bool):
    """Yield (trace, reverse order) for each sweep; the first MIN_SWEEPS always run.

    A traced run interleaves untraced sweeps, to measure the tracing
    overhead, and issues its traced sweeps in both orders, so that counts
    which depend on the order show up as a mismatch.
    """
    if not trace:
        while True:
            yield False, False
    yield False, False
    while True:
        yield True, False
        yield True, True
        yield False, False


def run_sweeps(ops, seconds: float, trace: bool, golden: dict):
    """Sweep until the next sweep would end past ``seconds``; return results."""
    deadline = time.monotonic() + seconds
    probes = [spawn([]) for _ in range(SETUP_PROBES)]
    sweeps = []
    for traced, reverse in sweep_schedule(trace):
        predicted = statistics.median(s["wall_s"] for s in sweeps) if sweeps else 0.0
        if len(sweeps) >= MIN_SWEEPS and time.monotonic() + predicted > deadline:
            break
        result = spawn(ops[::-1] if reverse else ops, traced)
        result["failed"] = failures(result, golden)
        sweeps.append(result)
    return probes, sweeps


def end_to_end(probes, sweeps, ops_per_sweep: int) -> tuple[dict, str]:
    """Medians over the run's sweeps; latencies pooled over every op issued.

    Times are scaled by each worker's calibration to CALIBRATION_REF_S.  A
    sweep's time is the sum of its op latencies.  The tail percentile is set
    from MIN_SWEEPS sweeps, so it is the same in every run of a workload,
    however many sweeps fit.
    """
    latencies = [seconds * r["scale"] for r in sweeps for _, _, _, seconds in r["ops"]]
    sweep_s = [r["scale"] * sum(op[3] for op in r["ops"]) for r in sweeps]
    pct = tail_percentile(ops_per_sweep * MIN_SWEEPS)
    median = statistics.median
    metrics = {
        "setup_s": (median(r["setup_s"] * r["scale"] for r in probes + sweeps), "s"),
        "sweep_s": (median(sweep_s), "s"),
        "verdict_p50_ms": (1000 * median(latencies), "ms"),
        "verdict_tail_ms": (1000 * nearest_rank(latencies, pct), "ms"),
        "peak_rss_mb": (median(r["peak_rss_kb"] for r in sweeps) / 1024, "MB"),
    }
    raw_setup = median(r["setup_s"] for r in probes + sweeps)
    raw_sweep = median(sum(op[3] for op in r["ops"]) for r in sweeps)
    note = (f"verdict_tail_ms is p{pct} of {len(latencies)} op latencies; unscaled "
            f"setup_s={raw_setup:.6f} sweep_s={raw_sweep:.6f}, median scale "
            f"{median(r['scale'] for r in sweeps):.4f}")
    return metrics, note


def per_layer(sweeps) -> tuple[dict, bool, str]:
    """Mean self times and counts over the traced sweeps; means keep the sum
    of the self times equal to the traced sweep time."""
    traced = [r for r in sweeps if r["trace"] is not None]
    plain = [r for r in sweeps if r["trace"] is None]
    mean = statistics.fmean
    metrics = {}
    for name, unit, key in tracing.LAYER_METRICS:
        source = "self_s" if unit == "s" else "counts"
        metrics[name] = (mean(r["trace"][source].get(key, 0) for r in traced), unit)
    sweep_s = mean(r["sweep_s"] for r in traced)
    metrics["bench.self_s"] = (mean(r["sweep_s"] - r["trace"]["covered_s"] for r in traced), "s")
    metrics["bench.sweep_s"] = (sweep_s, "s")
    metrics["bench.trace_overhead_s"] = (sweep_s - mean(r["sweep_s"] for r in plain), "s")
    seen = [tuple(r["trace"]["counts"].get(k, 0) for k in tracing.EXACT_COUNTS) for r in traced]
    steady = len(set(seen)) == 1
    note = (f"{len(traced)} traced sweeps, both orders; exact counts "
            f"{'agree' if steady else 'DIFFER: ' + str(seen)}")
    return metrics, steady, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "cyclosieve" / "__init__.py").is_file():
        print(f"error: no cyclosieve sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    ops = workloads.ops_for(args.workload, args.seed)
    try:
        probes, sweeps = run_sweeps(ops, args.seconds, bool(args.trace), golden)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = sweeps[0]
    print(f"env: nproc={os.cpu_count()} cpu={cpu_model()!r} python={first['python']} "
          f"numpy={first['numpy']} cyclosieve={first['cyclosieve']}", file=sys.stderr)
    attempted = sum(len(r["ops"]) for r in sweeps)
    failed_ops = [key for r in sweeps for key in r["failed"]]
    failed = len(failed_ops)
    correct = failed == 0
    if args.trace:
        metrics, steady, note = per_layer(sweeps)
        correct = correct and steady
    else:
        metrics, note = end_to_end(probes, sweeps, len(ops))
    print(f"workload={args.workload} seed={args.seed} sweeps={len(sweeps)} "
          f"ops/sweep={len(ops)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6f} ratio", file=sys.stderr)
    print(note, file=sys.stderr)
    for key in sorted(set(failed_ops))[:10]:
        print(f"  failed: {key}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
