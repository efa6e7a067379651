"""One sweep of benchmark ops in a fresh process.

Run as ``python3 perfbench/worker.py``: it imports ``cyclosieve`` from the
checkout's ``src/`` (and refuses any other copy), reads a JSON request
``{"ops": [[...], ...], "trace": false}`` on stdin, issues the ops one after
another, and writes one JSON result line on stdout: the monotonic time at
which ``cyclosieve.cli`` was ready, each op's exit code, output digest and
seconds, the sweep's wall time and the process's peak RSS.

Every op starts with cold memo caches, as a fresh ``cyclosieve`` invocation
does, so an op's cost and output do not depend on the ops before it.

Between ops, at most every CALIBRATE_EVERY_S, and five times right after
set-up, the worker times a fixed pure-Python kernel.  The host this
benchmark was written on changes speed by up to half for minutes at a time;
the kernel's time tracks that speed, and ``run.py`` scales by it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
CALIBRATE_EVERY_S = 0.02


def calibrate() -> float:
    """Seconds for a fixed dict, tuple and integer kernel (about 1.5 ms)."""
    started = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i % 7
    sorted(table.items())
    return time.perf_counter() - started


class CheckoutError(RuntimeError):
    """cyclosieve cannot be imported from this checkout's src/."""


def import_checkout():
    """Import cyclosieve.cli from ``src/`` of this checkout, first on sys.path."""
    sys.path.insert(0, str(SRC))
    try:
        import cyclosieve.cli
    except ImportError as exc:
        raise CheckoutError(f"cannot import cyclosieve from {SRC}: {exc}") from None
    location = Path(cyclosieve.__file__).resolve()
    if not location.is_relative_to(SRC):
        raise CheckoutError(f"cyclosieve resolves to {location}, outside {SRC}")
    return cyclosieve


def memo_caches(package) -> list:
    """The cache_clear functions of every memoized function in the package."""
    found = {}
    for module in tracing.package_modules(package):
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def run_sweep(package, ops, trace: bool = False) -> dict:
    """Issue ``ops`` in order; return per-op results and the sweep's totals."""
    caches = memo_caches(package)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install(package)
    span = tracer.span if tracer is not None else tracing.null_span
    results = []
    calibration = []
    calibrated_at = float("-inf")
    started = time.perf_counter()
    for op in ops:
        for clear in caches:
            clear()
        if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            calibrated_at = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op[0] == "roots":
                    code, text = workloads.run_roots_op(op, package, span)
                else:
                    code = package.cli.run(list(op))
                    text = out.getvalue()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, text = f"raised {type(exc).__name__}: {exc}", ""
        seconds = time.perf_counter() - t0
        data = text.encode()
        if tracer is not None and op[0] != "roots":
            tracer.counts["cli.output_bytes"] += len(data)
        results.append([workloads.op_key(op), code, hashlib.sha256(data).hexdigest(), seconds])
    sweep_s = time.perf_counter() - started
    return {
        "ops": results,
        "sweep_s": sweep_s,
        "calibration": calibration,
        "trace": tracer.report() if tracer is not None else None,
    }


def main() -> int:
    try:
        package = import_checkout()
    except CheckoutError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    ready = time.monotonic()
    setup_calibration = [calibrate() for _ in range(5)]
    request = json.load(sys.stdin)
    result = run_sweep(package, request["ops"], request.get("trace", False))
    result["calibration"] += setup_calibration
    numpy = sys.modules.get("numpy")
    result.update(
        ready=ready,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        cyclosieve=str(Path(package.__file__).resolve().relative_to(CHECKOUT)),
        python=sys.version.split()[0],
        numpy=numpy.__version__ if numpy is not None else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
